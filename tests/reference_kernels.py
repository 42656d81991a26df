"""Python and numpy references for the compiled kernels, which the
differential tests run on the kernels' own inputs.

Each takes the arrays its kernel takes and gives what the kernel gives:
`argsort_profile` and `argsort_network` the arrays of `covprune_profile`
and `covprune_network` (`_profile.c`, `_flow.c`), from general argsorts;
`sweep_python` and `flat_python` the deletions, after the refill, and
the counts of `covprune_sweep` (`_sweep.c`) under its tree store and
its flat one, over `CoverageTree` and over a list, visiting the reads in
the order they are given where the kernel sorts them itself;
`augment_python` the flow, the last
search's marks and the path count of `covprune_max_flow` (`_flow.c`),
line for line; `cold_max_flow` and `cold_decide` the maximum flow, and
the answer, of a `flow.Chain`'s first probe, from zero flow in place of
the backbone flow; and `parse_lines` the instance, or the error, of
`covprune_parse` (`_parse.c`) as `io.parse_instance` reads it, from
`str.splitlines`, `str.split` and `int` on the decoded text: the line
parser covprune read with before its one compiled reader.
"""

from array import array
from itertools import accumulate

import numpy as np

from covprune import flow
from covprune.coverage_tree import CoverageTree
from covprune.flow import FlowAssignment, FlowNetwork
from covprune.intervals import MAX_COORD, CoverageProfile, _kernels, segment_cov
from covprune.io import _DETECT, _FIELDS, InstanceFile, ParseError
from covprune.solution import Solution, score_subset


def argsort_profile(intervals) -> CoverageProfile:
    """The coverage profile from one argsort of all the endpoints."""
    both = np.concatenate((intervals.starts, intervals.ends))
    # sort and drop repeats: np.unique takes a slower hash path on uint64
    order = np.argsort(both)
    both = both[order]
    first = np.ones(len(both), bool)
    first[1:] = both[1:] != both[:-1]
    delims = both[first]
    # each endpoint's delimiter index, its rank among the distinct endpoints
    rank = np.empty(len(both), np.intp)
    rank[order] = np.cumsum(first) - 1
    lo, hi = np.split(rank, 2)
    return CoverageProfile(delims, lo, hi, segment_cov(lo, hi, len(delims)))


def argsort_network(profile: CoverageProfile) -> FlowNetwork:
    """The chain network of a profile from one stable argsort of the arcs."""
    coords, lo, hi, _ = map(np.asarray, profile)
    m = len(coords)
    nv = m + 2
    tail = np.concatenate((np.arange(m + 1), lo + 1))
    head = np.concatenate((np.arange(1, m + 2), hi + 1))
    origin = np.empty(2 * len(tail), np.int64)  # the vertex each arc leaves
    origin[0::2], origin[1::2] = tail, head
    to = np.empty_like(origin)
    to[0::2], to[1::2] = head, tail
    # each vertex lists its arcs by falling head, the search's order;
    # stable, so parallel arcs keep construction order
    adj = np.argsort(origin * nv + (nv - 1 - to), kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(origin, minlength=nv))))
    return FlowNetwork(nv, m + 1, first, adj, to)


def sweep_python(order, lo, hi, cov, k: int):
    """The tree sweep and refill over `CoverageTree` of the reads in
    `order`, given their segment spans `lo`/`hi` and the segment coverage
    `cov`; returns the deleted mask in input order and (nodes touched,
    candidates, blocked, refilled)."""
    tree = CoverageTree(cov.tolist())
    query = tree.range_query
    deleted = np.zeros(len(order), bool)
    candidates = blocked = refilled = 0
    reads = list(zip(order.tolist(), lo[order].tolist(), hi[order].tolist()))
    for i, l, h in reads:
        mn, mx = query(l, h)
        if mx > k:
            candidates += 1
            if mn > k // 2:  # expendable
                tree.range_decrement(l, h)
                deleted[i] = True
            else:
                blocked += 1
    for i, l, h in reads:
        if deleted[i] and query(l, h)[1] < k:  # fits under the cap again
            tree.range_increment(l, h)
            deleted[i] = False
            refilled += 1
    return deleted, (tree.nodes_touched, candidates, blocked, refilled)


def flat_python(order, lo, hi, cov, k: int):
    """The flat scan over a list, as `sweep_python` but counting
    segments scanned (read or shifted) where it counts nodes touched; the
    refill stops reading a span at its first cell at k or above."""
    cur = cov.tolist()
    deleted = np.zeros(len(order), bool)
    scanned = candidates = blocked = refilled = 0
    reads = list(zip(order.tolist(), lo[order].tolist(), hi[order].tolist()))
    for i, l, h in reads:
        seg = cur[l:h]
        scanned += h - l
        if max(seg) > k:
            candidates += 1
            if min(seg) > k // 2:
                cur[l:h] = [x - 1 for x in seg]
                scanned += h - l
                deleted[i] = True
            else:
                blocked += 1
    for i, l, h in reads:
        if not deleted[i]:
            continue
        # read up to the first cell at k or above, that one included
        full = next((j for j in range(l, h) if cur[j] >= k), h)
        scanned += full - l + (full < h)
        if full == h:
            cur[l:h] = [x + 1 for x in cur[l:h]]
            scanned += h - l
            deleted[i] = False
            refilled += 1
    return deleted, (scanned, candidates, blocked, refilled)


def augment_python(nv, source, sink, first, adj, to, res, parent_arc, stack, next_arc) -> int:
    """`covprune_max_flow` line for line, run on lists read from the same
    arrays, since indexing a list is many times faster than indexing
    numpy; `res` and `parent_arc` get the final lists back."""
    lists = [a.tolist() for a in (first, adj, to, res, parent_arc, stack, next_arc)]
    augmentations = 0
    while dfs_augment(nv, source, sink, *lists) > 0:
        augmentations += 1
    res[:], parent_arc[:] = lists[3], lists[4]
    return augmentations


def dfs_augment(nv, source, sink, first, adj, to, res, parent_arc, stack, next_arc) -> int:
    """One depth-first augmenting path from source to sink; returns the
    amount pushed, 0 when the sink cannot be reached.  A failing search
    leaves marked in `parent_arc` exactly the vertices the source reaches."""
    parent_arc[:] = [-1] * nv
    parent_arc[source] = -2
    depth = 0
    stack[0] = source
    next_arc[source] = first[source]
    while depth >= 0 and parent_arc[sink] == -1:
        u = stack[depth]
        p, end = next_arc[u], first[u + 1]
        while p < end and (parent_arc[to[adj[p]]] != -1 or res[adj[p]] <= 0):
            p += 1
        if p == end:
            depth -= 1  # every arc of u tried: back up
        else:
            a = adj[p]
            v = to[a]
            next_arc[u] = p + 1
            parent_arc[v] = a
            depth += 1
            stack[depth] = v
            next_arc[v] = first[v]
    if parent_arc[sink] == -1:
        return 0

    path = [parent_arc[v] for v in stack[1:depth + 1]]  # the stack runs source to sink
    bottleneck = min(res[a] for a in path)
    for a in path:
        res[a] -= bottleneck
        res[a ^ 1] += bottleneck
    return bottleneck


def cold_max_flow(intervals, k: int, t: int) -> FlowAssignment:
    """The maximum flow of the (k, t) network of `intervals`, augmented
    by `flow.max_flow_augmenting` from zero flow: a residual at capacity,
    k on the two end backbone arcs, k - t on the interior ones and 1 on
    each interval arc."""
    if not 0 <= t <= k:
        raise ValueError(f"t must be in [0, k], got t={t} k={k}")
    net = flow.build_network(intervals)
    nb = net.num_backbone_arcs
    res = array("q", [0]) * len(net.to)
    res[0:2 * nb:2] = array("q", [k - t]) * nb
    res[0] = res[2 * nb - 2] = k
    res[2 * nb::2] = array("q", [1]) * (len(res) // 2 - nb)
    result = flow.max_flow_augmenting(net, res)
    # each path adds at least 1 to a value that starts at 0
    assert result.augmentations <= k, result.augmentations
    return result


def cold_decide(intervals, k: int, t: int) -> Solution | None:
    """`flow.decide`'s question answered by the zero-flow start alone: the
    flow's witness, scored, when the flow reaches k, else None."""
    result = cold_max_flow(intervals, k, t)
    if result.value < k:
        return None
    return score_subset(intervals, result.kept, k, "cold-reference", {})


def _instance(fmt: str, names: list[str], run_at, starts, ends, data: bytes, line_at,
              line_len) -> InstanceFile:
    """The instance of the given columns, read from the lines of `data`
    that `line_at` and `line_len` give; bed3 `names` holds the name of
    each run of records of one name, run r starting at record run_at[r],
    and plain `names` is empty."""
    chroms, code = (None,), array("q", [0]) * len(starts)
    if names:
        chroms = tuple(sorted(set(names)))
        rank = dict(zip(chroms, range(len(chroms))))
        _kernels().covprune_runs(len(run_at), run_at, array("q", map(rank.__getitem__, names)),
                                 len(starts), code)
    return InstanceFile(fmt, chroms, code, starts, ends, data, line_at, line_len)


def _parse_coord(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not an integer") from None
    if value < 0:
        raise ParseError(line_no, f"{what} {value} is negative")
    if value > MAX_COORD:
        raise ParseError(line_no, f"{what} {value} exceeds the largest coordinate {MAX_COORD}")
    return value


def parse_lines(text: str, fmt: str | None = None) -> InstanceFile:
    """Parse instance text line by line; with fmt None the field count
    of the first data line, 3 or 2, picks bed3 or plain."""
    names, starts, ends, rows = [], [], [], []
    detected = fmt
    lines = text.splitlines(keepends=True)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        detected = detected or _DETECT.get(len(fields))
        if detected is None:
            raise ParseError(line_no, f"expected 2 (plain) or 3 (bed3) fields, got {len(fields)}")
        if detected not in _FIELDS:
            raise ValueError(f"unknown format {detected!r}")
        if len(fields) != _FIELDS[detected]:
            raise ParseError(line_no, f"{detected} format needs {_FIELDS[detected]} fields, "
                                      f"got {len(fields)}")
        names += fields[:-2]  # the bed3 name, if any
        start = _parse_coord(fields[-2], line_no, "start")
        end = _parse_coord(fields[-1], line_no, "end")
        if start >= end:
            raise ParseError(line_no, f"start {start} must be < end {end}")
        starts.append(start)
        ends.append(end)
        rows.append(line_no - 1)
    # each line's byte range in the text's UTF-8 encoding; every record is a run of its name
    data = text.encode("utf-8", "surrogatepass")
    size = [len(line.encode("utf-8", "surrogatepass")) for line in lines]
    line_end = list(accumulate(size))
    return _instance(detected or "plain", names, array("q", range(len(names))),
                     array("Q", starts), array("Q", ends), data,
                     array("q", (line_end[r] - size[r] for r in rows)),
                     array("q", (size[r] for r in rows)))

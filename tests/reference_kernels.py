"""Python and numpy references for the compiled kernels, which the
differential tests run on the kernels' own inputs.

Each takes the arrays its kernel takes and gives what the kernel gives:
`argsort_profile` and `argsort_network` the arrays of `covprune_profile`
and `covprune_network` (`_profile.c`, `_flow.c`), from general argsorts,
the profile's coverage and its summary from numpy's cumulative sum,
min, max and sum; `score_numpy` the kept reads and the coverage of
`covprune_score` (`_arrays.c`), from a by-read mask and the cumulative
sum of the kept places' rises and falls;
`sweep_python` and `flat_python` the deletions, after the refill, and
the counts of `covprune_sweep` (`_sweep.c`) under its tree store and
its flat one, over `CoverageTree` and over a list, visiting the reads in
the order they are given where the kernel reads its columns in theirs;
`augment_python` the flow, the last search's marks and the path count
of `covprune_max_flow` (`_flow.c`), line for line but for the index
checks, which Python's own indexing stands in for, `head` its arcs'
heads and `residual` their capacities; `arc_ends` every arc's ends,
written out with numpy, for the network's reference and the tests;
`cold_max_flow` and `cold_decide` the maximum flow, and the answer, of
the exact search's first probe, from zero flow in place of the backbone
flow, and `warm_max_flow` that probe's flow itself; and
`parse_lines` the instance, or the error, of `covprune_parse`
(`_parse.c`) as `io.parse_instance` reads it, from `str.splitlines`,
`str.split` and `int` on the decoded text: the line parser covprune read
with before its one compiled reader.
"""

from array import array
from itertools import accumulate

import numpy as np

from covprune import flow
from covprune.coverage_tree import CoverageTree
from covprune.flow import FlowAssignment, FlowNetwork
from covprune.intervals import MAX_COORD, CoverageProfile
from covprune.io import _DETECT, InstanceFile, ParseError
from covprune.solution import Solution, score_subset


def argsort_profile(intervals) -> CoverageProfile:
    """The coverage profile from one argsort of all the endpoints, the
    coverage a cumulative sum of each read's rise at lo and fall at hi,
    and the chain order a stable argsort of the reads by (lo, hi)."""
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
    m = len(delims)
    cov = np.cumsum(np.bincount(lo, minlength=m) - np.bincount(hi, minlength=m))[:-1]
    spanned = int((hi - lo).sum())
    assert spanned == int(cov.sum())  # every read adds 1 to each segment it spans
    extremes = (int(cov.min()), int(cov.max())) if len(cov) else (0, 0)
    order = np.lexsort((hi, lo))
    return CoverageProfile(delims, lo[order], hi[order], cov, *extremes, spanned, order)


def score_numpy(profile: CoverageProfile, keep) -> tuple[list, list, int, int]:
    """The answer of a 0/1 keep column by chain place: the kept reads,
    the nonzero positions of the by-read mask, and the segment coverage,
    a cumulative sum of each kept place's rise at lo and fall at hi, with
    its min and max (0 and 0 without a segment)."""
    keep, m = np.asarray(keep, np.int64), len(profile.delimiters)
    by_read = np.zeros(len(keep), bool)
    by_read[np.asarray(profile.order)] = keep == 1
    steps = np.zeros(m + 1, np.int64)
    np.add.at(steps, np.asarray(profile.lo), keep)
    np.subtract.at(steps, np.asarray(profile.hi), keep)
    cov = np.cumsum(steps)[:max(m - 1, 0)]
    extremes = (int(cov.min()), int(cov.max())) if len(cov) else (0, 0)
    return np.flatnonzero(by_read).tolist(), cov.tolist(), *extremes


def arc_ends(m, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The vertex each residual arc of the chain network over m
    delimiters leaves and the one it enters, written out with numpy:
    backbone arc j joins j and j + 1, the arc of place p lo[p] + 1 and
    hi[p] + 1, and arc 2a + 1 runs back along arc 2a."""
    tail = np.concatenate((np.arange(m + 1), np.asarray(lo) + 1))
    head = np.concatenate((np.arange(1, m + 2), np.asarray(hi) + 1))
    origin, reach = np.empty((2, 2 * len(tail)), np.int64)
    origin[0::2], origin[1::2] = tail, head
    reach[0::2], reach[1::2] = head, tail
    return origin, reach


def argsort_network(profile: CoverageProfile) -> FlowNetwork:
    """The chain network of a profile from one stable argsort of the arcs."""
    coords, lo, hi = map(np.asarray, profile[:3])
    m = len(coords)
    nv = m + 2
    origin, reach = arc_ends(m, lo, hi)
    # each vertex lists its arcs by falling head, the search's order;
    # stable, so parallel arcs keep construction order
    adj = np.argsort(origin * nv + (nv - 1 - reach), kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(origin, minlength=nv))))
    return FlowNetwork(nv, m + 1, first, adj, lo, hi)


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


def augment_python(nv, first, adj, lo, hi, k, t, flow, parent_arc) -> int:
    """`covprune_max_flow` line for line, run on lists read from the same
    arrays, since indexing a list is many times faster than indexing
    numpy; `flow` and `parent_arc` get the final lists back, and the
    search's stack and next_arc are lists of its own, as the kernel's are
    the module's."""
    lists = [a.tolist() for a in (first, adj, lo, hi, flow, parent_arc)] + [[0] * nv, [0] * nv]
    augmentations = 0
    while dfs_augment(nv, k, t, *lists) > 0:
        augmentations += 1
    flow[:], parent_arc[:] = lists[4], lists[5]
    return augmentations


def head(r, nv, lo, hi) -> int:
    """The head of residual arc r in the chain network on nv vertices:
    backbone arc j runs from j to j + 1, the arc of chain place p from
    lo[p] + 1 to hi[p] + 1, and arc 2a + 1 back along arc 2a."""
    a = r >> 1
    p = a - (nv - 1)
    if p < 0:
        return a + (not r & 1)
    return (lo[p] if r & 1 else hi[p]) + 1


def residual(r, nv, k, t, flow) -> int:
    """The residual capacity of residual arc r in the (k, t) chain network
    on nv vertices: arc 2a has logical arc a's capacity less its flow
    (k on the two end backbone arcs, k - t on the interior ones, 1 on a
    read's arc), arc 2a + 1 the flow."""
    a = r >> 1
    if r & 1:
        return flow[a]
    if a >= nv - 1:
        return 1 - flow[a]
    return (k if a in (0, nv - 2) else k - t) - flow[a]


def dfs_augment(nv, k, t, first, adj, lo, hi, flow, parent_arc, stack, next_arc) -> int:
    """One depth-first augmenting path from the source, vertex 0, to the
    sink, vertex nv - 1; returns the amount pushed, 0 when the sink cannot
    be reached.  A failing search leaves marked in `parent_arc` exactly
    the vertices the source reaches."""
    sink = nv - 1
    parent_arc[:] = [-1] * nv
    parent_arc[0] = -2
    depth = 0
    stack[0] = 0
    next_arc[0] = first[0]
    while depth >= 0 and parent_arc[sink] == -1:
        u = stack[depth]
        p, end = next_arc[u], first[u + 1]
        while p < end and (parent_arc[head(adj[p], nv, lo, hi)] != -1
                           or residual(adj[p], nv, k, t, flow) <= 0):
            p += 1
        if p == end:
            depth -= 1  # every arc of u tried: back up
        else:
            a = adj[p]
            v = head(a, nv, lo, hi)
            next_arc[u] = p + 1
            parent_arc[v] = a
            depth += 1
            stack[depth] = v
            next_arc[v] = first[v]
    if parent_arc[sink] == -1:
        return 0

    path = [parent_arc[v] for v in stack[1:depth + 1]]  # the stack runs source to sink
    bottleneck = min(residual(a, nv, k, t, flow) for a in path)
    for a in path:
        flow[a >> 1] += -bottleneck if a & 1 else bottleneck
    return bottleneck


def cold_max_flow(intervals, k: int, t: int) -> FlowAssignment:
    """The maximum flow of the (k, t) network of `intervals`, augmented
    by `flow.max_flow_augmenting` from zero flow."""
    net = flow.build_network(intervals)
    result = flow.max_flow_augmenting(net, k, t, array("q", [0]) * (len(net.adj) // 2))
    # each path adds at least 1 to a value that starts at 0
    assert result.augmentations <= k, result.augmentations
    return result


def warm_max_flow(intervals, k: int, t: int) -> FlowAssignment:
    """The maximum flow of the (k, t) network of `intervals` from the exact
    search's start at floor t: k - t on each backbone arc, none on the
    reads."""
    net = flow.build_network(intervals)
    start = array("q", [k - t]) * net.num_backbone_arcs + array("q", [0]) * len(intervals)
    return flow.max_flow_augmenting(net, k, t, start)


def cold_decide(intervals, k: int, t: int) -> Solution | None:
    """`flow.decide`'s question answered by the zero-flow start alone: the
    flow's witness, scored, when the flow reaches k, else None."""
    result = cold_max_flow(intervals, k, t)
    if result.value < k:
        return None
    return score_subset(intervals, result.interval_flow, k, "cold-reference", {})


def _instance(names: list[str], run_at, starts, ends, data: bytes, line_at,
              line_len) -> InstanceFile:
    """The instance of the given columns, read from the lines of `data`
    that `line_at` and `line_len` give; bed3 `names` holds the name of
    each run of records of one name, run r starting at record run_at[r],
    and plain `names` is empty: its records, if any, are one run."""
    chroms = tuple(sorted(set(names))) or (None,)
    if not names:
        names, run_at = [None] * (len(starts) > 0), array("q", [0] * (len(starts) > 0))
    run_code = array("q", map(dict(zip(chroms, range(len(chroms)))).__getitem__, names))
    return InstanceFile(chroms, run_at, run_code, starts, ends, data, line_at, line_len)


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


def parse_lines(text: str) -> InstanceFile:
    """Parse instance text line by line; the field count of the first
    data line, 3 or 2, picks bed3 or plain."""
    names, starts, ends, rows = [], [], [], []
    width = None
    lines = text.splitlines(keepends=True)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        width = width or (len(fields) if len(fields) in _DETECT else None)
        if width is None:
            raise ParseError(line_no, f"expected 2 (plain) or 3 (bed3) fields, got {len(fields)}")
        if len(fields) != width:
            raise ParseError(line_no, f"{_DETECT[width]} format needs {width} fields, "
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
    return _instance(names, array("q", range(len(names))),
                     array("Q", starts), array("Q", ends), data,
                     array("q", (line_end[r] - size[r] for r in rows)),
                     array("q", (size[r] for r in rows)))

"""Python and numpy references for the compiled kernels, which the
differential tests run on the kernels' own inputs.

Each takes the arrays its kernel takes and gives what the kernel gives:
`argsort_profile` and `argsort_network` the arrays of `covprune_profile`
and `covprune_network` (`_profile.c`, `_flow.c`), from general argsorts;
`sweep_python` and `flat_python` the deletions and counts of
`covprune_sweep` and `covprune_flat_sweep` (`_sweep.c`), over
`CoverageTree` and over a list; `augment_python` the flow, the last
search's marks and the path count of `covprune_max_flow` (`_flow.c`),
line for line.  The reader `covprune_parse` has no reference here: the
line parser `io.parse_instance` is the one it is checked against.
"""

import numpy as np

from covprune.coverage_tree import CoverageTree
from covprune.flow import FlowNetwork
from covprune.intervals import CoverageProfile, segment_cov


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
    """The tree sweep over `CoverageTree`, on the arrays `approx._sweep`
    takes; returns the deleted mask in input order and (nodes touched,
    candidates, blocked)."""
    tree = CoverageTree(cov.tolist())
    query = tree.range_query
    shrink = tree.range_decrement
    deleted = np.zeros(len(order), bool)
    candidates = blocked = 0
    for i, l, h in zip(order.tolist(), lo[order].tolist(), hi[order].tolist()):
        mn, mx = query(l, h)
        if mx > k:
            candidates += 1
            if mn > k // 2:  # expendable
                shrink(l, h)
                deleted[i] = True
            else:
                blocked += 1
    return deleted, (tree.nodes_touched, candidates, blocked)


def flat_python(order, lo, hi, cov, k: int):
    """The flat scan over a list, as `sweep_python` but counting
    segments scanned (read or lowered) where it counts nodes touched."""
    cur = cov.tolist()
    deleted = np.zeros(len(order), bool)
    scanned = candidates = blocked = 0
    for i, l, h in zip(order.tolist(), lo[order].tolist(), hi[order].tolist()):
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
    return deleted, (scanned, candidates, blocked)


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

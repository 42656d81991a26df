"""Max-flow reduction for the bounded-coverage decision problem.

Given intervals S, a coverage cap k and a coverage floor t, we build a
network whose vertices are the sorted distinct endpoints plus a synthetic
source and sink.  Consecutive vertices are joined by "backbone" arcs
(capacity k at the two ends, k - t in the interior) and every interval
contributes one unit-capacity arc from its start to its end.  A subset
with maxcov <= k and mincov >= t over the span exists exactly when the
max-flow value is k, and the kept intervals are the interval arcs that
carry flow 1: an interior backbone arc then carries k minus the kept
coverage of its segment, so its capacity k - t forces coverage >= t.

`build_network` lays the network out in arrays once per interval set,
by `covprune_network` (`_flow.c`, loaded by `_native`) or, without a
library, by its twin, one stable argsort of the arcs; the capacities,
and so k and t, live only in the residual a `Chain` holds.
`max_flow_augmenting` augments it along depth-first paths that try the
farthest-reaching arc first, by `covprune_max_flow` or its line-for-line
twin `_augment_python`: the same flow, witness and augmentation count.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _native
from .intervals import IntervalSet
from .solution import Solution, score_subset


class FlowNetwork(NamedTuple):
    """The reduction graph of one interval set, for any (k, t).

    Vertices are numbered along the chain source 0, the distinct
    endpoints 1..nv-2 in increasing order, sink nv-1.  Residual arc 2a
    runs along logical arc a and arc 2a+1 against it; logical arc j <
    `num_backbone_arcs` joins vertex j to vertex j+1, and the rest are
    the interval arcs in input order, `interval_arcs[i]` holding the
    (start vertex, end vertex) of interval i.  Arc a ends at `to[a]`, and
    the arcs leaving vertex u are `adj[first[u]:first[u + 1]]`, by falling
    head, parallel arcs in construction order.
    """

    nv: int
    num_backbone_arcs: int
    interval_arcs: np.ndarray
    first: np.ndarray
    adj: np.ndarray
    to: np.ndarray


class FlowAssignment(NamedTuple):
    """An integral flow on a FlowNetwork, one value per arc."""

    backbone_flow: np.ndarray
    interval_flow: np.ndarray
    augmentations: int = 0

    @property
    def value(self) -> int:
        # all flow leaves the source through the first backbone arc
        return int(self.backbone_flow[0])

    @property
    def kept(self) -> np.ndarray:
        """The witness: the intervals whose arcs carry flow."""
        return np.flatnonzero(self.interval_flow == 1)


def build_network(intervals: IntervalSet) -> FlowNetwork:
    """Lay out the reduction network of S in arrays.

    The source and sink are symbolic rather than numeric coordinates, so
    instances starting at coordinate 0 need no underflow tricks.
    """
    if not len(intervals):
        raise ValueError("cannot build a network for an empty interval set")
    coords, lo, hi, _ = intervals.compressed
    m, n = len(coords), len(lo)
    nv = m + 2  # coords plus the source 0 and the sink m + 1
    if not (lo.shape == hi.shape and lo.min() >= 0 and hi.max() < m and (lo < hi).all()):
        raise ValueError("interval outside the delimiter range")  # the kernels index by them
    if (lib := _native.load_library()) is not None:
        first, (adj, to) = np.empty(nv + 1, np.int64), np.empty((2, 2 * (m + 1 + n)), np.int64)
        lib.covprune_network(n, m, lo, hi, first, adj, to, np.empty(4 * nv + n, np.int64))
    else:  # the twin of `covprune_network` (`_flow.c`)
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
    if not (to.min() >= 0 and to.max() < nv and first[-1] == len(to)):
        raise ValueError("arc endpoint outside the chain network")
    return FlowNetwork(nv, m + 1, np.column_stack((lo + 1, hi + 1)), first, adj, to)


def max_flow_augmenting(net: FlowNetwork, res: np.ndarray) -> FlowAssignment:
    """Augment the feasible flow held in the residual capacities `res`
    (one per residual arc of `net`) to a maximum flow, in place, by
    depth-first augmenting paths.  The returned assignment records how
    many paths were needed."""
    lib = _native.load_library()
    augment = _augment_python if lib is None else lib.covprune_max_flow
    # scratch for the search: parent_arc, stack and next_arc
    augmentations = augment(net.nv, 0, net.nv - 1, net.first, net.adj, net.to, res,
                            *np.empty((3, net.nv), np.int64))
    nb = net.num_backbone_arcs
    # copies: the next, lower floor goes on augmenting `res`
    return FlowAssignment(res[1:2 * nb:2].copy(), res[2 * nb + 1::2].copy(), augmentations)


def _augment_python(nv, source, sink, first, adj, to, res, parent_arc, stack, next_arc) -> int:
    """`covprune_max_flow` (`_flow.c`) line for line, run on lists read
    from the same arrays, since indexing a list is many times faster than
    indexing numpy; `res` and `parent_arc` get the final lists back."""
    lists = [a.tolist() for a in (first, adj, to, res, parent_arc, stack, next_arc)]
    augmentations = 0
    while _dfs_augment(nv, source, sink, *lists) > 0:
        augmentations += 1
    res[:], parent_arc[:] = lists[3], lists[4]
    return augmentations


def _dfs_augment(nv, source, sink, first, adj, to, res, parent_arc, stack, next_arc) -> int:
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


class Chain:
    """The reduction network of one interval set at cap k, built once and
    then probed at falling floors t, each probe augmenting the flow the
    last one left.

    A maximum flow at floor t stays feasible at any lower floor, since
    lowering t only raises the interior backbone capacities from k - t.
    With `warm_start` the first probe starts from the backbone flow of
    value k - t, which leaves at most t units to find; without it, from
    zero flow, the reference the tests check the warm start against.
    """

    def __init__(self, intervals: IntervalSet, k: int, warm_start: bool = True):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k, self.warm_start = k, warm_start
        self.net = build_network(intervals)
        self.t: int | None = None  # floor of the flow held, None before a probe
        self.first_t = self.augmentations = 0  # of the whole descent
        self.native = int(_native.load_library() is not None)

    def max_flow(self, t: int) -> FlowAssignment:
        """The maximum flow of the (k, t) network, augmented from the flow
        of the previous, higher floor, or on the first call from the
        start flow.  Its `augmentations` counts this call's paths."""
        k, nb = self.k, self.net.num_backbone_arcs
        if not 0 <= t <= k:
            raise ValueError(f"t must be in [0, k], got t={t} k={k}")
        if self.t is None:
            self.first_t = t
            f = k - t if self.warm_start else 0  # the start flow on every backbone arc
            self.res = res = np.zeros(len(self.net.to), np.int64)
            res[2 * nb::2] = 1  # interval arcs: capacity 1, no flow
            res[0:2 * nb:2] = k - t - f  # backbone arcs: capacity less flow,
            res[0] = res[2 * nb - 2] = k - f  # the capacity being k at the two ends
            res[1:2 * nb:2] = f
        elif t > self.t:
            raise ValueError(f"the floor may only fall: t={t} after t={self.t}")
        else:
            self.res[2:2 * nb - 2:2] += self.t - t  # interior capacity rises
        flow = max_flow_augmenting(self.net, self.res)
        self.t = t
        self.augmentations += flow.augmentations
        # the value starts at k - first_t warm, 0 cold, and each path adds at least 1
        bound = self.first_t if self.warm_start else k
        if self.augmentations > bound:
            raise AssertionError(f"{self.augmentations} augmentations "
                                 f"from the start at t={self.first_t}")
        return flow


def decide(intervals: IntervalSet, k: int, t: int,
           warm_start: bool = True) -> Solution | None:
    """Find a subset with maxcov <= k and mincov >= t over the span.

    Returns None when no such subset exists (a normal outcome, not an
    error); an empty set holds every floor, and an input already under
    the cap keeps every read.  Otherwise, with `warm_start`, the solver
    begins from the backbone flow of value k - t on a `Chain` and needs
    at most t augmentations; without it the flow starts from zero.  At
    t = 0 every subset under the cap qualifies, and the answer is
    approx's kept set, which keeps a read wherever the cap allows.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    method = "exact-tailored" if warm_start else "exact-generic"
    work = {"flow_solves": 0, "augmentations": 0, "native_flow": 0}
    if not len(intervals):
        return Solution((), 0, 0, method, work)
    if t > k:
        # mincov <= maxcov <= k < t can never hold
        return None
    cov = intervals.compressed[3]
    if cov.max() <= k:
        # keeping every read is best, and k >= 2**63 stays out of int64 capacities
        return (score_subset(intervals, range(len(intervals)), method, work)
                if t <= cov.min() else None)
    if t == 0:
        # the warm start already saturates the backbone, so its witness is empty
        from .approx import approx_prune
        return score_subset(intervals, approx_prune(intervals, k).kept, method, work)
    chain = Chain(intervals, k, warm_start)
    flow = chain.max_flow(t)
    if flow.value < k:
        return None
    work.update(flow_solves=1, augmentations=flow.augmentations, native_flow=chain.native)
    return score_subset(intervals, flow.kept, method, work)

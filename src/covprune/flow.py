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

`build_network` lays the network out in int64 buffers once per interval
set, by `covprune_network` (`_flow.c`, loaded by `_native`); the capacities,
and so k and t, live only in the residual a `Chain` holds.
`max_flow_augmenting` augments it along depth-first paths that try the
farthest-reaching arc first, by `covprune_max_flow`.  `decide` runs the
exact search (`search.descend`) at its one floor t.
"""

from __future__ import annotations

from array import array
from collections import namedtuple

from . import _native
from ._native import zeros
from .intervals import IntervalSet
from .solution import Solution


class FlowNetwork(namedtuple("FlowNetwork", "nv num_backbone_arcs first adj to")):
    """The reduction graph of one interval set, for any (k, t).

    Vertices are numbered along the chain source 0, the distinct
    endpoints 1..nv-2 in increasing order, sink nv-1.  Residual arc 2a
    runs along logical arc a and arc 2a+1 against it; logical arc j <
    `num_backbone_arcs` joins vertex j to vertex j+1, and the rest are
    the interval arcs in input order.  Arc a ends at `to[a]`, and the
    arcs leaving vertex u are `adj[first[u]:first[u + 1]]`, by falling
    head, parallel arcs in construction order.  The arrays are read-only
    int64 buffers.
    """

    __slots__ = ()

    @property
    def interval_arcs(self) -> memoryview:
        """The (start vertex, end vertex) of each interval, an n x 2 view
        made on access from the heads of its two residual arcs in `to`."""
        pairs = array("q", self.to[2 * self.num_backbone_arcs:].tobytes())  # (end, start)
        pairs[0::2], pairs[1::2] = pairs[1::2], pairs[0::2]
        return memoryview(pairs).cast("B").cast("q", (len(pairs) // 2, 2))


class FlowAssignment(namedtuple("FlowAssignment", "backbone_flow interval_flow augmentations",
                                 defaults=(0,))):
    """An integral flow on a FlowNetwork, one int64 value per arc, and
    the number of augmenting paths that made it."""

    __slots__ = ()

    @property
    def value(self) -> int:
        # all flow leaves the source through the first backbone arc
        return self.backbone_flow[0]

    @property
    def kept(self) -> array:
        """The witness: the intervals whose arcs carry flow."""
        return _native.select(self.interval_flow, 1)


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
    if len(hi) != n or _native.load_library().covprune_spans(n, lo, hi, m - 1) < 0:
        raise ValueError("interval outside the delimiter range")  # the kernels index by them
    first, adj, to = zeros("q", nv + 1), zeros("q", 2 * (m + 1 + n)), zeros("q", 2 * (m + 1 + n))
    # it checks the arcs it lays out: a head off the chain raises ValueError
    _native.load_library().covprune_network(n, m, lo, hi, first, adj, to, zeros("q", 4 * nv + n))
    return FlowNetwork(nv, m + 1, *(memoryview(a).toreadonly() for a in (first, adj, to)))


def max_flow_augmenting(net: FlowNetwork, res) -> FlowAssignment:
    """Augment the feasible flow held in the residual capacities `res`
    (one per residual arc of `net`, an int64 `array.array`) to a maximum
    flow, in place, by depth-first augmenting paths.  The returned assignment
    records how many paths were needed."""
    # scratch for the search: parent_arc, stack and next_arc
    augmentations = _native.load_library().covprune_max_flow(
        net.nv, 0, net.nv - 1, net.first, net.adj, net.to, res,
        *(zeros("q", net.nv) for _ in range(3)))
    nb = net.num_backbone_arcs
    # copies: the next, lower floor goes on augmenting `res`
    return FlowAssignment(res[1:2 * nb:2], res[2 * nb + 1::2], augmentations)


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
            self.res = res = zeros("q", len(self.net.to))
            res[2 * nb::2] = array("q", [1]) * (len(res) // 2 - nb)  # interval arcs: capacity 1
            res[0:2 * nb:2] = array("q", [k - t - f]) * nb  # backbone arcs: capacity less flow,
            res[0] = res[2 * nb - 2] = k - f  # the capacity being k at the two ends
            res[1:2 * nb:2] = array("q", [f]) * nb
        elif t > self.t:
            raise ValueError(f"the floor may only fall: t={t} after t={self.t}")
        else:  # interior capacity rises
            _native.load_library().covprune_add(nb - 2, memoryview(self.res)[2:], 2, self.t - t)
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
    error).  This is the descent of `search.descend` over the one floor
    t: with `warm_start` the solver begins from the backbone flow of
    value k - t on a `Chain` and needs at most t augmentations; without
    it the flow starts from zero.
    """
    from .search import descend  # search builds on this module
    return descend(intervals, k, t, "exact-tailored" if warm_start else "exact-generic",
                   {"flow_solves": 0, "augmentations": 0, "native_flow": 0}, warm_start)

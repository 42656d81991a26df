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
set, by `covprune_network` (`_flow.c`, loaded by `_native`); it holds no
capacity or head: each follows from the arc's index and (k, t), or lo and hi.
`max_flow_augmenting` takes a flow, one int64 per arc, and augments it at
(k, t) along depth-first paths that try the farthest-reaching arc first,
by `covprune_max_flow`; its flow on the interval arcs, by chain place, is
the witness's keep column.  `decide` runs the exact search
(`search.descend`) at its one floor t.
"""

from array import array
from collections import namedtuple

from . import _native
from ._native import zeros
from .intervals import IntervalSet
from .solution import Solution


class FlowNetwork(namedtuple("FlowNetwork", "nv num_backbone_arcs first adj lo hi")):
    """The reduction graph of one interval set, for any (k, t).

    Vertices are numbered along the chain source 0, the distinct
    endpoints 1..nv-2 in increasing order, sink nv-1.  Residual arc 2a
    runs along logical arc a and arc 2a+1 against it; logical arc j <
    `num_backbone_arcs` joins vertex j to vertex j+1, and the rest are
    the interval arcs in chain order, that of place p from lo[p] + 1 to
    hi[p] + 1: `lo` and `hi` are the profile's chain columns, uncopied.
    The arcs leaving vertex u are `adj[first[u]:first[u + 1]]`, by falling
    head, parallel arcs in construction order.  The arrays are read-only
    int64 buffers.  At (k, t) a backbone arc has capacity k at the two
    ends of the chain and k - t inside, and an interval arc 1.
    """

    __slots__ = ()

    @property
    def interval_arcs(self) -> memoryview:
        """The (start vertex, end vertex) of each interval by place, an n x
        2 view made on access from `lo` and `hi`."""
        pairs = array("q", [v + 1 for place in zip(self.lo, self.hi) for v in place])
        return memoryview(pairs).cast("B").cast("q", (len(pairs) // 2, 2))


class FlowAssignment(namedtuple("FlowAssignment", "backbone_flow interval_flow augmentations",
                                 defaults=(0,))):
    """An integral flow on a FlowNetwork, one int64 per logical arc (the
    interval arcs' by chain place), and the number of augmenting paths that
    made it.  Its columns view the live flow, which a later probe changes.
    At value k, `interval_flow` is the witness's keep column: 1 on the arc
    of each kept read, 0 elsewhere, as `score_subset` takes it."""

    __slots__ = ()

    @property
    def value(self) -> int:
        # all flow leaves the source through the first backbone arc
        return self.backbone_flow[0]


def build_network(intervals: IntervalSet) -> FlowNetwork:
    """Lay out the reduction network of S in arrays.

    The source and sink are symbolic rather than numeric coordinates, so
    instances starting at coordinate 0 need no underflow tricks.
    """
    if not len(intervals):
        raise ValueError("cannot build a network for an empty interval set")
    coords, lo, hi = intervals.compressed[:3]
    m, n = len(coords), len(lo)
    nv = m + 2  # coords plus the source 0 and the sink m + 1
    if len(hi) != n:
        raise ValueError("lo and hi differ in length")
    first, adj = zeros("q", nv + 1), zeros("q", 2 * (m + 1 + n))
    # it checks every read's span first: one off the chain raises ValueError
    _native.load_library().covprune_network(n, m, lo, hi, first, adj)
    return FlowNetwork(nv, m + 1, *(memoryview(a).toreadonly() for a in (first, adj, lo, hi)))


def max_flow_augmenting(net: FlowNetwork, k: int, t: int, flow) -> FlowAssignment:
    """Augment the feasible flow `flow` of the (k, t) network `net`, one
    int64 per logical arc in an `array.array`, to a maximum flow, in
    place, by depth-first augmenting paths.  The returned assignment
    records how many paths were needed, and views `flow` itself."""
    # parent_arc: the last search's marks, which no caller reads yet
    augmentations = _native.load_library().covprune_max_flow(
        net.nv, net.first, net.adj, net.lo, net.hi, k, t, flow, zeros("q", net.nv))
    nb, view = net.num_backbone_arcs, memoryview(flow).toreadonly()
    return FlowAssignment(view[:nb], view[nb:], augmentations)


def decide(intervals: IntervalSet, k: int, t: int,
           work: dict[str, int] | None = None) -> Solution | None:
    """Find a subset with maxcov <= k and mincov >= t over the span.

    Returns None when no such subset exists (a normal outcome, not an
    error).  This is the descent of `search.descend` over the one floor
    t: the solver begins from the backbone flow of value k - t and needs
    at most t augmentations.  It counts `flow_solves`, `augmentations`
    and `native_flow` (1 when a compiled flow ran) in `work`, a new dict
    unless one is given, which then holds them when the answer is None.
    """
    from .search import descend  # search builds on this module
    work = {} if work is None else work
    work.update(flow_solves=0, augmentations=0, native_flow=0)
    return descend(intervals, k, t, work)

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

`build_network`, `_Residual` and `max_flow_augmenting` are the Python
reference.  The exact solver runs on a `Chain` instead: the same
network with its adjacency built once per interval set and one flow
kept across probes at falling floors, augmented by the same loop
compiled (`_flow.c`, loaded by `_native`) when a C compiler is
available, and by the Python reference otherwise.  Both give the same
flow, witness and augmentation count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .approx import approx_prune
from .intervals import IntervalSet
from .solution import Solution, score_subset


@dataclass(frozen=True)
class FlowNetwork:
    """The reduction graph for one (S, k, t) instance.

    `coords` are the sorted distinct interval endpoints.  Vertices are
    numbered along the chain source, coords[0], ..., coords[-1], sink;
    backbone arc j joins vertex j to vertex j+1 and `backbone_caps[j]`
    is its capacity.  Interval arc i mirrors input interval i and always
    has capacity 1.
    """

    coords: tuple[int, ...]
    backbone_caps: tuple[int, ...]
    interval_arcs: tuple[tuple[int, int], ...]  # (start vertex, end vertex) per interval
    k: int
    t: int

    @property
    def num_vertices(self) -> int:
        # coords plus synthetic source and sink
        return len(self.coords) + 2

    @property
    def num_backbone_arcs(self) -> int:
        return len(self.backbone_caps)


@dataclass(frozen=True)
class FlowAssignment:
    """An integral flow on a FlowNetwork, one value per arc."""

    backbone_flow: tuple[int, ...]
    interval_flow: tuple[int, ...]
    augmentations: int = 0

    @property
    def value(self) -> int:
        # all flow leaves the source through the first backbone arc
        return self.backbone_flow[0] if self.backbone_flow else 0

    @property
    def kept(self) -> list[int]:
        """The witness: the intervals whose arcs carry flow."""
        return [i for i, f in enumerate(self.interval_flow) if f == 1]


def _check_floor(k: int, t: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= t <= k:
        raise ValueError(f"t must be in [0, k], got t={t} k={k}")


def build_network(intervals: IntervalSet, k: int, t: int) -> FlowNetwork:
    """Construct the reduction network for (S, k, t).

    The source and sink are symbolic rather than numeric coordinates, so
    instances starting at coordinate 0 need no underflow tricks.
    """
    _check_floor(k, t)
    if not len(intervals):
        raise ValueError("cannot build a network for an empty interval set")

    coords, lo, hi, _ = intervals.compressed
    m = len(coords)
    caps = [k - t] * (m + 1)
    caps[0] = caps[m] = k
    # vertex j + 1 is coords[j]; 0 is the source
    arcs = tuple(zip((lo + 1).tolist(), (hi + 1).tolist()))
    return FlowNetwork(tuple(coords.tolist()), tuple(caps), arcs, k, t)


def zero_flow(net: FlowNetwork) -> FlowAssignment:
    return FlowAssignment((0,) * net.num_backbone_arcs,
                          (0,) * len(net.interval_arcs))


def backbone_initial_flow(net: FlowNetwork) -> FlowAssignment:
    """The feasible warm-start flow of value k - t along the backbone.

    Interior backbone capacity is exactly k - t and the end arcs allow
    k >= k - t, so pushing k - t down the whole chain is always legal
    and leaves at most t units to find by augmentation.
    """
    f = net.k - net.t
    return FlowAssignment((f,) * net.num_backbone_arcs,
                          (0,) * len(net.interval_arcs))


class _Residual:
    """Adjacency-list residual graph with paired forward/reverse arcs.

    Arc 2a is the forward direction of logical arc a, arc 2a+1 its
    reverse; adjacency lists keep construction order (backbone arcs
    first, then interval arcs in input order) so path search and hence
    the extracted witness are deterministic.
    """

    def __init__(self, net: FlowNetwork, init: FlowAssignment):
        nv = net.num_vertices
        m = len(net.coords)
        self.net = net
        self.source = 0
        self.sink = nv - 1
        self.res: list[int] = []
        self.to: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(nv)]
        for j, cap in enumerate(net.backbone_caps):
            u = j
            v = j + 1 if j < m else self.sink
            self._add(u, v, cap, init.backbone_flow[j])
        for i, (u, v) in enumerate(net.interval_arcs):
            self._add(u, v, 1, init.interval_flow[i])

    def _add(self, u: int, v: int, cap: int, flow: int) -> None:
        if not 0 <= flow <= cap:
            raise ValueError(f"initial flow {flow} violates capacity {cap}")
        a = len(self.res)
        self.res.append(cap - flow)
        self.to.append(v)
        self.adj[u].append(a)
        self.res.append(flow)
        self.to.append(u)
        self.adj[v].append(a + 1)

    def bfs_augment(self) -> int:
        """One shortest augmenting path; returns the amount pushed (0 if none)."""
        res, to, adj = self.res, self.to, self.adj
        parent_arc = [-1] * len(adj)
        parent_arc[self.source] = -2
        queue = deque([self.source])
        found = False
        while queue and not found:
            u = queue.popleft()
            for a in adj[u]:
                v = to[a]
                if parent_arc[v] == -1 and res[a] > 0:
                    parent_arc[v] = a
                    if v == self.sink:
                        found = True
                        break
                    queue.append(v)
        if not found:
            return 0
        bottleneck = None
        v = self.sink
        while v != self.source:
            a = parent_arc[v]
            if bottleneck is None or res[a] < bottleneck:
                bottleneck = res[a]
            v = to[a ^ 1]
        v = self.sink
        while v != self.source:
            a = parent_arc[v]
            res[a] -= bottleneck
            res[a ^ 1] += bottleneck
            v = to[a ^ 1]
        return bottleneck

    def extract(self, augmentations: int) -> FlowAssignment:
        net = self.net
        nb = net.num_backbone_arcs
        backbone = tuple(self.res[2 * j + 1] for j in range(nb))
        interval = tuple(self.res[2 * (nb + i) + 1]
                         for i in range(len(net.interval_arcs)))
        return FlowAssignment(backbone, interval, augmentations)


def max_flow_augmenting(net: FlowNetwork, init: FlowAssignment) -> FlowAssignment:
    """Run breadth-first augmenting paths to a maximum flow.

    `init` must be feasible; it is not modified.  The returned
    assignment records how many augmenting paths were needed.
    """
    residual = _Residual(net, init)
    augmentations = 0
    while residual.bfs_augment() > 0:
        augmentations += 1
    return residual.extract(augmentations)


class Chain:
    """The reduction network of one interval set at cap k, built once and
    then probed at falling floors t, each probe augmenting the flow the
    last one left.

    A maximum flow at floor t stays feasible at any lower floor, since
    lowering t only raises the interior backbone capacities from k - t;
    the first probe starts from the backbone flow.  With the compiled
    library the network lives in arrays: residual arc 2a runs along
    logical arc a (backbone arcs first, then interval arcs in input
    order) and arc 2a+1 against it, and the arcs leaving vertex u are
    `adj[first[u]:first[u + 1]]`, in the order `_Residual` lists them.
    Without the library each probe runs the Python reference on a fresh
    `build_network`, started from the previous probe's flow.
    """

    def __init__(self, intervals: IntervalSet, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not len(intervals):
            raise ValueError("cannot build a network for an empty interval set")
        self.intervals, self.k = intervals, k
        self.t: int | None = None  # floor of the flow held, None before a probe
        self.flow: FlowAssignment | None = None
        self.first_t = self.augmentations = 0  # of the whole descent
        coords, lo, hi, _ = intervals.compressed
        m = len(coords)
        self.num_backbone_arcs = m + 1
        # imported on first use: the loader's own imports would slow every CLI start
        from ._native import load_library
        self.lib = load_library()
        self.native = int(self.lib is not None)
        if self.lib is None:
            return

        nv = m + 2  # coords plus the source 0 and the sink m + 1
        tail = np.concatenate((np.arange(m + 1), lo + 1))
        head = np.concatenate((np.arange(1, m + 2), hi + 1))
        origin = np.empty(2 * len(tail), np.int64)  # the vertex each arc leaves
        origin[0::2], origin[1::2] = tail, head
        to = np.empty_like(origin)
        to[0::2], to[1::2] = head, tail
        # stable, so each vertex lists its arcs in construction order
        adj = np.argsort(origin, kind="stable")
        first = np.concatenate(([0], np.cumsum(np.bincount(origin, minlength=nv))))
        if not (to.min() >= 0 and to.max() < nv and first[-1] == len(to)):
            raise ValueError("arc endpoint outside the chain network")
        self.nv = nv
        self.to, self.adj, self.first = to, adj, first
        self.parent_arc = np.empty(nv, np.int64)
        self.queue = np.empty(nv, np.int64)

    def max_flow(self, t: int) -> FlowAssignment:
        """The maximum flow of the (k, t) network, augmented from the flow
        of the previous, higher floor, or on the first call from the
        backbone flow of value k - t.  Its `augmentations` counts this
        call's paths; the flow equals what `max_flow_augmenting` returns
        from the same start."""
        _check_floor(self.k, t)
        if self.t is None:
            self.first_t = t
        elif t > self.t:
            raise ValueError(f"the floor may only fall: t={t} after t={self.t}")
        if self.lib is None:
            net = build_network(self.intervals, self.k, t)
            flow = max_flow_augmenting(net, self.flow or backbone_initial_flow(net))
        else:
            nb = self.num_backbone_arcs
            if self.t is None:
                self.res = res = np.zeros(len(self.to), np.int64)
                res[2 * nb::2] = 1  # interval arcs: capacity 1, no flow
                res[1:2 * nb:2] = self.k - t  # every backbone arc carries k - t
                res[0] = res[2 * nb - 2] = t  # the end arcs have k - (k - t) to spare
            else:
                self.res[2:2 * nb - 2:2] += self.t - t  # interior capacity rises
            augmentations = self.lib.covprune_max_flow(
                self.nv, 0, self.nv - 1, self.first, self.adj, self.to, self.res,
                self.parent_arc, self.queue)
            flow = FlowAssignment(tuple(self.res[1:2 * nb:2].tolist()),
                                  tuple(self.res[2 * nb + 1::2].tolist()), augmentations)
        self.t, self.flow = t, flow
        self.augmentations += flow.augmentations
        if self.augmentations > self.first_t:
            # the value starts at k - first_t and each path adds at least 1
            raise AssertionError(f"{self.augmentations} augmentations "
                                 f"from the warm start at t={self.first_t}")
        return flow


def decide(intervals: IntervalSet, k: int, t: int,
           warm_start: bool = True) -> Solution | None:
    """Find a subset with maxcov <= k and mincov >= t over the span.

    Returns None when no such subset exists (a normal outcome, not an
    error).  With `warm_start` an input already under the cap keeps every
    read, and otherwise the solver begins from the backbone flow of value
    k - t on a `Chain` and needs at most t augmentations; without it the
    Python reference flow starts from zero.  At t = 0 every subset under
    the cap qualifies, and the answer is approx's kept set, which keeps a
    read wherever the cap allows.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if t > k:
        # mincov <= maxcov <= k < t can never hold
        return None
    if not len(intervals):
        raise ValueError("cannot build a network for an empty interval set")
    method = "exact-tailored" if warm_start else "exact-generic"
    work = {"flow_solves": 0, "augmentations": 0, "native_flow": 0}
    cov = intervals.compressed[3]
    if warm_start and cov.max() <= k:
        # keeping every read is best, and k >= 2**63 stays out of int64 capacities
        return (score_subset(intervals, range(len(intervals)), method, work)
                if t <= cov.min() else None)
    if t == 0:
        # the warm start already saturates the backbone, so its witness is empty
        return score_subset(intervals, approx_prune(intervals, k).kept, method, work)
    if warm_start:
        chain = Chain(intervals, k)
        flow = chain.max_flow(t)
        native = chain.native
    else:
        net = build_network(intervals, k, t)
        flow = max_flow_augmenting(net, zero_flow(net))
        native = 0
    if flow.value < k:
        return None
    work.update(flow_solves=1, augmentations=flow.augmentations, native_flow=native)
    return score_subset(intervals, flow.kept, method, work)

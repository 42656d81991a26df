"""The compiled max-flow through `max_flow_augmenting` against its Python
reference `augment_python` on the same arrays, probe by probe from the
warm start and along a descent that keeps its flow; both called directly
on a path through every vertex and on the cut their last search leaves,
and the compiled one refused a network of one vertex, chain columns
shorter than its interval arcs, an arc, a head or an arc range out of
bounds, more paths than k, or a flow item outside [0, its arc's
capacity]."""

import random
from array import array

import numpy as np
import pytest

from covprune import IntervalSet, _native, build_network
from covprune.flow import max_flow_augmenting

from conftest import clipped_instance, iset, pairs_of, random_instance
from reference_kernels import arc_ends, augment_python

MAX_COORD = 2**64 - 1
# the compiled max-flow and its Python reference, called directly
KERNELS = ["c", "python"]


def kernel(name):
    return _native.load_library().covprune_max_flow if name == "c" else augment_python


def warm_flow(net, k, t):
    """The flow the exact search's first probe at floor t starts from:
    k - t on each backbone arc, none on the reads."""
    flow = np.zeros(len(net.adj) // 2, np.int64)
    flow[:net.num_backbone_arcs] = k - t
    return flow


def seeded_instances():
    rng = random.Random(3101)
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60)),
                            max_len=15)
        yield s, rng.randint(1, 6)
    for _ in range(30):  # deep everywhere, so high floors stay feasible
        yield clipped_instance(rng, rng.randint(20, 300), 200, 40), rng.randint(2, 30)
    for _ in range(50):  # piles of duplicates: parallel arcs
        base = pairs_of(random_instance(rng, rng.randint(1, 5), max_coord=20, max_len=8))
        yield iset([rng.choice(base) for _ in range(rng.randint(2, 30))]), rng.randint(1, 6)
    for _ in range(30):  # one segment
        start = rng.randrange(100)
        yield iset([(start, start + rng.randint(1, 5))] * rng.randint(1, 20)), \
            rng.randint(1, 6)
    for _ in range(20):  # coordinates beyond int64
        pairs = []
        for _ in range(rng.randint(1, 30)):
            start = MAX_COORD - rng.randint(1, 200)
            pairs.append((start, min(MAX_COORD, start + rng.randint(1, 60))))
        yield iset(pairs), rng.randint(1, 6)
    yield random_instance(rng, 20_000, max_coord=100_000, max_len=400), 30


def reference_descent(net, k, floors):
    """Each floor of a descent through `floors`, the flow after its probe
    and the probe's path count, by `augment_python` from the warm start;
    a lower floor needs no update, since only the capacities rise."""
    flow = None
    for t in floors:
        if flow is None:
            flow = warm_flow(net, k, t)
        yield t, flow, augment_python(net.nv, net.first, net.adj, net.lo, net.hi, k, t, flow,
                                      np.empty(net.nv, np.int64))


def same_flow(assignment, flow, augmentations) -> bool:
    """A `FlowAssignment` is the flow `flow`, arc for arc, found by as
    many paths."""
    nb = len(assignment.backbone_flow)
    return (np.array_equal(assignment.backbone_flow, flow[:nb])
            and np.array_equal(assignment.interval_flow, flow[nb:])
            and assignment.augmentations == augmentations)


def test_native_flow_matches_reference():
    probes = augmented = 0
    for s, k in seeded_instances():
        net = build_network(s)
        for t in range(k + 1):
            (_, flow, count), = reference_descent(net, k, [t])
            assert same_flow(max_flow_augmenting(net, k, t, array("q", warm_flow(net, k, t))),
                             flow, count)
            probes += 1
            augmented += count > 1
        # one descent k -> 0, the kernel and the reference each carrying its own flow
        held = array("q", warm_flow(net, k, k))
        for t, flow, count in reference_descent(net, k, range(k, -1, -1)):
            assert same_flow(max_flow_augmenting(net, k, t, held), flow, count)
            assert (np.asarray(held) == flow).all()
    assert probes > 2000 and augmented > 300


def test_chain_rejects_bad_probes():
    """k below 1, t outside [0, k] and a flow one item short raise
    ValueError before the kernel runs, the flow untouched; an empty set
    has no network."""
    net = build_network(iset([(0, 5), (2, 8)]))
    for k, t, short in ((3, -1, 0), (3, 4, 0), (0, 0, 0), (-1, 0, 0), (3, 1, 1)):
        flow = array("q", [1]) * (len(net.adj) // 2 - short)
        with pytest.raises(ValueError, match="count out of range"):
            max_flow_augmenting(net, k, t, flow)
        assert flow.tolist() == [1] * (len(net.adj) // 2 - short)
    with pytest.raises(ValueError):
        build_network(IntervalSet())


def residuals(net, k, t, flow):
    """Each residual arc's capacity, from the capacities of the (k, t)
    network written out: k on the two end backbone arcs, k - t inside,
    1 on each read's arc; arc 2a has what logical arc a has left, arc
    2a + 1 its flow."""
    nb = net.num_backbone_arcs
    cap = np.ones(len(flow), np.int64)
    cap[:nb] = k - t
    cap[0] = cap[nb - 1] = k
    res = np.empty(2 * len(flow), np.int64)
    res[0::2], res[1::2] = cap - flow, flow
    return res


@pytest.mark.parametrize("backend", KERNELS)
def test_a_path_through_every_vertex(backend):
    """Two copies of a tiling by 50,000 unit reads at k = t = 1: the warm
    start leaves the interior backbone no capacity, so the one augmenting
    path runs through all nv vertices, far deeper than Python's recursion
    limit.  The search's stack, the module's own, fills its nv entries
    exactly (the sanitizer child checks its bounds); parent_arc stays
    within its nv, and the final search reaches the source alone."""
    starts = np.tile(np.arange(50_000, dtype=np.uint64), 2)
    s = IntervalSet(starts, starts + 1)
    net = build_network(s)
    flow = warm_flow(net, 1, 1)
    guarded = np.full(net.nv + 1, -7, np.int64)  # a guard entry after parent_arc
    assert kernel(backend)(net.nv, net.first, net.adj, net.lo, net.hi, 1, 1, flow,
                           guarded[:net.nv]) == 1
    assert guarded[-1] == -7 and np.flatnonzero(guarded[:net.nv] != -1).tolist() == [0]
    kept = np.asarray(s.compressed.order)[np.flatnonzero(flow[net.num_backbone_arcs:])]
    assert sorted(starts[kept].tolist()) == list(range(50_000))  # one read per segment


@pytest.mark.parametrize("backend", KERNELS)
def test_the_last_search_marks_the_residual_reach(backend):
    """After the maximum flow, `parent_arc` holds the last, failing
    search's marks: the vertices the source reaches in the residual, a
    minimum cut, found here again by networkx."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(3103)
    infeasible = 0
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60)))
        k = rng.randint(1, 6)
        t = rng.randint(1, k)
        net = build_network(s)
        flow = warm_flow(net, k, t)
        parent_arc = np.empty(net.nv, np.int64)
        kernel(backend)(net.nv, net.first, net.adj, net.lo, net.hi, k, t, flow, parent_arc)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(net.nv))
        live = np.flatnonzero(residuals(net, k, t, flow) > 0)
        tails, heads = arc_ends(net.nv - 2, net.lo, net.hi)
        graph.add_edges_from(zip(tails[live].tolist(), heads[live].tolist()))
        reach = nx.descendants(graph, 0) | {0}
        assert set(np.flatnonzero(parent_arc != -1).tolist()) == reach
        assert net.nv - 1 not in reach
        infeasible += flow[0] < k  # the flow on the source's arc is the value
    assert infeasible > 50


def test_the_flow_runs_between_two_vertices():
    """The source is vertex 0 and the sink vertex nv - 1.  At nv = 1 they
    would be one vertex, found at once, and the path's last arc would be
    read from the item before `flow`, here 5: the module refuses nv = 1
    before the kernel runs.  At nv = 2 without an arc no path exists, and
    the source alone is marked."""
    lib = _native.load_library()
    backing = array("q", [5, 7])
    flow = memoryview(backing)[1:]
    parent_arc = array("q", [-9])
    with pytest.raises(ValueError, match="count out of range"):
        lib.covprune_max_flow(1, array("q", [0, 0]), array("q"), array("q"), array("q"), 9, 0,
                              flow, parent_arc)
    assert backing.tolist() == [5, 7] and parent_arc.tolist() == [-9]
    parent_arc = array("q", [-9, -9])
    assert lib.covprune_max_flow(2, array("q", [0, 0, 0]), array("q"), array("q"), array("q"),
                                 1, 0, array("q"), parent_arc) == 0
    assert parent_arc.tolist() == [-2, -1]


@pytest.mark.parametrize("first, adj, lo, hi", [
    ([0, 2, 4], [2, 0, 3, 1], [-1], [1]),
    ([0, 2, 4], [2, 0, 3, 1], [-1], [-2]),
    ([0, 2, 4], [3, 0, 2, 1], [1], [0]),
    ([0, 2, 4], [3, 0, 2, 1], [-2], [0]),
    ([2, 0, 2], [0, 1], [], []),
    ([-1, 2, 2], [0, 1], [], []),
    ([0, 3, 2], [1, 1], [], []),
    ([0, 2, 2], [2, 0], [], []),
    ([0, 2, 2], [-1, 0], [], []),
], ids=["head-past-nv", "head-negative", "lo-head-past-nv", "lo-head-negative", "first-falls",
        "first-negative", "range-past-arcs", "arc-past-arcs", "arc-negative"])
def test_the_search_checks_what_it_follows(first, adj, lo, hi):
    """Buffers of the sizes the rule asks, nv = 2 and k = 1, whose
    indices do not hold a network: the search refuses a place whose `hi`
    or `lo` puts its arc's head at or past nv or below 0, which it would
    mark past `parent_arc`'s two entries (here into a guard behind them),
    and an arc range or an arc outside `adj`.  The lo cases list the
    read's reverse arc under the source, so that the search follows it."""
    backing = array("q", [-9]) * 8
    with pytest.raises(ValueError, match="out of bounds"):
        _native.load_library().covprune_max_flow(
            2, array("q", first), array("q", adj), array("q", lo), array("q", hi), 1, 0,
            array("q", [0]) * (first[-1] // 2), memoryview(backing)[:2])
    assert backing[2:].tolist() == [-9] * 6


@pytest.mark.parametrize("lo, hi", [([], [0]), ([-1], [])], ids=["lo-short", "hi-short"])
def test_the_chain_columns_hold_every_interval_arc(lo, hi):
    """nv = 2 and first[nv] = 4: one backbone arc and one interval arc,
    whose place 0 `lo` or `hi` lacks; the rule refuses the call before
    the search reads past the column, `parent_arc`'s guard untouched."""
    backing = array("q", [-9]) * 8
    with pytest.raises(ValueError, match="shorter than the counts imply"):
        _native.load_library().covprune_max_flow(
            2, array("q", [0, 2, 4]), array("q", [2, 0, 3, 1]), array("q", lo), array("q", hi),
            1, 0, array("q", [0, 0]), memoryview(backing)[:2])
    assert backing.tolist() == [-9] * 8


def test_the_path_cap_ends_a_search_that_gains_nothing():
    """An `adj` that lists an arc under a vertex other than its tail: on
    three vertices, vertex 0 lists arc 3, backbone arc 1 run backwards
    (head 1), and vertex 1 lists arc 2, the same arc forwards (head 2,
    the sink).  Each path cancels on arc 3 what it pushes on arc 2, so
    the flow never changes and the sink stays in reach: the search stops
    after k paths and refuses the call, the guard untouched."""
    backing, flow = array("q", [-9]) * 8, array("q", [0, 1])
    with pytest.raises(ValueError, match="out of bounds"):
        _native.load_library().covprune_max_flow(
            3, array("q", [0, 1, 4, 4]), array("q", [3, 2, 0, 1]), array("q"), array("q"), 2, 0,
            flow, memoryview(backing)[:3])
    assert backing[3:].tolist() == [-9] * 5 and flow.tolist() == [0, 1]


@pytest.mark.parametrize("nv, first, adj, lo, hi, flow", [
    (2, [0, 1, 2], [0, 1], [], [], [-2**63]),
    (2, [0, 1, 2], [0, 1], [], [], [4]),
    (2, [0, 2, 4], [0, 2, 1, 3], [-1], [0], [0, 2]),
    (2, [0, 2, 4], [0, 2, 1, 3], [-1], [0], [0, -1]),
    (4, [0, 1, 3, 5, 6], [0, 2, 1, 4, 3, 5], [], [], [0, 3, 0]),
], ids=["far-below-0", "end-arc-above-k", "read-above-1", "read-below-0", "inside-above-k-t"])
def test_the_kernel_checks_the_flow_it_is_given(nv, first, adj, lo, hi, flow):
    """At k = 3 and t = 1 a flow item outside [0, its arc's capacity] (k
    on the two end backbone arcs, k - t inside, 1 on a read's arc) is
    refused before the search runs, every buffer untouched: far below 0,
    `capacity - flow` would overflow."""
    flow, parent_arc = array("q", flow), array("q", [-9]) * nv
    before = [flow.tolist(), parent_arc.tolist()]
    with pytest.raises(ValueError, match="out of bounds"):
        _native.load_library().covprune_max_flow(nv, array("q", first), array("q", adj),
                                                 array("q", lo), array("q", hi), 3, 1, flow,
                                                 parent_arc)
    assert [flow.tolist(), parent_arc.tolist()] == before

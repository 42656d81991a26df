"""The compiled max-flow on a `Chain` against its Python reference
`augment_python` on the same arrays, probe by probe from the warm start
and along a descent that keeps its flow; both called directly on a path
through every vertex and on the cut their last search leaves."""

import random

import numpy as np
import pytest

from covprune import IntervalSet, _native, build_network
from covprune.flow import Chain

from conftest import clipped_instance, iset, random_instance
from reference_kernels import augment_python

MAX_COORD = 2**64 - 1
# the compiled max-flow and its Python reference, called directly
KERNELS = ["c", "python"]


def kernel(name):
    return _native.load_library().covprune_max_flow if name == "c" else augment_python


def warm_residual(net, k, t):
    """The residual a `Chain`'s first probe at floor t starts from."""
    nb = net.num_backbone_arcs
    res = np.zeros(len(net.to), np.int64)
    res[2 * nb::2] = 1
    res[1:2 * nb:2] = k - t
    res[0] = res[2 * nb - 2] = t
    return res


def seeded_instances():
    rng = random.Random(3101)
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60)),
                            max_len=15)
        yield s, rng.randint(1, 6)
    for _ in range(30):  # deep everywhere, so high floors stay feasible
        yield clipped_instance(rng, rng.randint(20, 300), 200, 40), rng.randint(2, 30)
    for _ in range(50):  # piles of duplicates: parallel arcs
        base = random_instance(rng, rng.randint(1, 5), max_coord=20, max_len=8).items
        yield IntervalSet(tuple(rng.choice(base) for _ in range(rng.randint(2, 30)))), \
            rng.randint(1, 6)
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
    """Each floor of a descent through `floors`, the residual after its
    probe and the probe's path count, by `augment_python` from the warm
    start."""
    nb = net.num_backbone_arcs
    res = last = None
    for t in floors:
        if res is None:
            res = warm_residual(net, k, t)
        else:
            res[2:2 * nb - 2:2] += last - t  # interior capacity rises
        last = t
        yield t, res, augment_python(net.nv, 0, net.nv - 1, net.first, net.adj, net.to, res,
                                     *np.empty((3, net.nv), np.int64))


def same_flow(flow, res, augmentations) -> bool:
    """A `FlowAssignment` is the flow of the residual `res`, arc for arc,
    found by as many paths."""
    nb = len(flow.backbone_flow)
    return (np.array_equal(flow.backbone_flow, res[1:2 * nb:2])
            and np.array_equal(flow.interval_flow, res[2 * nb + 1::2])
            and flow.augmentations == augmentations)


def test_native_flow_matches_reference():
    probes = augmented = 0
    for s, k in seeded_instances():
        for t in range(k + 1):
            chain = Chain(s, k)
            (_, res, count), = reference_descent(chain.net, k, [t])
            assert same_flow(chain.max_flow(t), res, count)
            probes += 1
            augmented += count > 1
        # one descent k -> 0, the chain and the reference each carrying its own flow
        chain = Chain(s, k)
        for t, res, count in reference_descent(chain.net, k, range(k, -1, -1)):
            assert same_flow(chain.max_flow(t), res, count)
            assert (chain.res == res).all()
    assert probes > 2000 and augmented > 300


def test_chain_rejects_bad_probes():
    s = iset([(0, 5), (2, 8)])
    chain = Chain(s, 3)
    for t in (-1, 4):
        with pytest.raises(ValueError):
            chain.max_flow(t)
    chain.max_flow(1)
    with pytest.raises(ValueError):
        chain.max_flow(2)  # the floor may only fall
    for k in (0, -1):
        with pytest.raises(ValueError):
            Chain(s, k)
    with pytest.raises(ValueError):
        Chain(IntervalSet(()), 3)


@pytest.mark.parametrize("backend", KERNELS)
def test_a_path_through_every_vertex(backend):
    """Two copies of a tiling by 50,000 unit reads at k = t = 1: the warm
    start leaves the interior backbone no capacity, so the one augmenting
    path runs through all nv vertices, far deeper than Python's recursion
    limit.  The compiled search's stack fills its nv entries exactly."""
    starts = np.tile(np.arange(50_000, dtype=np.uint64), 2)
    net = build_network(IntervalSet.from_arrays(starts, starts + 1))
    res = warm_residual(net, 1, 1)
    scratch = np.full((3, net.nv + 1), -7, np.int64)  # a guard entry after each row
    parent_arc, stack, next_arc = (row[:net.nv] for row in scratch)
    assert kernel(backend)(net.nv, 0, net.nv - 1, net.first, net.adj, net.to, res,
                           parent_arc, stack, next_arc) == 1
    assert (scratch[:, -1] == -7).all()
    if backend == "c":  # the reference reads its stack from a list
        assert stack.tolist() == list(range(net.nv))  # the path, source to sink
    kept = np.flatnonzero(res[2 * net.num_backbone_arcs + 1::2])
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
        net = build_network(s)
        res = warm_residual(net, k, rng.randint(1, k))
        parent_arc, stack, next_arc = np.empty((3, net.nv), np.int64)
        kernel(backend)(net.nv, 0, net.nv - 1, net.first, net.adj, net.to, res,
                        parent_arc, stack, next_arc)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(net.nv))
        live = np.flatnonzero(res > 0)  # residual arc a runs from to[a ^ 1] to to[a]
        graph.add_edges_from(zip(net.to[live ^ 1].tolist(), net.to[live].tolist()))
        reach = nx.descendants(graph, 0) | {0}
        assert set(np.flatnonzero(parent_arc != -1).tolist()) == reach
        assert net.nv - 1 not in reach
        infeasible += res[1] < k  # the flow on the source's arc is the value
    assert infeasible > 50

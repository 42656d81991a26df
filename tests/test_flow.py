import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings

from covprune import IntervalSet, build_network, decide, solve_exact
from covprune import flow
from covprune.flow import FlowAssignment, max_flow_augmenting

from conftest import (clipped_instance, iset, maxcov, mincov_over, pairs_of, random_instance,
                      interval_pairs, subset)
from reference_kernels import arc_ends, cold_decide, cold_max_flow, residual, warm_max_flow


def assert_valid_flow(s, k, t, fa):
    """Capacity and conservation checks straight from the definitions of
    the (k, t) network of `s`, whose interval arcs follow the chain."""
    pairs = pairs_of(s)
    chain = [pairs[i] for i in s.compressed.order]  # the (start, end) at each place
    coords = sorted({c for pair in pairs for c in pair})
    vertex = {c: j + 1 for j, c in enumerate(coords)}
    m = len(coords)
    assert len(fa.backbone_flow) == m + 1 and len(fa.interval_flow) == len(s)
    for j, f in enumerate(fa.backbone_flow):
        assert 0 <= f <= (k if j in (0, m) else k - t)
    for i, f in enumerate(fa.interval_flow):
        assert f in (0, 1)
    for v in range(1, m + 1):  # interior chain vertices
        inflow = fa.backbone_flow[v - 1]
        outflow = fa.backbone_flow[v]
        for (start, end), f in zip(chain, fa.interval_flow):
            if vertex[end] == v:
                inflow += f
            if vertex[start] == v:
                outflow += f
        assert inflow == outflow, f"conservation broken at vertex {v}"


def capacities(s, k, t):
    """The capacity of each arc of the (k, t) network of `s` by the
    reference's residual rule, its forward residual at zero flow, as
    (backbone arcs, interval arcs)."""
    net = build_network(s)
    zero = [0] * (len(net.adj) // 2)
    caps = [residual(2 * a, net.nv, k, t, zero) for a in range(len(zero))]
    return caps[:net.num_backbone_arcs], caps[net.num_backbone_arcs:]


def first_probe(monkeypatch, run):
    """The floor of the first probe `run()` makes and the flow it starts
    from on the backbone arcs and on the interval arcs, read off what it
    hands to `max_flow_augmenting`."""
    starts = []
    augment = flow.max_flow_augmenting

    def spy(net, k_, t_, held):
        starts.append((t_, held[:net.num_backbone_arcs].tolist(),
                       held[net.num_backbone_arcs:].tolist()))
        return augment(net, k_, t_, held)

    with monkeypatch.context() as m:
        m.setattr(flow, "max_flow_augmenting", spy)
        run()
    return starts[0]


def test_build_network_demo(demo):
    net = build_network(demo)
    assert net.nv == 10  # the 8 distinct endpoints, source and sink
    assert net.num_backbone_arcs == 9
    # one unit arc per interval, start vertex -> end vertex (chain ids), in
    # the chain order B, A, D, E, C, F
    assert net.interval_arcs.tolist() == [[1, 3], [1, 7], [2, 4], [2, 8], [3, 6], [5, 8]]
    # vertex 1 (coordinate 0) lists its arcs by falling head: A (to 7,
    # place 1), B (to 3, place 0), then its backbone arcs to 2 and back to 0
    assert net.adj[net.first[1]:net.first[2]].tolist() == [20, 18, 2, 1]
    assert net.first[-1] == len(net.adj) == 2 * (9 + 6)


@given(interval_pairs)
@settings(max_examples=100)
def test_build_network_lists_arcs_by_falling_head(pairs):
    net = build_network(iset(pairs))
    origin, reach = arc_ends(net.nv - 2, net.lo, net.hi)
    for u in range(net.nv):
        arcs = np.asarray(net.adj[net.first[u]:net.first[u + 1]])
        assert (origin[arcs] == u).all()  # each arc leaves u
        heads = np.diff(reach[arcs])
        assert (heads <= 0).all()
        assert (np.diff(arcs)[heads == 0] > 0).all()  # parallel arcs in construction order


def test_build_network_zero_interior_capacity():
    s = iset([(0, 5)])
    assert build_network(s).interval_arcs.tolist() == [[1, 2]]
    assert capacities(s, k=1, t=1) == ([1, 0, 1], [1])
    # the one flow of value 1 takes the read around the closed interior
    result = cold_max_flow(s, 1, 1)
    assert (result.backbone_flow.tolist(), result.interval_flow.tolist()) == ([1, 0, 1], [1])


def test_build_network_t_equals_k(demo):
    assert capacities(demo, k=3, t=3) == ([3, 0, 0, 0, 0, 0, 0, 0, 3], [1] * 6)
    assert_valid_flow(demo, 3, 3, cold_max_flow(demo, 3, 3))


def test_build_network_rejects_bad_instances(demo):
    net = build_network(demo)
    for k, t in ((3, 4), (3, -1), (0, 0)):
        with pytest.raises(ValueError):
            max_flow_augmenting(net, k, t, array("q", [0]) * (len(net.adj) // 2))
    with pytest.raises(ValueError):
        build_network(IntervalSet())


def test_backbone_initial_flow(monkeypatch, demo):
    # capacities k at the ends and k - t inside
    assert capacities(demo, k=3, t=1) == ([3, 2, 2, 2, 2, 2, 2, 2, 3], [1] * 6)
    # the search starts from the backbone flow k - t at its first floor
    assert first_probe(monkeypatch, lambda: decide(demo, 3, 1)) == (1, [2] * 9, [0] * 6)
    assert_valid_flow(demo, 3, 1, FlowAssignment([2] * 9, [0] * 6))
    # nothing at t = k: the bound min(k, mincov) is k = 2 here
    assert first_probe(monkeypatch, lambda: solve_exact(demo, 2)) == (2, [0] * 9, [0] * 6)


def test_backbone_flow_at_t0_is_already_maximum(demo):
    net = build_network(demo)
    result = max_flow_augmenting(net, 3, 0, array("q", [3]) * 9 + array("q", [0]) * 6)
    assert result.value == 3
    assert result.augmentations == 0


def test_max_flow_demo_cold(demo):
    result = cold_max_flow(demo, 3, 1)
    assert result.value == 3
    assert_valid_flow(demo, 3, 1, result)


def test_max_flow_demo_warm_single_augmentation(demo):
    result = warm_max_flow(demo, 3, 1)
    assert result.value == 3
    assert result.augmentations == 1
    assert_valid_flow(demo, 3, 1, result)
    assert decide(demo, 3, 1).work["augmentations"] == 1


def test_decide_demo_feasible(demo):
    sol = decide(demo, k=3, t=1)
    assert sol is not None
    assert sol.achieved_maxcov <= 3
    assert sol.achieved_mincov >= 1
    # independently recheck the witness with a coverage sweep
    sub = subset(demo, sol.kept)
    assert maxcov(sub) <= 3
    assert mincov_over(sub, 0, 10) >= 1


def test_removing_long_read_is_a_valid_witness(demo):
    # dropping only A=[0,8) satisfies k=3, t=1
    sub = subset(demo, [1, 2, 3, 4, 5])
    assert maxcov(sub) <= 3
    assert mincov_over(sub, 0, 10) >= 1


def test_decide_demo_t3_infeasible(demo):
    # the point 0 is covered by just two reads, so t=3 can never hold
    assert decide(demo, k=3, t=3) is None


def test_decide_t_above_k_infeasible(demo):
    assert decide(demo, k=3, t=4) is None


def test_decide_under_the_cap_keeps_every_read_at_huge_k():
    # k = 2**63 is beyond the int64 flow; an input under the cap never
    # reaches the flow
    s = iset([(0, 5), (0, 5), (2, 7)])
    sol = decide(s, 2**63, 1)
    assert (sol.kept.tolist(), sol.achieved_mincov, sol.achieved_maxcov) == ([0, 1, 2], 1, 3)
    assert sol.work["flow_solves"] == 0
    assert decide(s, 2**63, 2) is None


def test_decide_rejects_bad_k(demo):
    with pytest.raises(ValueError):
        decide(demo, k=0, t=0)
    # an empty set holds every floor, even one above the cap
    for t in (0, 1, 2):
        sol = decide(IntervalSet(), k=1, t=t)
        assert (sol.kept.tolist(), sol.achieved_mincov, sol.method) == ([], 0, "exact-tailored")
        assert sol.work == {"flow_solves": 0, "augmentations": 0, "native_flow": 0}


def test_decide_witnesses_verify_by_sweep():
    rng = random.Random(17)
    feasible_seen = 0
    for _ in range(120):
        s = random_instance(rng, rng.randint(1, 20))
        k = rng.randint(1, 5)
        t = rng.randint(0, k)
        start, end = s.span
        for decide_at in (cold_decide, decide):
            sol = decide_at(s, k, t)
            if sol is None:
                continue
            feasible_seen += 1
            sub = subset(s, sol.kept)
            assert maxcov(sub) <= k
            if t > 0:
                assert mincov_over(sub, start, end) >= t
    assert feasible_seen > 50


def test_decide_deterministic(demo):
    a = decide(demo, k=3, t=1)
    b = decide(demo, k=3, t=1)
    assert a.kept == b.kept


def test_duplicate_intervals_become_parallel_arcs():
    s = iset([(0, 5), (0, 5), (0, 5)])
    assert build_network(s).interval_arcs.tolist() == [[1, 2]] * 3
    sol = decide(s, k=2, t=2)
    assert sol is not None
    assert len(sol.kept) == 2  # exactly two of the three copies survive
    assert sol.achieved_mincov == 2


@given(interval_pairs)
@settings(max_examples=60)
def test_decide_t0_always_feasible(pairs):
    sol = decide(iset(pairs), k=2, t=0)
    assert sol is not None
    assert sol.achieved_maxcov <= 2


def test_warm_and_cold_agree_on_value():
    rng = random.Random(7)
    for _ in range(150):
        s = random_instance(rng, rng.randint(1, 18))
        k = rng.randint(1, 5)
        t = rng.randint(0, k)
        cold = cold_max_flow(s, k, t)
        warm = warm_max_flow(s, k, t)
        assert cold.value == warm.value
        assert warm.augmentations <= t
        assert cold.augmentations <= k
        assert_valid_flow(s, k, t, cold)
        assert_valid_flow(s, k, t, warm)


def test_coverage_identity_on_extracted_witness():
    # interior backbone arc flow is k minus the kept coverage of its segment
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 16))
        k = rng.randint(1, 5)
        t = rng.randint(0, k)
        fa = warm_max_flow(s, k, t)
        if fa.value < k:
            continue
        sub = subset(s, [i for i, f in zip(s.compressed.order, fa.interval_flow) if f == 1])
        coords = s.compressed[0].tolist()
        for j in range(1, len(coords)):
            p = coords[j - 1]  # any point of segment j works: coverage is constant
            cov = sum(1 for start, end in pairs_of(sub) if start <= p < end)
            assert cov == k - fa.backbone_flow[j]
            checked += 1
    assert checked > 100


def test_feasibility_monotone_in_t():
    rng = random.Random(13)
    for _ in range(80):
        s = random_instance(rng, rng.randint(1, 14))
        k = rng.randint(1, 4)
        outcomes = [decide(s, k, t) is not None for t in range(k + 1)]
        # feasible t values must form a prefix
        assert outcomes == sorted(outcomes, reverse=True)


def scipy_max_flow_value(s: IntervalSet, k: int, t: int) -> int:
    """The (k, t) network's max-flow value by scipy, on a graph built here
    from the intervals: parallel arcs merge into one of summed capacity."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    coords = sorted({c for pair in pairs_of(s) for c in pair})
    vertex = {c: j + 1 for j, c in enumerate(coords)}
    sink = len(coords) + 1
    caps = {}
    for j in range(sink):
        caps[j, j + 1] = k if j in (0, sink - 1) else k - t
    for start, end in pairs_of(s):
        arc = (vertex[start], vertex[end])
        caps[arc] = caps.get(arc, 0) + 1
    rows, cols = zip(*caps)
    graph = csr_matrix((list(caps.values()), (rows, cols)), shape=(sink + 1, sink + 1),
                       dtype=np.int32)
    return maximum_flow(graph, 0, sink).flow_value


def test_kept_flow_matches_scipy_along_the_descent():
    rng = random.Random(17)
    instances = [(random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60))),
                  rng.randint(1, 6)) for _ in range(80)]
    instances += [(clipped_instance(rng, rng.randint(20, 300), 200, 40), rng.randint(2, 20))
                  for _ in range(20)]
    probes = 0
    for s, k in instances:
        # one flow carried down, from the start at t = k: no flow at all
        net, t = build_network(s), k
        held = array("q", [0]) * (len(net.adj) // 2)
        while t >= 0:
            fa = max_flow_augmenting(net, k, t, held)
            assert fa.value == scipy_max_flow_value(s, k, t)
            assert_valid_flow(s, k, t, fa)
            probes += 1
            t -= rng.randint(1, 3)  # the floor may fall by more than one
    assert probes > 250

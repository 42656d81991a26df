import random

import numpy as np
import pytest
from hypothesis import given, settings

from covprune import (IntervalSet, build_network, backbone_initial_flow,
                      zero_flow, max_flow_augmenting, decide,
                      coverage_profile, mincov_over, maxcov)
from covprune.flow import Chain

from conftest import clipped_instance, iset, random_instance, interval_pairs


def assert_valid_flow(net, fa):
    """Capacity and conservation checks straight from the definitions."""
    m = len(net.coords)
    for j, f in enumerate(fa.backbone_flow):
        assert 0 <= f <= net.backbone_caps[j]
    for i, f in enumerate(fa.interval_flow):
        assert f in (0, 1)
    for v in range(1, m + 1):  # interior chain vertices
        inflow = fa.backbone_flow[v - 1]
        outflow = fa.backbone_flow[v]
        for i, (u, w) in enumerate(net.interval_arcs):
            if w == v:
                inflow += fa.interval_flow[i]
            if u == v:
                outflow += fa.interval_flow[i]
        assert inflow == outflow, f"conservation broken at vertex {v}"


def test_build_network_demo(demo):
    net = build_network(demo, k=3, t=1)
    assert net.coords == (0, 1, 2, 3, 4, 6, 8, 10)
    assert net.num_vertices == 10
    assert net.backbone_caps == (3, 2, 2, 2, 2, 2, 2, 2, 3)
    # one unit arc per interval, start vertex -> end vertex (chain ids)
    assert net.interval_arcs == ((1, 7), (1, 3), (3, 6), (2, 4), (2, 8), (5, 8))


def test_build_network_zero_interior_capacity():
    net = build_network(iset([(0, 5)]), k=1, t=1)
    assert net.backbone_caps == (1, 0, 1)
    assert net.interval_arcs == ((1, 2),)


def test_build_network_t_equals_k(demo):
    net = build_network(demo, k=3, t=3)
    assert net.backbone_caps == (3, 0, 0, 0, 0, 0, 0, 0, 3)


def test_build_network_rejects_bad_instances(demo):
    with pytest.raises(ValueError):
        build_network(demo, k=3, t=4)
    with pytest.raises(ValueError):
        build_network(demo, k=3, t=-1)
    with pytest.raises(ValueError):
        build_network(demo, k=0, t=0)
    with pytest.raises(ValueError):
        build_network(IntervalSet(()), k=3, t=1)


def test_backbone_initial_flow(demo):
    net = build_network(demo, k=3, t=1)
    fa = backbone_initial_flow(net)
    assert fa.value == 2
    assert fa.backbone_flow == (2,) * 9
    assert fa.interval_flow == (0,) * 6
    assert_valid_flow(net, fa)

    assert backbone_initial_flow(build_network(demo, 3, 3)).value == 0
    full = backbone_initial_flow(build_network(demo, 3, 0))
    assert full.value == 3


def test_backbone_flow_at_t0_is_already_maximum(demo):
    net = build_network(demo, k=3, t=0)
    result = max_flow_augmenting(net, backbone_initial_flow(net))
    assert result.value == 3
    assert result.augmentations == 0


def test_max_flow_demo_cold(demo):
    net = build_network(demo, k=3, t=1)
    result = max_flow_augmenting(net, zero_flow(net))
    assert result.value == 3
    assert_valid_flow(net, result)


def test_max_flow_demo_warm_single_augmentation(demo):
    net = build_network(demo, k=3, t=1)
    result = max_flow_augmenting(net, backbone_initial_flow(net))
    assert result.value == 3
    assert result.augmentations == 1
    assert_valid_flow(net, result)


def test_decide_demo_feasible(demo):
    sol = decide(demo, k=3, t=1)
    assert sol is not None
    assert sol.achieved_maxcov <= 3
    assert sol.achieved_mincov >= 1
    # independently recheck the witness with a coverage sweep
    sub = demo.subset(sol.kept)
    assert maxcov(sub) <= 3
    assert mincov_over(sub, 0, 10) >= 1


def test_removing_long_read_is_a_valid_witness(demo):
    # dropping only A=[0,8) satisfies k=3, t=1
    sub = demo.subset([1, 2, 3, 4, 5])
    assert maxcov(sub) <= 3
    assert mincov_over(sub, 0, 10) >= 1


def test_decide_demo_t3_infeasible(demo):
    # the point 0 is covered by just two reads, so t=3 can never hold
    assert decide(demo, k=3, t=3) is None


def test_decide_t_above_k_infeasible(demo):
    assert decide(demo, k=3, t=4) is None


def test_decide_rejects_bad_k(demo):
    with pytest.raises(ValueError):
        decide(demo, k=0, t=0)
    with pytest.raises(ValueError):
        decide(IntervalSet(()), k=1, t=0)


def test_decide_witnesses_verify_by_sweep():
    rng = random.Random(17)
    feasible_seen = 0
    for _ in range(120):
        s = random_instance(rng, rng.randint(1, 20))
        k = rng.randint(1, 5)
        t = rng.randint(0, k)
        span = s.span
        for warm in (False, True):
            sol = decide(s, k, t, warm_start=warm)
            if sol is None:
                continue
            feasible_seen += 1
            sub = s.subset(sol.kept)
            assert maxcov(sub) <= k
            if t > 0:
                assert mincov_over(sub, span.start, span.end) >= t
    assert feasible_seen > 50


def test_decide_deterministic(demo):
    a = decide(demo, k=3, t=1)
    b = decide(demo, k=3, t=1)
    assert a.kept == b.kept


def test_duplicate_intervals_become_parallel_arcs():
    s = iset([(0, 5), (0, 5), (0, 5)])
    net = build_network(s, k=2, t=2)
    assert net.interval_arcs == ((1, 2), (1, 2), (1, 2))
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
        net = build_network(s, k, t)
        cold = max_flow_augmenting(net, zero_flow(net))
        warm = max_flow_augmenting(net, backbone_initial_flow(net))
        assert cold.value == warm.value
        assert warm.augmentations <= t
        assert_valid_flow(net, cold)
        assert_valid_flow(net, warm)


def test_coverage_identity_on_extracted_witness():
    # interior backbone arc flow is k minus the kept coverage of its segment
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 16))
        k = rng.randint(1, 5)
        t = rng.randint(0, k)
        net = build_network(s, k, t)
        fa = max_flow_augmenting(net, backbone_initial_flow(net))
        if fa.value < k:
            continue
        kept = [i for i, f in enumerate(fa.interval_flow) if f == 1]
        sub = s.subset(kept)
        for j in range(1, len(net.coords)):
            p = net.coords[j - 1]  # any point of segment j works: coverage is constant
            cov = sum(1 for iv in sub if iv.start <= p < iv.end)
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

    coords = sorted({c for iv in s for c in (iv.start, iv.end)})
    vertex = {c: j + 1 for j, c in enumerate(coords)}
    sink = len(coords) + 1
    caps = {}
    for j in range(sink):
        caps[j, j + 1] = k if j in (0, sink - 1) else k - t
    for iv in s:
        arc = (vertex[iv.start], vertex[iv.end])
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
        chain, t = Chain(s, k), k
        while t >= 0:
            flow = chain.max_flow(t)
            assert flow.value == scipy_max_flow_value(s, k, t)
            assert_valid_flow(build_network(s, k, t), flow)
            probes += 1
            t -= rng.randint(1, 3)  # the floor may fall by more than one
    assert probes > 250

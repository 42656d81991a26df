import random

import numpy as np
import pytest
from hypothesis import given, settings

from covprune import IntervalSet, build_network, decide
from covprune import flow
from covprune.flow import Chain, FlowAssignment

from conftest import (clipped_instance, iset, maxcov, mincov_over, random_instance,
                      interval_pairs)


def assert_valid_flow(s, k, t, fa):
    """Capacity and conservation checks straight from the definitions of
    the (k, t) network of `s`."""
    coords = sorted({c for iv in s for c in (iv.start, iv.end)})
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
        for iv, f in zip(s, fa.interval_flow):
            if vertex[iv.end] == v:
                inflow += f
            if vertex[iv.start] == v:
                outflow += f
        assert inflow == outflow, f"conservation broken at vertex {v}"


def first_probe(monkeypatch, s, k, t, warm_start):
    """The capacities of the (k, t) network of `s` and the flow a Chain's
    first probe at t starts from, both read off the residual it hands to
    `max_flow_augmenting`, each as (backbone arcs, interval arcs)."""
    starts = []
    augment = flow.max_flow_augmenting

    def spy(net, res):
        starts.append(res.copy())
        return augment(net, res)

    with monkeypatch.context() as m:
        m.setattr(flow, "max_flow_augmenting", spy)
        chain = Chain(s, k, warm_start)
        chain.max_flow(t)
    res, nb = starts[0], chain.net.num_backbone_arcs
    caps = res[0::2] + res[1::2]  # forward plus reverse residual
    return ((caps[:nb].tolist(), caps[nb:].tolist()),
            (res[1:2 * nb:2].tolist(), res[2 * nb + 1::2].tolist()))


def test_build_network_demo(demo):
    net = build_network(demo)
    assert net.nv == 10  # the 8 distinct endpoints, source and sink
    assert net.num_backbone_arcs == 9
    # one unit arc per interval, start vertex -> end vertex (chain ids)
    assert net.interval_arcs.tolist() == [[1, 7], [1, 3], [3, 6], [2, 4], [2, 8], [5, 8]]
    # residual arc 2a runs along logical arc a, 2a + 1 against it
    assert net.to[:18:2].tolist() == list(range(1, 10))
    assert net.to[1:18:2].tolist() == list(range(9))
    # vertex 1 (coordinate 0) lists its arcs by falling head: A (to 7),
    # B (to 3), then its backbone arcs to 2 and back to 0
    assert net.adj[net.first[1]:net.first[2]].tolist() == [18, 20, 2, 1]
    assert net.first[-1] == len(net.to) == 2 * (9 + 6)


@given(interval_pairs)
@settings(max_examples=100)
def test_build_network_lists_arcs_by_falling_head(pairs):
    net = build_network(iset(pairs))
    for u in range(net.nv):
        arcs = net.adj[net.first[u]:net.first[u + 1]]
        assert (net.to[arcs ^ 1] == u).all()  # each arc leaves u
        heads = np.diff(net.to[arcs])
        assert (heads <= 0).all()
        assert (np.diff(arcs)[heads == 0] > 0).all()  # parallel arcs in construction order


def test_build_network_zero_interior_capacity(monkeypatch):
    s = iset([(0, 5)])
    assert build_network(s).interval_arcs.tolist() == [[1, 2]]
    for warm_start in (True, False):
        caps, _ = first_probe(monkeypatch, s, k=1, t=1, warm_start=warm_start)
        assert caps == ([1, 0, 1], [1])


def test_build_network_t_equals_k(monkeypatch, demo):
    for warm_start in (True, False):
        caps, _ = first_probe(monkeypatch, demo, k=3, t=3, warm_start=warm_start)
        assert caps == ([3, 0, 0, 0, 0, 0, 0, 0, 3], [1] * 6)


def test_build_network_rejects_bad_instances(demo):
    chain = Chain(demo, 3)
    with pytest.raises(ValueError):
        chain.max_flow(4)
    with pytest.raises(ValueError):
        chain.max_flow(-1)
    with pytest.raises(ValueError):
        Chain(demo, 0)
    with pytest.raises(ValueError):
        build_network(IntervalSet(()))


def test_backbone_initial_flow(monkeypatch, demo):
    # capacities k at the ends and k - t inside, warm or cold
    for warm_start, start in ((True, 2), (False, 0)):
        caps, fa = first_probe(monkeypatch, demo, k=3, t=1, warm_start=warm_start)
        assert caps == ([3, 2, 2, 2, 2, 2, 2, 2, 3], [1] * 6)
        assert fa == ([start] * 9, [0] * 6)
        assert_valid_flow(demo, 3, 1, FlowAssignment(*map(tuple, fa)))
    # the warm start carries k - t: nothing at t = k, the whole cap at t = 0
    assert first_probe(monkeypatch, demo, 3, 3, True)[1][0] == [0] * 9
    assert first_probe(monkeypatch, demo, 3, 0, True)[1][0] == [3] * 9


def test_backbone_flow_at_t0_is_already_maximum(demo):
    result = Chain(demo, 3).max_flow(0)
    assert result.value == 3
    assert result.augmentations == 0


def test_max_flow_demo_cold(demo):
    result = Chain(demo, 3, warm_start=False).max_flow(1)
    assert result.value == 3
    assert_valid_flow(demo, 3, 1, result)


def test_max_flow_demo_warm_single_augmentation(demo):
    result = Chain(demo, 3).max_flow(1)
    assert result.value == 3
    assert result.augmentations == 1
    assert_valid_flow(demo, 3, 1, result)


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


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
def test_decide_under_the_cap_keeps_every_read_at_huge_k(warm_start):
    # k = 2**63 is beyond the int64 residual; an input under the cap
    # never reaches a Chain on either path
    s = iset([(0, 5), (0, 5), (2, 7)])
    sol = decide(s, 2**63, 1, warm_start=warm_start)
    assert (sol.kept, sol.achieved_mincov, sol.achieved_maxcov) == ((0, 1, 2), 1, 3)
    assert sol.work["flow_solves"] == 0
    assert decide(s, 2**63, 2, warm_start=warm_start) is None


def test_decide_rejects_bad_k(demo):
    with pytest.raises(ValueError):
        decide(demo, k=0, t=0)
    # an empty set holds every floor, even one above the cap
    for t in (0, 1, 2):
        sol = decide(IntervalSet(()), k=1, t=t)
        assert (sol.kept, sol.achieved_mincov, sol.method) == ((), 0, "exact-tailored")
        assert sol.work == {"flow_solves": 0, "augmentations": 0, "native_flow": 0}


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
        cold = Chain(s, k, warm_start=False).max_flow(t)
        warm = Chain(s, k).max_flow(t)
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
        fa = Chain(s, k).max_flow(t)
        if fa.value < k:
            continue
        kept = [i for i, f in enumerate(fa.interval_flow) if f == 1]
        sub = s.subset(kept)
        coords = s.compressed[0].tolist()
        for j in range(1, len(coords)):
            p = coords[j - 1]  # any point of segment j works: coverage is constant
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
            fa = chain.max_flow(t)
            assert fa.value == scipy_max_flow_value(s, k, t)
            assert_valid_flow(s, k, t, fa)
            probes += 1
            t -= rng.randint(1, 3)  # the floor may fall by more than one
    assert probes > 250

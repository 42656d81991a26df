"""Acceptance gate: every criterion prints one PASS line (run with -s).

Sizes and tolerances are pinned here; all checks are exact integer
comparisons except the two wall-clock budgets in the performance smoke.
"""

import math
import random
import time
from array import array

import numpy as np

from covprune import (IntervalSet, decide, solve_exact, approx_prune,
                      brute_force_opt, build_tree)
from covprune.flow import build_network, max_flow_augmenting
from covprune.intervals import recount

from conftest import (clipped_instance, count_cover, generate_instance, iset, maxcov,
                      mincov_over, naive_range_min_max, pairs_of, random_instance,
                      segment_values, subset)
from reference_kernels import cold_decide, cold_max_flow, warm_max_flow

DEMO = iset([(0, 8), (0, 2), (2, 6), (1, 3), (1, 10), (4, 10)])


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_worked_figure_reproduction():
    flow = cold_max_flow(DEMO, 3, 1)
    assert flow.value == 3

    sol = decide(DEMO, k=3, t=1)
    assert sol is not None
    sub = subset(DEMO, sol.kept)
    assert maxcov(sub) <= 3
    assert mincov_over(sub, 0, 10) >= 1

    # removing exactly [0,8) is one accepted witness
    drop_long = subset(DEMO, [1, 2, 3, 4, 5])
    assert maxcov(drop_long) <= 3
    assert mincov_over(drop_long, 0, 10) >= 1
    ok("1 worked-figure reproduction")


def test_criterion_2_oracle_equivalence_exact():
    rng = random.Random(1002)
    for _ in range(500):
        s = random_instance(rng, rng.randint(1, 14), max_coord=40, max_len=12)
        k = rng.randint(1, 5)
        opt = brute_force_opt(s, k).achieved_mincov
        assert solve_exact(s, k).achieved_mincov == opt
        # the cold-start reference flow agrees with the oracle on its own
        assert cold_decide(s, k, opt) is not None
        if opt < k:
            assert cold_decide(s, k, opt + 1) is None
    ok("2 oracle equivalence, 500 instances, exact search and cold-start flow")


def test_criterion_3_engine_agreement_and_augmentation_bound():
    rng = random.Random(1003)
    for _ in range(1000):
        s = random_instance(rng, rng.randint(2, 200),
                            max_coord=500, max_len=60)
        k = rng.randint(1, 6)
        for t in range(k + 1):
            cold = cold_decide(s, k, t)
            warm = decide(s, k, t)
            assert (cold is None) == (warm is None)
            flow = warm_max_flow(s, k, t)
            assert flow.augmentations <= t
    ok("3 engine agreement on 1000 instances, warm solves within t augmentations")


def test_criterion_4_flow_coverage_identity():
    rng = random.Random(1004)
    witnesses = 0
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 60), max_coord=120, max_len=25)
        k = rng.randint(1, 5)
        t = rng.randint(0, k)
        flow = warm_max_flow(s, k, t)
        if flow.value < k:
            continue
        witnesses += 1
        # the interval arcs follow the chain: place p holds read order[p]
        kept = [(int(s.starts[i]), int(s.ends[i]))
                for i, f in zip(s.compressed.order, flow.interval_flow) if f == 1]
        coords = s.compressed[0].tolist()
        for j in range(1, len(coords)):
            expected = k - flow.backbone_flow[j]
            assert count_cover(kept, coords[j - 1]) == expected
    assert witnesses >= 100
    ok(f"4 flow-coverage identity on {witnesses} extracted witnesses")


def test_criterion_4_flow_coverage_identity_at_full_scale():
    # n = 10^5 edge-clipped reads of up to 400 bp at depth about 40, k = 30
    n, k = 100_000, 30
    s = clipped_instance(random.Random(1044), n, 500_000, 400)
    cov = s.compressed.segment_cov
    # the descent solve_exact runs, one flow carried down from the bound;
    # its first feasible floor is OPT
    net, bound = build_network(s), min(k, int(np.asarray(cov).min()))
    held = array("q", [k - bound]) * net.num_backbone_arcs + array("q", [0]) * n
    for opt in range(bound, 0, -1):
        flow = max_flow_augmenting(net, k, opt, held)
        if flow.value == k:
            break
    assert flow.value == k and 0 < opt < k
    witness = np.asarray(recount(s.compressed, flow.interval_flow)[1])
    interior = np.array(flow.backbone_flow[1:-1])
    assert (flow.backbone_flow[0], flow.backbone_flow[-1]) == (k, k)
    assert (interior == k - witness).all()
    assert interior.max() <= k - opt
    ok(f"4 flow-coverage identity at n = {n}, k = {k}, OPT = {opt}")


def test_criterion_5_approximation_guarantee():
    rng = random.Random(1005)
    for _ in range(500):
        s = random_instance(rng, rng.randint(1, 14), max_coord=40, max_len=12)
        k = rng.randint(1, 6)
        opt = brute_force_opt(s, k).achieved_mincov
        sol = approx_prune(s, k)
        assert sol.achieved_maxcov <= k
        assert sol.achieved_mincov >= (k // 2) / k * opt
    for _ in range(200):
        s = random_instance(rng, rng.randint(1, 200), max_coord=400, max_len=60)
        k = rng.randint(1, 6)
        opt = solve_exact(s, k).achieved_mincov
        sol = approx_prune(s, k)
        assert sol.achieved_maxcov <= k
        assert sol.achieved_mincov >= (k // 2) / k * opt
    ok("5 approximation ratio on 700 instances, zero violations")


def test_criterion_6_coverage_tree_vs_flat_array():
    rng = random.Random(1006)
    operations = 0
    while operations < 100_000:
        s = random_instance(rng, rng.randint(1, 50), max_coord=80, max_len=30)
        tree = build_tree(s)
        delims = sorted({c for pair in pairs_of(s) for c in pair})
        pos = {d: j for j, d in enumerate(delims)}
        flat = segment_values(tree)
        spans = [(pos[a], pos[b]) for a, b in pairs_of(s)]
        for _ in range(1000):
            lo, hi = spans[rng.randrange(len(spans))]
            if rng.random() < 0.5:
                tree.range_decrement(lo, hi)
                for j in range(lo, hi):
                    flat[j] -= 1
            else:
                assert tree.range_query(lo, hi) == naive_range_min_max(flat, lo, hi)
            operations += 1
        assert segment_values(tree) == flat
    ok(f"6 coverage tree matches flat array over {operations} operations")


def test_criterion_7_monotone_feasibility():
    rng = random.Random(1007)
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 14), max_coord=40, max_len=12)
        k = rng.randint(1, 5)
        opt = solve_exact(s, k).achieved_mincov
        feasible = {t for t in range(k + 2) if decide(s, k, t) is not None}
        assert feasible == set(range(opt + 1))
    ok("7 feasible thresholds form the prefix {0..OPT} on 300 full sweeps")


def test_criterion_8_performance_smoke():
    n, k = 100_000, 30
    s = generate_instance(n, 1_000_000, seed=1)

    t0 = time.perf_counter()
    sol = approx_prune(s, k)
    approx_elapsed = time.perf_counter() - t0
    assert approx_elapsed <= 5.0, f"approx took {approx_elapsed:.2f}s"
    assert sol.achieved_maxcov <= k
    assert sol.work["tree_nodes_touched"] <= 64 * n * math.log2(n)

    t0 = time.perf_counter()
    exact = solve_exact(s, k)
    solve_elapsed = time.perf_counter() - t0
    assert solve_elapsed <= 60.0, f"tailored solve took {solve_elapsed:.2f}s"
    assert exact.achieved_maxcov <= k
    ok(f"8 performance smoke (approx {approx_elapsed:.2f}s, "
       f"tailored {solve_elapsed:.2f}s, "
       f"touched {sol.work['tree_nodes_touched']})")

import random

import pytest

from covprune import IntervalSet, solve_exact, decide, brute_force_opt

from conftest import (clipped_instance, iset, maxcov, mincov_over, mincov_span,
                      random_instance)


def test_solve_demo_both_engines(demo):
    sol = solve_exact(demo, 3)
    assert sol.achieved_mincov == 2
    assert sol.achieved_maxcov <= 3
    assert sol.method == "exact-tailored"
    sub = demo.subset(sol.kept)
    assert maxcov(sub) <= 3
    assert mincov_over(sub, 0, 10) == 2
    # the cold-start reference flow puts the threshold at the same place
    assert decide(demo, 3, 2, warm_start=False) is not None
    assert decide(demo, 3, 3, warm_start=False) is None


def test_solve_demo_probe_sequence(demo):
    # the descent starts at the bound min(k, mincov) = 2, which is feasible
    sol = solve_exact(demo, 3)
    assert sol.work["probes"] == 1


def test_known_optimal_subset_is_optimal(demo):
    # keeping A, B, E, F achieves mincov 2 under cap 3
    sub = demo.subset([0, 1, 4, 5])
    assert maxcov(sub) == 3
    assert mincov_over(sub, 0, 10) == 2


def test_solve_shortcut_when_cap_not_binding():
    sol = solve_exact(iset([(0, 5)]), 2)
    assert sol.achieved_mincov == 1
    assert sol.kept == (0,)
    assert sol.work["flow_solves"] == 0  # no flow needed


def test_solve_gap_instance_opt_zero():
    s = iset([(0, 2), (0, 2), (3, 5)])
    sol = solve_exact(s, 1)
    assert sol.achieved_mincov == 0
    assert sol.achieved_maxcov <= 1


def test_solve_empty():
    sol = solve_exact(IntervalSet(()), 5)
    assert sol.kept == () and sol.achieved_mincov == 0


def test_solve_rejects_bad_args(demo):
    with pytest.raises(ValueError):
        solve_exact(demo, 0)


def test_engines_agree_and_match_oracle():
    rng = random.Random(23)
    for _ in range(60):
        s = random_instance(rng, rng.randint(0, 12), max_coord=30, max_len=10)
        k = rng.randint(1, 5)
        tailored = solve_exact(s, k)
        exact = brute_force_opt(s, k)
        assert tailored.achieved_mincov == exact.achieved_mincov
        assert tailored.achieved_maxcov <= k
        if s.items:
            # the cold-start reference flow also reaches the oracle's optimum
            cold = decide(s, k, exact.achieved_mincov, warm_start=False)
            assert cold is not None
            assert cold.achieved_mincov >= exact.achieved_mincov
            assert cold.achieved_maxcov <= k


def test_opt_is_the_feasibility_threshold():
    rng = random.Random(29)
    for _ in range(60):
        s = random_instance(rng, rng.randint(1, 12), max_coord=30, max_len=10)
        k = rng.randint(1, 4)
        opt = solve_exact(s, k).achieved_mincov
        assert opt <= min(k, mincov_span(s))
        if opt > 0:
            assert decide(s, k, opt) is not None
        if opt < k:
            assert decide(s, k, opt + 1) is None


def descent_instances():
    """Small random sets, where brute force gives OPT, and deeper
    edge-clipped ones, where OPT often falls below the bound and the
    cold-start reference flow gives it."""
    rng = random.Random(31)
    for _ in range(300):
        s = random_instance(rng, rng.randint(2, 12), max_coord=rng.choice((6, 12, 30)),
                            max_len=rng.choice((4, 10)))
        k = rng.randint(1, 5)
        yield s, k, brute_force_opt(s, k).achieved_mincov
    for _ in range(60):
        s = clipped_instance(rng, rng.randint(20, 150), 60, 25)
        k = rng.randint(2, 12)
        yield s, k, next(t for t in range(k, -1, -1)
                         if t == 0 or decide(s, k, t, warm_start=False))


def test_descent_probes_each_floor_from_the_bound_down():
    seen = {"opt zero": 0, "opt at bound": 0, "opt below bound": 0}
    for s, k, opt in descent_instances():
        if maxcov(s) <= k:
            continue  # the cap does not bind: no flow runs
        bound = min(k, mincov_span(s))
        sol = solve_exact(s, k)
        work = sol.work
        assert sol.achieved_mincov == opt
        assert work["probes"] == work["flow_solves"]
        assert work["augmentations"] <= bound
        if opt >= 1:
            assert work["probes"] == bound - opt + 1
            seen["opt at bound" if opt == bound else "opt below bound"] += 1
        else:
            assert work["probes"] == bound
            seen["opt zero"] += 1
    assert min(seen.values()) >= 15, seen

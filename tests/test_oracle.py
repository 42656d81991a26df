import random

import pytest

from covprune import IntervalSet, brute_force_opt
from covprune.oracle import LIMIT

from conftest import iset, maxcov, mincov_over, naive_range_min_max, random_instance, subset


def test_demo_opt(demo):
    sol = brute_force_opt(demo, 3)
    assert sol.achieved_mincov == 2
    # both edge segments force {A,B} and {E,F}; neither C nor D fits on top
    assert sol.kept.tolist() == [0, 1, 4, 5]


def test_single_interval():
    sol = brute_force_opt(iset([(0, 5)]), 1)
    assert sol.achieved_mincov == 1
    assert sol.kept.tolist() == [0]


def test_empty_set():
    sol = brute_force_opt(IntervalSet(), 4)
    assert sol.kept.tolist() == [] and sol.achieved_mincov == 0


def test_lexicographic_tie_break():
    # both singletons achieve mincov 1; the lower index wins
    sol = brute_force_opt(iset([(0, 1), (0, 1)]), 1)
    assert sol.kept.tolist() == [0]


def test_size_guard():
    s = iset([(i, i + 2) for i in range(LIMIT + 1)])
    with pytest.raises(ValueError, match="limit"):
        brute_force_opt(s, 2)


def test_bad_k(demo):
    with pytest.raises(ValueError):
        brute_force_opt(demo, 0)


def test_witness_respects_feasibility():
    rng = random.Random(53)
    for _ in range(50):
        s = random_instance(rng, rng.randint(0, 10), max_coord=25, max_len=8)
        k = rng.randint(1, 4)
        sol = brute_force_opt(s, k)
        sub = subset(s, sol.kept)
        assert maxcov(sub) <= k
        if sol.num_kept:
            assert mincov_over(sub, *s.span) == sol.achieved_mincov


def test_naive_range_min_max():
    values = (2, 4, 4, 3, 4, 3, 2)
    assert naive_range_min_max(values, 1, 3) == (4, 4)
    assert naive_range_min_max(values, 0, 7) == (2, 4)
    assert naive_range_min_max([9], 0, 1) == (9, 9)
    assert naive_range_min_max([5, 5, 5], 0, 3) == (5, 5)
    with pytest.raises(ValueError):
        naive_range_min_max(values, 3, 3)
    with pytest.raises(ValueError):
        naive_range_min_max(values, 0, 8)

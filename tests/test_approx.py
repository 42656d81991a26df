import math
import random

import numpy as np
import pytest

from covprune import IntervalSet, approx_prune, solve_exact, brute_force_opt, build_tree

from conftest import (generate_instance, iset, maxcov, random_instance, reference_profile,
                      sweeps)


def test_classification_threshold():
    # one read over segments of coverage (mn, k + 1) is a candidate: every
    # sweep deletes it when mn > floor(k/2) and keeps it as crucial at or below
    order, lo, hi = np.zeros(1, np.intp), np.zeros(1, np.intp), np.full(1, 2)
    every_sweep = sweeps()
    for mn, k, expendable in ((1, 3, False), (2, 3, True), (2, 4, False),
                              (3, 4, True), (0, 1, False)):
        for name, sweep in every_sweep.items():
            deleted, (_, candidates, blocked) = sweep(order, lo, hi, np.array([mn, k + 1]), k)
            assert deleted.tolist() == [expendable], name
            assert (candidates, blocked) == (1, int(not expendable)), name


def test_three_identical_reads_cap_two():
    s = iset([(0, 10), (0, 10), (0, 10)])
    sol = approx_prune(s, 2)
    assert sol.kept == (1, 2)  # first one deleted, rest crucial by then
    assert sol.achieved_mincov == 2
    assert sol.achieved_maxcov == 2
    # here the approximation actually hits the optimum
    assert brute_force_opt(s, 2).achieved_mincov == 2


def test_demo_trace(demo):
    # sweep order B,A,D,E,C,F; B, D and E are expendable when visited
    sol = approx_prune(demo, 3)
    assert sol.kept == (0, 2, 5)
    assert sol.achieved_maxcov == 3
    assert sol.achieved_mincov == 1
    # ratio floor(k/2)/k * OPT = (1/3) * 2
    assert sol.achieved_mincov >= math.floor(3 / 2) / 3 * 2


def test_nothing_deleted_when_under_cap(demo):
    sol = approx_prune(demo, 4)  # maxcov(demo) == 4
    assert sol.kept == tuple(range(6))


@pytest.mark.parametrize("k", [3, 4])
def test_no_sweep_at_or_under_cap(k):
    # a gap in the middle: mincov 0, maxcov 3
    s = iset([(0, 10), (0, 10), (0, 10), (20, 30), (20, 30)])
    sol = approx_prune(s, k)
    assert sol.kept == tuple(range(5))
    assert (sol.achieved_mincov, sol.achieved_maxcov) == (0, 3)
    assert sol.work == {"tree_nodes_touched": 0, "segments_scanned": 0, "candidates": 0,
                        "blocked_crucial": 0, "native_sweep": 0}


def test_candidate_counters(demo):
    # visits B,A,D,E,C,F at k = 3: B, D and E are deleted; A is blocked,
    # its span reaching coverage 1 once B is gone; C and F are under the cap
    work = approx_prune(demo, 3).work
    assert (work["candidates"], work["blocked_crucial"]) == (4, 1)


def test_empty_and_bad_k():
    assert approx_prune(IntervalSet(()), 3).kept == ()
    with pytest.raises(ValueError):
        approx_prune(iset([(0, 1)]), 0)


def test_sweep_matches_flat_array_replay():
    # replay the deletion rule against plain lists and compare decisions,
    # checking the coverage floor after every deletion
    rng = random.Random(41)
    for _ in range(60):
        s = random_instance(rng, rng.randint(1, 30), max_coord=40, max_len=15)
        k = rng.randint(1, 6)
        half = k // 2

        delims, flat = reference_profile(s)
        initial = list(flat)
        pos = {d: j for j, d in enumerate(delims)}
        deleted = []
        for start, end, i in sorted((iv.start, iv.end, j) for j, iv in enumerate(s)):
            lo, hi = pos[start], pos[end]
            window = flat[lo:hi]
            if max(window) > k and min(window) > half:
                for j in range(lo, hi):
                    flat[j] -= 1
                deleted.append(i)
                assert all(flat[j] >= min(initial[j], half) for j in range(len(flat)))

        sol = approx_prune(s, k)
        assert sol.kept == tuple(i for i in range(len(s)) if i not in set(deleted))
        # termination floor: no segment below min(initial, floor(k/2))
        assert all(flat[j] >= min(initial[j], half) for j in range(len(flat)))


def test_cap_and_ratio_against_exact():
    rng = random.Random(43)
    for _ in range(80):
        s = random_instance(rng, rng.randint(1, 40), max_coord=50, max_len=18)
        k = rng.randint(1, 6)
        sol = approx_prune(s, k)
        assert sol.achieved_maxcov <= k
        assert maxcov(s.subset(sol.kept)) <= k
        opt = solve_exact(s, k).achieved_mincov
        assert sol.achieved_mincov >= (k // 2) / k * opt


def test_work_bound():
    rng = random.Random(47)
    for n in (10, 100, 400):
        s = random_instance(rng, n, max_coord=5 * n, max_len=n)
        sol = approx_prune(s, 4)
        assert sol.work["tree_nodes_touched"] <= 64 * n * math.log2(n)


def flat_rule(s: IntervalSet) -> bool:
    """The sweep's choice, worked out apart: a flat scan when the spans sum
    to at most 40 * n * bit_length(nseg) segments."""
    _, lo, hi, cov = s.compressed
    return int((hi - lo).sum()) <= 40 * len(s) * len(cov).bit_length()


def test_short_reads_run_the_flat_scan():
    s = random_instance(random.Random(3001), 20_000, max_coord=100_000, max_len=400)
    assert flat_rule(s)
    work = approx_prune(s, 30).work
    assert work["tree_nodes_touched"] == 0 and work["segments_scanned"] > 0
    assert work["candidates"] > 0


def test_long_reads_run_the_tree():
    s = generate_instance(10_000, 100_000, seed=1)
    _, lo, hi, _ = s.compressed
    assert (hi - lo).mean() > 500  # spans of about a thousand segments
    assert not flat_rule(s)
    work = approx_prune(s, 30).work
    assert work["segments_scanned"] == 0 and work["tree_nodes_touched"] > 0


def test_flat_scan_work_bound():
    # the flat scan runs exactly when the rule picks it, and then reads or
    # lowers at most 80 * n * bit_length(nseg) cells; both sides of the cut occur
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        # spans sum past the cut only with about a thousand reads or more
        n = rng.randint(1, rng.choice((300, 1500)))
        s = random_instance(rng, n, max_coord=rng.choice((60, 400, 4000)),
                            max_len=rng.choice((15, 200, 4000)))
        k = rng.randint(1, 6)
        work = approx_prune(s, k).work
        if maxcov(s) <= k:
            continue
        n, nseg = len(s), s.compressed.num_segments
        flat = flat_rule(s)
        seen.add(flat)
        assert (work["segments_scanned"] > 0, work["tree_nodes_touched"] > 0) == (flat, not flat)
        assert work["segments_scanned"] <= 80 * n * nseg.bit_length()
    assert seen == {True, False}


def test_dynamic_classification_uses_current_state():
    # two stacked piles: after the left pile is thinned, a wide read
    # whose minimum once exceeded floor(k/2) may become crucial and
    # must then survive
    s = iset([(0, 4), (0, 4), (0, 4), (0, 4), (0, 8), (4, 8), (4, 8), (4, 8)])
    k = 2
    sol = approx_prune(s, k)
    sub = s.subset(sol.kept)
    assert maxcov(sub) <= k
    tree = build_tree(s)
    # static classification of [0,8), segments [0, 2): full-set minimum over its span
    assert tree.range_query(0, 2)[0] > k // 2

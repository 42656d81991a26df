import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covprune import IntervalSet, approx_prune, solve_exact, brute_force_opt, build_tree

from conftest import (count_cover, generate_instance, iset, maxcov, pairs_of, random_instance,
                      reference_profile, subset, sweeps)


def test_classification_threshold():
    # one read over segments of coverage (mn, k + 1) is a candidate: every
    # sweep deletes it when mn > floor(k/2) and keeps it as crucial at or
    # below; a deleted read leaves its span at max k, so the refill keeps
    # it out
    order, lo, hi = np.zeros(1, np.intp), np.zeros(1, np.intp), np.full(1, 2)
    every_sweep = sweeps()
    for mn, k, expendable in ((1, 3, False), (2, 3, True), (2, 4, False),
                              (3, 4, True), (0, 1, False)):
        for name, sweep in every_sweep.items():
            deleted, (_, *decisions) = sweep(order, lo, hi, np.array([mn, k + 1]), k)
            assert deleted.tolist() == [expendable], name
            assert decisions == [1, int(not expendable), 0], name


def test_refill_readds_a_read_once_the_cap_allows():
    # segments of coverage (4, 5) at k = 3, read 0 over segment 0 and read 1
    # over both: the sweep deletes read 0, leaving (3, 5), then read 1,
    # leaving (2, 4); the refill re-adds read 0, whose span's max 2 is now
    # below 3, and refuses read 1, whose span's max is 4
    order, lo, hi = np.array([0, 1]), np.array([0, 0]), np.array([1, 2])
    for name, sweep in sweeps().items():
        deleted, (_, *decisions) = sweep(order, lo, hi, np.array([4, 5]), 3)
        assert deleted.tolist() == [False, True], name
        assert decisions == [2, 0, 1], name


def test_three_identical_reads_cap_two():
    s = iset([(0, 10), (0, 10), (0, 10)])
    sol = approx_prune(s, 2)
    assert sol.kept.tolist() == [1, 2]  # first one deleted, rest crucial by then
    assert sol.achieved_mincov == 2
    assert sol.achieved_maxcov == 2
    # here the approximation actually hits the optimum
    assert brute_force_opt(s, 2).achieved_mincov == 2


def test_demo_trace(demo):
    # sweep order B,A,D,E,C,F; B, D and E are expendable when visited,
    # leaving A, C and F: coverage 1,1,2,2,3,2,1 on the segments that
    # start at 0,1,2,3,4,6,8.  The refill visits B, D, E: B's span [0,2)
    # has max 1 < 3, so B returns and raises it to 2,2; D's span [1,3)
    # then has max 2, so D returns and raises it to 3,3; E's span [1,10)
    # holds the 3 at [4,6), so E stays out.  [8,10) keeps coverage 1
    sol = approx_prune(demo, 3)
    assert sol.kept.tolist() == [0, 1, 2, 3, 5]
    assert sol.achieved_maxcov == 3
    assert sol.achieved_mincov == 1
    # ratio floor(k/2)/k * OPT = (1/3) * 2
    assert sol.achieved_mincov >= math.floor(3 / 2) / 3 * 2


def test_nothing_deleted_when_under_cap(demo):
    sol = approx_prune(demo, 4)  # maxcov(demo) == 4
    assert sol.kept.tolist() == list(range(6))


@pytest.mark.parametrize("k", [3, 4])
def test_no_sweep_at_or_under_cap(k):
    # a gap in the middle: mincov 0, maxcov 3
    s = iset([(0, 10), (0, 10), (0, 10), (20, 30), (20, 30)])
    sol = approx_prune(s, k)
    assert sol.kept.tolist() == list(range(5))
    assert (sol.achieved_mincov, sol.achieved_maxcov) == (0, 3)
    assert sol.work == {"tree_nodes_touched": 0, "segments_scanned": 0, "candidates": 0,
                        "blocked_crucial": 0, "refilled": 0, "native_sweep": 0}


def test_candidate_counters(demo):
    # visits B,A,D,E,C,F at k = 3: B, D and E are deleted; A is blocked,
    # its span reaching coverage 1 once B is gone; C and F are under the
    # cap; the refill re-adds B and D (test_demo_trace)
    work = approx_prune(demo, 3).work
    assert (work["candidates"], work["blocked_crucial"], work["refilled"]) == (4, 1, 2)


def test_empty_and_bad_k():
    assert approx_prune(IntervalSet(), 3).kept.tolist() == []
    with pytest.raises(ValueError):
        approx_prune(iset([(0, 1)]), 0)


def replay(s: IntervalSet, k: int):
    """The deletion rule, then the refill, replayed on plain lists: the
    kept indices after the sweep alone and after the refill, and the
    segment coverage of the input and of the final set.  Checks the
    coverage floor after every deletion."""
    half = k // 2
    delims, flat = reference_profile(s)
    initial = list(flat)
    pos = {d: j for j, d in enumerate(delims)}
    reads = sorted((a, b, j) for j, (a, b) in enumerate(pairs_of(s)))
    deleted = set()
    for start, end, i in reads:
        window = flat[pos[start]:pos[end]]
        if max(window) > k and min(window) > half:
            for j in range(pos[start], pos[end]):
                flat[j] -= 1
            deleted.add(i)
            assert all(flat[j] >= min(initial[j], half) for j in range(len(flat)))
    swept = [i for i in range(len(s)) if i not in deleted]
    for start, end, i in reads:
        if i in deleted and max(flat[pos[start]:pos[end]]) < k:
            for j in range(pos[start], pos[end]):
                flat[j] += 1
            deleted.remove(i)
    return swept, [i for i in range(len(s)) if i not in deleted], initial, flat


def test_sweep_matches_flat_array_replay():
    # replay the deletion rule and the refill against plain lists and
    # compare decisions
    rng = random.Random(41)
    for _ in range(60):
        s = random_instance(rng, rng.randint(1, 30), max_coord=40, max_len=15)
        k = rng.randint(1, 6)
        _, kept, initial, flat = replay(s, k)
        sol = approx_prune(s, k)
        assert sol.kept.tolist() == kept
        # termination floor: no segment below min(initial, floor(k/2))
        assert all(flat[j] >= min(initial[j], k // 2) for j in range(len(flat)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 15)), min_size=1, max_size=30),
       st.integers(1, 6))
def test_refill_is_maximal_and_never_lowers_the_floor(pairs, k):
    """No read left out fits under the cap, and the refilled set's mincov
    is at least the sweep's and at least min(input mincov, floor(k/2))."""
    s = iset([(a, a + b) for a, b in pairs])
    sol = approx_prune(s, k)
    swept, kept, initial, _ = replay(s, k)
    assert sol.kept.tolist() == kept
    reads = pairs_of(s)
    left = [reads[i] for i in kept]
    for i in set(range(len(s))) - set(kept):
        start, end = reads[i]
        assert max(count_cover(left, p) for p in range(start, end)) >= k
    start, end = min(a for a, _ in reads), max(b for _, b in reads)

    def floor(indices):
        return min(count_cover([reads[i] for i in indices], p) for p in range(start, end))

    assert sol.achieved_mincov == floor(kept) >= floor(swept)
    assert floor(kept) >= min(min(initial), k // 2)


def test_cap_and_ratio_against_exact():
    rng = random.Random(43)
    for _ in range(80):
        s = random_instance(rng, rng.randint(1, 40), max_coord=50, max_len=18)
        k = rng.randint(1, 6)
        sol = approx_prune(s, k)
        assert sol.achieved_maxcov <= k
        assert maxcov(subset(s, sol.kept)) <= k
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
    _, lo, hi, cov = s.compressed[:4]
    return int((np.asarray(hi) - np.asarray(lo)).sum()) <= 40 * len(s) * len(cov).bit_length()


def test_short_reads_run_the_flat_scan():
    s = random_instance(random.Random(3001), 20_000, max_coord=100_000, max_len=400)
    assert flat_rule(s)
    work = approx_prune(s, 30).work
    assert work["tree_nodes_touched"] == 0 and work["segments_scanned"] > 0
    assert work["candidates"] > 0


def test_long_reads_run_the_tree():
    s = generate_instance(10_000, 100_000, seed=1)
    _, lo, hi, _ = s.compressed[:4]
    assert (np.asarray(hi) - np.asarray(lo)).mean() > 500  # spans of about a thousand segments
    assert not flat_rule(s)
    work = approx_prune(s, 30).work
    assert work["segments_scanned"] == 0 and work["tree_nodes_touched"] > 0


def test_flat_scan_work_bound():
    # the flat scan runs exactly when the rule picks it, the spans then
    # summing to at most 40 * n * bit_length(nseg); the sweep reads every
    # span and lowers each span it deletes, the refill reads each deleted
    # span again and raises each span it re-adds, so at most four times the
    # spans' sum are scanned; both sides of the cut occur
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
        _, lo, hi, _ = s.compressed[:4]
        flat = flat_rule(s)
        seen.add(flat)
        assert (work["segments_scanned"] > 0, work["tree_nodes_touched"] > 0) == (flat, not flat)
        assert work["segments_scanned"] <= 4 * int((np.asarray(hi) - np.asarray(lo)).sum())
    assert seen == {True, False}


def test_dynamic_classification_uses_current_state():
    # two stacked piles: after the left pile is thinned, a wide read
    # whose minimum once exceeded floor(k/2) may become crucial and
    # must then survive
    s = iset([(0, 4), (0, 4), (0, 4), (0, 4), (0, 8), (4, 8), (4, 8), (4, 8)])
    k = 2
    sol = approx_prune(s, k)
    sub = subset(s, sol.kept)
    assert maxcov(sub) <= k
    tree = build_tree(s)
    # static classification of [0,8), segments [0, 2): full-set minimum over its span
    assert tree.range_query(0, 2)[0] > k // 2

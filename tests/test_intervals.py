from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covprune import (IntervalSet, approx_prune, coverage_profile, decide, score_subset,
                      solve_exact)
from covprune.intervals import MAX_COORD, recount

from conftest import (DEMO_PAIRS, iset, count_cover, interval_pairs, pairs_of, reference_profile,
                      subset)
from reference_kernels import score_numpy


def test_interval_rejects_degenerate():
    for pair in ((5, 5), (7, 3), (-1, 3), (0, MAX_COORD + 1)):
        with pytest.raises(ValueError, match="invalid interval"):
            IntervalSet.from_pairs([(0, 1), pair])


def assert_segments_match_point_count(prof, pairs):
    """Both end points of every segment have its coverage, and no point
    outside the delimiters is covered."""
    d = prof.delimiters.tolist()
    for j, c in enumerate(prof.segment_cov.tolist()):
        assert count_cover(pairs, d[j]) == count_cover(pairs, d[j + 1] - 1) == c
    assert count_cover(pairs, d[0] - 1) == count_cover(pairs, d[-1]) == 0


def test_profile_single_interval():
    prof = coverage_profile(iset([(0, 5)]))
    assert prof.delimiters.tolist() == [0, 5]
    assert prof.segment_cov.tolist() == [1]
    assert (prof.lo.tolist(), prof.hi.tolist(), prof.num_segments) == ([0], [1], 1)


def test_profile_demo(demo):
    prof = coverage_profile(demo)
    assert prof.delimiters.tolist() == [0, 1, 2, 3, 4, 6, 8, 10]
    assert prof.segment_cov.tolist() == [2, 4, 4, 3, 4, 3, 2]
    # the chain B, A, D, E, C, F: by start, then end, then read index
    assert prof.order.tolist() == [1, 0, 3, 4, 2, 5]
    assert (prof.lo.tolist(), prof.hi.tolist()) == ([0, 0, 1, 1, 2, 4], [2, 6, 3, 7, 5, 7])
    # the places 0, 1, 3 and 5 kept hold B, A, E and F, read back rising
    assert recount(prof, array("q", [1, 1, 0, 1, 0, 1]))[0].tolist() == [0, 1, 4, 5]
    # cross-check every segment against direct counting
    assert_segments_match_point_count(prof, DEMO_PAIRS)
    # the set computes its profile once
    assert demo.compressed is demo.compressed
    assert demo.compressed.segment_cov.tolist() == prof.segment_cov.tolist()


def test_profile_empty():
    prof = coverage_profile(IntervalSet())
    assert np.asarray(prof.delimiters).dtype == np.uint64
    assert len(prof.delimiters) == prof.num_segments == 0


def test_profile_area_identity(demo):
    # sum of cov * segment length equals total interval length
    prof = coverage_profile(demo)
    d = prof.delimiters.tolist()
    area = sum(c * (d[j + 1] - d[j]) for j, c in enumerate(prof.segment_cov.tolist()))
    assert area == sum(end - start for start, end in DEMO_PAIRS)


def test_mincov_span(demo):
    # the segments tile the span, so a gap is a segment of coverage 0
    assert np.asarray(coverage_profile(demo).segment_cov).min() == 2
    assert np.asarray(coverage_profile(iset([(0, 5)])).segment_cov).min() == 1
    assert coverage_profile(iset([(0, 2), (3, 5)])).segment_cov.tolist() == [1, 0, 1]
    # the empty set has no segment; its mincov is 0 by convention
    assert score_subset(IntervalSet(), None, 1, "all").achieved_mincov == 0


def test_maxcov(demo):
    assert np.asarray(coverage_profile(demo).segment_cov).max() == 4
    assert np.asarray(coverage_profile(iset([(0, 5)])).segment_cov).max() == 1
    assert np.asarray(coverage_profile(iset([(0, 5), (0, 5), (0, 5)])).segment_cov).max() == 3
    assert score_subset(IntervalSet(), None, 1, "all").achieved_maxcov == 0


def test_cov_at(demo):
    # a point has the coverage of the last segment starting at or before it
    delims, _, _, cov = coverage_profile(demo)[:4]

    def seg(p):
        return int(np.searchsorted(delims, p, "right")) - 1

    assert cov[seg(1)] == 4  # A, B, D, E
    assert cov[seg(8)] == 2  # E, F
    # 10 is the last delimiter: no segment holds it or anything beyond
    assert seg(10) == seg(999) == len(cov)


def test_mincov_over_windows(demo):
    # a window is a run of segments; a subset scored on its parent's
    # segments has coverage 0 wherever it leaves the parent's span bare
    prof = coverage_profile(demo)
    assert np.asarray(prof.segment_cov[1:4]).min() == 3  # the points [1, 4)
    only_e = array("q", [0, 0, 0, 1, 0, 0])  # E = [1, 10), at place 3
    assert recount(prof, only_e)[1].tolist() == [0, 1, 1, 1, 1, 1, 1]
    assert score_subset(demo, only_e, 1, "E").achieved_mincov == 0


def test_score_subset_checks_the_cap(demo):
    """The one scorer of every answer recounts the kept set, a keep column
    by chain place, and refuses one over the cap; None keeps every read."""
    sol = score_subset(demo, None, 4, "all", {"probes": 1})
    assert sol.kept.tolist() == list(range(6)) and sol.kept.readonly
    assert (sol.achieved_mincov, sol.achieved_maxcov, sol.work) == (2, 4, {"probes": 1})
    with pytest.raises(AssertionError, match="maxcov 4 > k=3"):
        score_subset(demo, None, 3, "all")
    keep = array("q", [1, 1, 0, 1, 0, 1])  # the places of B, A, E and F
    assert score_subset(demo, keep, 3, "some").kept.tolist() == [0, 1, 4, 5]


def test_span(demo):
    assert demo.span == (0, 10)
    assert IntervalSet().span is None


def test_subset_keeps_indices(demo):
    sub = subset(demo, [1, 4])
    assert pairs_of(sub) == [(0, 2), (1, 10)]


@given(interval_pairs)
def test_profile_matches_point_count(pairs):
    assert_segments_match_point_count(coverage_profile(iset(pairs)), pairs)


@given(interval_pairs)
def test_mincov_le_maxcov(pairs):
    cov = np.asarray(coverage_profile(iset(pairs)).segment_cov)
    assert 0 <= cov.min() <= cov.max() <= len(pairs)


@given(interval_pairs, st.data())
def test_removal_lowers_coverage_exactly_on_span(pairs, data):
    idx = data.draw(st.integers(0, len(pairs) - 1))
    prof = coverage_profile(iset(pairs))
    rest = (np.asarray(prof.order) != idx).astype(np.int64)  # every place but idx's
    rest_cov = recount(prof, rest)[1]
    drop = np.asarray(prof.segment_cov) - rest_cov
    p = prof.order.tolist().index(idx)  # the place of read idx
    assert drop.tolist() == [int(prof.lo[p] <= j < prof.hi[p]) for j in range(len(rest_cov))]


@given(st.lists(st.tuples(st.integers(0, 60), st.integers(1, 30)), max_size=200), st.data())
def test_a_score_matches_its_numpy_reference(pairs, data):
    """`recount` (`covprune_score`) on a random 0/1 keep column of a set
    with duplicates and gaps: the kept reads are `np.flatnonzero` of the
    by-read mask, and the coverage, min and max those of the cumulative
    sum of the kept places' rises at lo and falls at hi."""
    prof = coverage_profile(iset([(start, start + size) for start, size in pairs]))
    keep = array("q", data.draw(st.lists(st.integers(0, 1), min_size=len(pairs),
                                         max_size=len(pairs))))
    reads, cov, low, top = recount(prof, keep)
    assert (reads.tolist(), cov.tolist(), low, top) == score_numpy(prof, keep)


def compress_cases():
    import random
    rng = random.Random(37)
    for _ in range(200):  # gaps and overlaps
        yield [(a, a + rng.randint(1, 12))
               for a in (rng.randrange(60) for _ in range(rng.randint(1, 15)))]
    for _ in range(50):  # piles of duplicates
        base = [(a, a + rng.randint(1, 5)) for a in (rng.randrange(20) for _ in range(3))]
        yield [rng.choice(base) for _ in range(rng.randint(2, 30))]
    for _ in range(20):  # one segment
        a = rng.randrange(100)
        yield [(a, a + rng.randint(1, 5))] * rng.randint(1, 10)
    for _ in range(30):  # near 2**64 - 1, beyond int64
        yield [(MAX_COORD - b - rng.randint(1, 40), MAX_COORD - b)
               for b in (rng.randint(0, 80) for _ in range(rng.randint(1, 15)))]
    yield [(0, 1), (MAX_COORD - 1, MAX_COORD)]  # one huge gap


def test_compress_and_segment_cov_match_profile():
    for pairs in compress_cases():
        s = iset(pairs)
        ref_delims, ref_cov = reference_profile(s)
        delims, lo, hi, cov, *_, order = coverage_profile(s)
        assert np.asarray(delims).dtype == np.uint64
        assert delims.tolist() == ref_delims
        # the chain: the reads by start, then end, then read index
        assert order.tolist() == sorted(range(len(pairs)), key=lambda i: (pairs[i], i))
        assert [int(delims[j]) for j in lo] == [pairs[i][0] for i in order]
        assert [int(delims[j]) for j in hi] == [pairs[i][1] for i in order]
        assert cov.tolist() == ref_cov


def test_interval_sets_stay_read_only(demo):
    for view in (demo.starts, demo.ends, demo.compressed.lo, demo.compressed.segment_cov):
        with pytest.raises(TypeError):
            view[0] = 7
    assert demo.starts.tolist() == [s for s, _ in DEMO_PAIRS]
    # a set built from arrays holds its own copy
    starts = np.array([0, 3], np.uint64)
    s = IntervalSet(starts, np.array([5, 4], np.uint64))
    starts[0] = 2
    assert s.starts.tolist() == [0, 3]
    with pytest.raises(TypeError):
        s.starts[0] = 2


def test_a_set_takes_unsigned_ordered_pairs_only():
    for starts in (np.array([0, 3]), array("q", [0, 3]), [0, 3], np.array([0.0, 3.0])):
        with pytest.raises(TypeError):  # signed, not a buffer, or not integers
            IntervalSet(starts, np.array([5, 4], np.uint64))
    with pytest.raises(ValueError, match="start < end"):  # columns of two lengths
        IntervalSet(array("Q", [0]), np.array([5, 4], np.uint64))
    # a bad pair, first or last, is refused when the set is first profiled
    for starts in (np.array([0, 4], np.uint64), np.array([5, 3], np.uint32)):
        s = IntervalSet(starts, np.array([5, 4], np.uint64))
        for profiled in ("compressed", "span", "compressed"):  # never cached
            with pytest.raises(ValueError, match="^every interval needs start < end$"):
                getattr(s, profiled)
        for solve in (lambda: solve_exact(s, 3), lambda: approx_prune(s, 3),
                      lambda: decide(s, 3, 1)):
            with pytest.raises(ValueError, match="^every interval needs start < end$"):
                solve()
    s = IntervalSet(np.array([0, 3], np.uint8), array("Q", [5, MAX_COORD]))
    assert pairs_of(s) == [(0, 5), (3, MAX_COORD)]

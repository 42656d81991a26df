import numpy as np
import pytest
from hypothesis import given, strategies as st

from covprune import Interval, IntervalSet, coverage_profile, score_subset
from covprune.intervals import MAX_COORD, segment_cov

from conftest import DEMO_PAIRS, iset, count_cover, interval_pairs, reference_profile


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(5, 5)
    with pytest.raises(ValueError):
        Interval(7, 3)
    with pytest.raises(ValueError):
        Interval(-1, 3)


def test_interval_length():
    assert Interval(2, 6).length == 4


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
    # cross-check every segment against direct counting
    assert_segments_match_point_count(prof, DEMO_PAIRS)
    # the set computes its profile once
    assert demo.compressed is demo.compressed
    assert demo.compressed.segment_cov.tolist() == prof.segment_cov.tolist()


def test_profile_empty():
    prof = coverage_profile(IntervalSet(()))
    assert prof.delimiters.dtype == np.uint64
    assert len(prof.delimiters) == prof.num_segments == 0


def test_profile_area_identity(demo):
    # sum of cov * segment length equals total interval length
    prof = coverage_profile(demo)
    d = prof.delimiters.tolist()
    area = sum(c * (d[j + 1] - d[j]) for j, c in enumerate(prof.segment_cov.tolist()))
    assert area == sum(iv.length for iv in demo)


def test_mincov_span(demo):
    # the segments tile the span, so a gap is a segment of coverage 0
    assert coverage_profile(demo).segment_cov.min() == 2
    assert coverage_profile(iset([(0, 5)])).segment_cov.min() == 1
    assert coverage_profile(iset([(0, 2), (3, 5)])).segment_cov.tolist() == [1, 0, 1]
    # the empty set has no segment; its mincov is 0 by convention
    assert score_subset(IntervalSet(()), (), "all").achieved_mincov == 0


def test_maxcov(demo):
    assert coverage_profile(demo).segment_cov.max() == 4
    assert coverage_profile(iset([(0, 5)])).segment_cov.max() == 1
    assert coverage_profile(iset([(0, 5), (0, 5), (0, 5)])).segment_cov.max() == 3
    assert score_subset(IntervalSet(()), (), "all").achieved_maxcov == 0


def test_cov_at(demo):
    # a point has the coverage of the last segment starting at or before it
    delims, _, _, cov = coverage_profile(demo)

    def seg(p):
        return int(np.searchsorted(delims, p, "right")) - 1

    assert cov[seg(1)] == 4  # A, B, D, E
    assert cov[seg(8)] == 2  # E, F
    # 10 is the last delimiter: no segment holds it or anything beyond
    assert seg(10) == seg(999) == len(cov)


def test_mincov_over_windows(demo):
    # a window is a run of segments; a subset scored on its parent's
    # segments has coverage 0 wherever it leaves the parent's span bare
    delims, lo, hi, cov = coverage_profile(demo)
    assert cov[1:4].min() == 3  # the points [1, 4)
    only_e = segment_cov(lo[[4]], hi[[4]], len(delims))  # E = [1, 10)
    assert only_e.tolist() == [0, 1, 1, 1, 1, 1, 1]
    assert score_subset(demo, [4], "E").achieved_mincov == 0


def test_span(demo):
    assert demo.span == Interval(0, 10)
    assert IntervalSet(()).span is None


def test_subset_keeps_indices(demo):
    sub = demo.subset([1, 4])
    assert sub.items == (Interval(0, 2), Interval(1, 10))


@given(interval_pairs)
def test_profile_matches_point_count(pairs):
    assert_segments_match_point_count(coverage_profile(iset(pairs)), pairs)


@given(interval_pairs)
def test_mincov_le_maxcov(pairs):
    cov = coverage_profile(iset(pairs)).segment_cov
    assert 0 <= cov.min() <= cov.max() <= len(pairs)


@given(interval_pairs, st.data())
def test_removal_lowers_coverage_exactly_on_span(pairs, data):
    idx = data.draw(st.integers(0, len(pairs) - 1))
    delims, lo, hi, cov = coverage_profile(iset(pairs))
    rest = np.arange(len(pairs)) != idx
    drop = cov - segment_cov(lo[rest], hi[rest], len(delims))
    assert drop.tolist() == [int(lo[idx] <= j < hi[idx]) for j in range(len(cov))]


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
        delims, lo, hi, cov = coverage_profile(s)
        assert delims.dtype == np.uint64
        assert delims.tolist() == ref_delims
        assert [int(delims[j]) for j in lo] == [a for a, _ in pairs]
        assert [int(delims[j]) for j in hi] == [b for _, b in pairs]
        assert cov.tolist() == ref_cov

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covprune import (Interval, IntervalSet, coverage_profile, cov_at,
                      maxcov, mincov_span, mincov_over)
from covprune.intervals import MAX_COORD, compress, segment_cov

from conftest import DEMO_PAIRS, iset, count_cover, interval_pairs


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(5, 5)
    with pytest.raises(ValueError):
        Interval(7, 3)
    with pytest.raises(ValueError):
        Interval(-1, 3)


def test_interval_covers():
    iv = Interval(2, 6)
    assert iv.covers(2) and iv.covers(5)
    assert not iv.covers(6) and not iv.covers(1)
    assert iv.length == 4


def test_profile_single_interval():
    prof = coverage_profile(iset([(0, 5)]))
    assert prof.delimiters == (0, 5)
    assert prof.segment_cov == (1,)


def test_profile_demo(demo):
    prof = coverage_profile(demo)
    assert prof.delimiters == (0, 1, 2, 3, 4, 6, 8, 10)
    assert prof.segment_cov == (2, 4, 4, 3, 4, 3, 2)
    # cross-check every integer point against direct counting
    for p in range(-1, 12):
        assert prof.value_at(p) == count_cover(DEMO_PAIRS, p)


def test_profile_empty():
    prof = coverage_profile(IntervalSet(()))
    assert prof.delimiters == () and prof.segment_cov == ()


def test_profile_area_identity(demo):
    # sum of cov * segment length equals total interval length
    prof = coverage_profile(demo)
    area = sum(c * (prof.delimiters[j + 1] - prof.delimiters[j])
               for j, c in enumerate(prof.segment_cov))
    assert area == sum(iv.length for iv in demo)


def test_mincov_span(demo):
    assert mincov_span(demo) == 2
    assert mincov_span(iset([(0, 5)])) == 1
    assert mincov_span(iset([(0, 2), (3, 5)])) == 0  # gap at [2,3)
    assert mincov_span(IntervalSet(())) == 0


def test_maxcov(demo):
    assert maxcov(demo) == 4
    assert maxcov(iset([(0, 5)])) == 1
    assert maxcov(iset([(0, 5), (0, 5), (0, 5)])) == 3
    assert maxcov(IntervalSet(())) == 0


def test_cov_at(demo):
    assert cov_at(demo, 1) == 4  # A, B, D, E
    assert cov_at(demo, 8) == 2  # E, F
    assert cov_at(demo, 10) == 0
    assert cov_at(demo, 999) == 0


def test_mincov_over_windows(demo):
    assert mincov_over(demo, 0, 10) == 2
    assert mincov_over(demo, 1, 4) == 3
    # windows poking outside the covered region count uncovered points as 0
    assert mincov_over(demo, 0, 11) == 0
    assert mincov_over(iset([(5, 9)]), 0, 9) == 0
    with pytest.raises(ValueError):
        mincov_over(demo, 4, 4)


def test_span(demo):
    assert demo.span == Interval(0, 10)
    assert IntervalSet(()).span is None


def test_subset_keeps_indices(demo):
    sub = demo.subset([1, 4])
    assert sub.items == (Interval(0, 2), Interval(1, 10))


@given(interval_pairs, st.integers(-2, 60))
def test_profile_matches_point_count(pairs, p):
    prof = coverage_profile(iset(pairs))
    assert prof.value_at(p) == count_cover(pairs, p)


def test_profile_matches_point_count_bulk():
    import random
    rng = random.Random(31)
    for _ in range(1000):
        pairs = [(s, s + rng.randint(1, 12))
                 for s in (rng.randrange(50) for _ in range(rng.randint(1, 12)))]
        s = iset(pairs)
        prof = coverage_profile(s)
        p = rng.randrange(-2, 70)
        assert prof.value_at(p) == cov_at(s, p) == count_cover(pairs, p)


@given(interval_pairs)
def test_mincov_le_maxcov(pairs):
    s = iset(pairs)
    assert mincov_span(s) <= maxcov(s)


@given(interval_pairs, st.data())
def test_removal_lowers_coverage_exactly_on_span(pairs, data):
    idx = data.draw(st.integers(0, len(pairs) - 1))
    s = iset(pairs)
    removed = pairs[idx]
    rest = iset(pairs[:idx] + pairs[idx + 1:])
    for p in range(0, max(e for _, e in pairs) + 2):
        drop = cov_at(s, p) - cov_at(rest, p)
        assert drop == (1 if removed[0] <= p < removed[1] else 0)


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
        prof = coverage_profile(s)
        delims, lo, hi = compress(s)
        assert delims.dtype == np.uint64
        assert [int(d) for d in delims] == list(prof.delimiters)
        assert [int(delims[j]) for j in lo] == [a for a, _ in pairs]
        assert [int(delims[j]) for j in hi] == [b for _, b in pairs]
        assert segment_cov(lo, hi, len(delims)).tolist() == list(prof.segment_cov)

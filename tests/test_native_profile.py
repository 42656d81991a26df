"""The compiled coverage profile and chain-network layout against their
numpy references on the same interval sets, the profile's summary
included, and the checks the network layout makes before it writes."""

from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covprune import CoverageProfile, IntervalSet, _native, build_network

from conftest import iset
from reference_kernels import argsort_network, argsort_profile

MAX_COORD = 2**64 - 1


def assert_identical(a, b):
    """Two profiles or two networks agree field by field, dtypes included."""
    assert type(a) is type(b)
    for x, y in zip(a, b):
        if isinstance(y, np.ndarray):
            x = np.asarray(x)
            assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all()
        else:
            assert x == y


def assert_kernels_match_references(s: IntervalSet):
    profile = argsort_profile(s)
    assert_identical(s.compressed, profile)
    net = build_network(s)
    assert_identical(net, argsort_network(profile))
    # the interval arcs, made on access from `lo` and `hi`, run from lo + 1 to hi + 1
    assert np.array_equal(net.interval_arcs, np.column_stack((profile.lo + 1, profile.hi + 1)))


# starts from small pools, so reads share coordinates, and from wide ones,
# so the radix sort sees every digit; ends a few apart, so some reads span
# one segment and run beside a backbone arc
coords = st.one_of(st.integers(0, 40), st.integers(2**32 - 20, 2**32 + 20),
                   st.integers(MAX_COORD - 40, MAX_COORD - 1), st.integers(0, MAX_COORD - 1))
reads = st.tuples(coords, st.integers(1, 12)).map(lambda r: (r[0], min(r[0] + r[1], MAX_COORD)))


@settings(max_examples=400, deadline=None)
@given(st.lists(reads, min_size=1, max_size=60), st.booleans(), st.randoms())
def test_kernels_match_their_twins(pairs, in_order, rng):
    if in_order:  # a sorted file: the starts need no radix pass
        pairs.sort()
    else:
        rng.shuffle(pairs)
    pairs += [rng.choice(pairs) for _ in range(rng.randint(0, 5))]  # duplicates
    assert_kernels_match_references(iset(pairs))


def test_kernels_match_their_twins_on_a_hundred_thousand_reads():
    rng = np.random.default_rng(3201)
    n = 100_000
    for span, length in ((3_000_000, (100, 300)), (2**64 - 2**21, (1, 2**20))):
        starts = rng.integers(0, span, n, dtype=np.uint64)
        ends = starts + rng.integers(*length, n, dtype=np.uint64)
        assert_kernels_match_references(IntervalSet(starts, ends))
        order = np.lexsort((ends, starts))
        assert_kernels_match_references(IntervalSet(starts[order], ends[order]))


@pytest.mark.parametrize("pairs, summary", [
    ([], (0, 0, 0)),
    ([(3, 9)], (1, 1, 1)),
    ([(0, 2), (5, 9)], (0, 1, 2)),  # a gap of coverage 0 between the reads
    ([(0, MAX_COORD), (0, 1), (MAX_COORD - 1, MAX_COORD)], (1, 2, 5)),
], ids=["empty", "one-read", "gap", "extreme-coordinates"])
def test_the_profile_summary(pairs, summary):
    """mincov, maxcov and spanned of the kernel's profile, as written out
    here and as the reference computes them from its own coverage."""
    s = iset(pairs)
    got = s.compressed[4:7]
    assert got == summary == argsort_profile(s)[4:7]
    assert all(type(x) is int for x in got)


def network_profile(lo, hi) -> CoverageProfile:
    """A hand-built profile over delimiters 0, 5, 8 of reads spanning
    delimiter indices [lo, hi), in chain order."""
    return CoverageProfile(np.array([0, 5, 8], np.uint64), np.array(lo), np.array(hi),
                           np.array([1, 1]), 1, 1, 2, np.arange(len(lo)))


@pytest.mark.parametrize("lo, hi", [([0, -1], [2, 1]), ([0, 1], [2, 3]), ([0, 1], [2, 1]),
                                    ([0, 2], [2, 1]), ([0], [2, 2])],
                         ids=["lo<0", "hi>m-1", "lo=hi", "lo>hi", "lengths"])
def test_build_network_rejects_a_bad_profile(lo, hi):
    """Read indices that leave the chain over delimiters 0, 5, 8: the
    layout refuses them before it writes anything, called directly or
    by `build_network`; columns of two lengths `build_network` refuses
    before its kernel runs."""
    spy = mock.Mock(wraps=_native.load_library())
    s = iset([(0, 5), (5, 8)])
    with mock.patch.object(_native, "load_library", lambda: spy):
        s.__dict__["compressed"] = network_profile(lo, hi)
        with pytest.raises(ValueError, match="differ in length" if len(lo) != len(hi)
                           else "covprune_network: an index or a value out of bounds"):
            build_network(s)
        s.__dict__["compressed"] = network_profile([0, 1], [1, 2])
        assert build_network(s).nv == 5
    assert spy.covprune_network.call_count == 1 + (len(lo) == len(hi))
    if len(lo) == len(hi):  # called directly, the kernel writes nothing before it refuses
        lib, n, m = _native.load_library(), 2, 3
        first, adj = array("q", [-9]) * (m + 3), array("q", [-9]) * 2 * (m + 1 + n)
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_network(n, m, array("q", lo), array("q", hi), first, adj)
        assert {*first, *adj} == {-9}

"""The compiled coverage profile and chain-network layout against their
numpy references on the same interval sets, and the checks
`build_network` makes before its kernel lays out a network."""

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
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all()
        else:
            assert x == y


def assert_kernels_match_references(s: IntervalSet):
    profile = argsort_profile(s)
    assert_identical(s.compressed, profile)
    assert_identical(build_network(s), argsort_network(profile))


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
        assert_kernels_match_references(IntervalSet.from_arrays(starts, ends))
        order = np.lexsort((ends, starts))
        assert_kernels_match_references(IntervalSet.from_arrays(starts[order], ends[order]))


@pytest.mark.parametrize("lo, hi", [([0, -1], [2, 1]), ([0, 1], [2, 3]), ([0, 1], [2, 1]),
                                    ([0, 2], [2, 1]), ([0], [2, 2])],
                         ids=["lo<0", "hi>m-1", "lo=hi", "lo>hi", "lengths"])
def test_build_network_rejects_a_bad_profile(lo, hi):
    """A hand-built profile over delimiters 0, 5, 8 whose read indices
    leave the chain: `build_network` raises before its kernel runs."""
    spy = mock.Mock(wraps=_native.load_library())
    s = iset([(0, 5), (5, 8)])
    with mock.patch.object(_native, "load_library", lambda: spy):
        s.__dict__["compressed"] = CoverageProfile(
            np.array([0, 5, 8], np.uint64), np.array(lo), np.array(hi), np.array([1, 1]))
        with pytest.raises(ValueError, match="delimiter range"):
            build_network(s)
        s.__dict__["compressed"] = CoverageProfile(
            np.array([0, 5, 8], np.uint64), np.array([0, 1]), np.array([1, 2]), np.array([1, 1]))
        assert build_network(s).nv == 5
    assert spy.covprune_network.call_count == 1  # the good profile's call only

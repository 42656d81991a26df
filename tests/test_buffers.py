"""The argument type every kernel pointer is declared with: it takes any
C-contiguous buffer of the declared item type, `array.array`, read-only
`memoryview` or numpy array alike, and refuses anything else with
TypeError before the kernel runs."""

from array import array

import numpy as np
import pytest

from covprune import _native
from covprune.intervals import segment_cov

SENTINEL = [-9, -9]


def min_max(values, out):
    _native.load_library().covprune_min_max(len(values), values, out)


@pytest.mark.parametrize("values", [array("q", [5, 2, 7]), memoryview(array("q", [5, 2, 7])),
                                    memoryview(array("q", [5, 2, 7])).toreadonly(),
                                    np.array([5, 2, 7]), np.array([5, 2, 7], np.int64)],
                         ids=["array", "memoryview", "read-only", "numpy", "numpy-int64"])
def test_any_contiguous_int64_buffer_is_taken(values):
    for out in (array("q", SENTINEL), np.array(SENTINEL)):
        min_max(values, out)
        assert out.tolist() == [2, 7]


@pytest.mark.parametrize("values, out", [
    (array("i", [5, 2, 7]), array("q", SENTINEL)),  # 32-bit items where 64-bit ones go
    (array("Q", [5, 2, 7]), array("q", SENTINEL)),  # unsigned where signed ones go
    (memoryview(array("q", [5, 0, 2, 0, 7]))[::2], array("q", SENTINEL)),  # strided
    (np.arange(6)[::2], array("q", SENTINEL)),  # strided numpy
    ([5, 2, 7], array("q", SENTINEL)),  # no buffer at all
    (array("q", [5, 2, 7]), memoryview(array("q", SENTINEL)).toreadonly()),  # read-only output
    (array("q", [5, 2, 7]), np.array(SENTINEL, np.int32)),  # an output of another type
], ids=["int32", "uint64", "strided", "strided-numpy", "list", "read-only-out", "int32-out"])
def test_a_refused_buffer_never_reaches_the_kernel(values, out):
    # the kernel always writes its output: an untouched one shows it never ran
    with pytest.raises(TypeError):
        min_max(values, out)
    assert list(out) == SENTINEL


def test_only_an_optional_buffer_may_be_null():
    lib, cov = _native.load_library(), array("q", [0, 0, 0])
    lo, hi = array("q", [0, 1]), array("q", [2, 2])
    assert lib.covprune_recount(2, None, 2, lo, hi, 3, cov) == 0  # every read
    assert cov.tolist() == [1, 2, 0]
    with pytest.raises(TypeError):
        lib.covprune_recount(2, None, 2, None, hi, 3, cov)


def test_the_general_loops_check_their_indices():
    lib, mask = _native.load_library(), array("B", [0, 0, 0])
    # the record map holds a third, valid entry past the two the kernel may read
    for idx, record in (([2], [0, 1, 0]), ([1], [0, 3, 0]), ([-1], [0, 1, 0])):
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_scatter(1, array("q", idx), 2, array("q", record), 3, mask)
    assert mask.tolist() == [0, 0, 0]
    assert lib.covprune_scatter(2, array("q", [0, 1]), 2, array("q", [2, 0]), 3, mask) == 0
    assert mask.tolist() == [1, 0, 1]
    assert lib.covprune_spans(2, array("q", [0, 1]), array("q", [2, 3]), 3) == 4
    for lo, hi in (([0, 1], [2, 4]), ([1, 1], [1, 3]), ([-1, 0], [1, 1])):
        assert lib.covprune_spans(2, array("q", lo), array("q", hi), 3) == -1
    assert _native.select(array("q", [0, 3, 0, 3]), 3).tolist() == [1, 3]
    assert _native.extremes(array("q")) == (0, 0)


def test_the_sweeps_check_their_order_and_spans():
    """A sweep refuses an order index past its n reads, or a span outside
    its segments, before it changes anything; each buffer holds one valid
    entry more than the kernel may read."""
    lib = _native.load_library()
    for order, lo, hi in (([1], [0, 0], [1, 1]), ([0], [1, 0], [1, 1]), ([0], [0, 0], [3, 1])):
        deleted, counts = array("q", [0, 0]), array("q", [0, 0, 0])
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_flat_sweep(2, array("q", [5, 5]), array("i", [0, 0]), 1,
                                    array("q", order), array("q", lo), array("q", hi), 1,
                                    deleted, counts)
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_sweep(2, 2, array("q", [5, 5]), 1, array("q", order), array("q", lo),
                               array("q", hi), 1, *(array("q", [0]) * 4 for _ in range(3)),
                               deleted, counts)
        assert deleted.tolist() == [0, 0] and counts.tolist() == [0, 0, 0]


def test_a_recount_takes_rising_indices_only():
    lo, hi = array("q", [0, 1, 0]), array("q", [2, 2, 1])
    assert segment_cov(lo, hi, 3, array("q", [0, 2])).tolist() == [2, 1]
    for kept in ([2, 0], [1, 1], [3], [-1]):
        with pytest.raises(ValueError, match="out of bounds"):
            segment_cov(lo, hi, 3, array("q", kept))
    with pytest.raises(ValueError, match="out of bounds"):
        segment_cov(lo, array("q", [2, 2, 3]), 3)  # a span past the last delimiter

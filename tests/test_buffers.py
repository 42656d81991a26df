"""The compiled module's argument checks: a kernel pointer takes any
C-contiguous buffer of its item type, `array.array`, read-only
`memoryview` or numpy array alike, and anything else, like a bad
argument count, an integer beyond int64 or a buffer shorter than the
counts imply, raises before the kernel runs."""

from array import array

import numpy as np
import pytest

from covprune import _native
from covprune.intervals import segment_cov

SENTINEL = [-9, -9]


def min_max(values, out):
    _native.load_library().covprune_min_max(len(values), values, out)


# numpy's int64 exports the item format 'l', array's 'q'
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


@pytest.mark.parametrize("out", [bytes(16), None], ids=["bytes", "none"])
def test_an_output_takes_a_writable_buffer_only(out):
    with pytest.raises(TypeError):
        min_max(array("q", [5, 2, 7]), out)


@pytest.mark.parametrize("args", [
    (3, array("q", [5, 2, 7])),  # too few
    (3, array("q", [5, 2, 7]), array("q", SENTINEL), 0),  # too many
    (2**63, array("q", [5, 2, 7]), array("q", SENTINEL)),  # beyond int64
    (-2**63 - 1, array("q", [5, 2, 7]), array("q", SENTINEL)),
    (3.0, array("q", [5, 2, 7]), array("q", SENTINEL)),  # not an integer
    ("3", array("q", [5, 2, 7]), array("q", SENTINEL)),
], ids=["too-few", "too-many", "above-int64", "below-int64", "float", "str"])
def test_a_bad_argument_list_never_reaches_the_kernel(args):
    with pytest.raises((TypeError, OverflowError)):
        _native.load_library().covprune_min_max(*args)
    assert all(list(a) == SENTINEL for a in args[2:3])


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


def test_the_sweep_checks_its_spans_and_cells():
    """The sweep refuses a span outside its segments, under either store,
    and a coverage count beyond the flat store's int32 cells, before it
    writes its kept reads or its counts; each buffer holds one valid
    entry more than the kernel may read."""
    lib = _native.load_library()
    refused = [(lo, hi, [5, 5], flat) for lo, hi in (([1, 0], [1, 1]), ([0, 0], [3, 1]),
                                                    ([-1, 0], [1, 1])) for flat in (0, 1)]
    refused.append(([0, 0], [1, 1], [2**31, 5], 1))
    for lo, hi, cov, flat in refused:
        kept, counts = array("q", [-9, -9]), array("q", [-9] * 4)
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_sweep(1, array("q", lo), array("q", hi), 2, array("q", cov), 1, flat,
                               kept, counts)
        assert kept.tolist() == [-9, -9] and counts.tolist() == [-9] * 4
    # the same count of 2**31 passes the tree
    assert lib.covprune_sweep(1, array("q", [0]), array("q", [1]), 2, array("q", [2**31, 5]), 1,
                              0, kept, counts) == 0


def test_a_recount_takes_rising_indices_only():
    lo, hi = array("q", [0, 1, 0]), array("q", [2, 2, 1])
    assert segment_cov(lo, hi, 3, array("q", [0, 2])).tolist() == [2, 1]
    for kept in ([2, 0], [1, 1], [3], [-1]):
        with pytest.raises(ValueError, match="out of bounds"):
            segment_cov(lo, hi, 3, array("q", kept))
    with pytest.raises(ValueError, match="out of bounds"):
        segment_cov(lo, array("q", [2, 2, 3]), 3)  # a span past the last delimiter


def test_radix_scratch_beyond_memory_raises_memory_error():
    # the module allocates the sweep's radix scratch, 5n + 2048 items
    # here, and asks for none it could not address
    kept, counts = array("q", SENTINEL), array("q", SENTINEL * 2)
    with pytest.raises(MemoryError):
        _native.load_library().covprune_sweep(2**61, array("q", [0]), array("q", [1]), 1,
                                              array("q", [5]), 1, 1, kept, counts)
    assert list(kept) == SENTINEL and list(counts) == SENTINEL * 2


def q(*values):
    return array("q", values)


def short_buffer_calls():
    """Per general loop, a call whose counts ask more of one buffer than
    it holds, the output among them where the loop has one; and a
    negative count."""
    return {
        "min_max": (3, q(5, 2, 7), q(9)),  # two items out into a one-item buffer
        "select": (3, q(0, 1, 0), 0, q(-9, -9)),
        "spans": (3, q(0, 1, 2), q(1, 2), 3),
        # kept holds one of the two reads; then counts three of four slots
        "sweep": (2, q(0, 1), q(1, 2), 2, q(5, 5), 1, 1, q(-9), q(-9) * 4),
        "sweep-counts": (2, q(0, 1), q(1, 2), 2, q(5, 5), 1, 0, q(-9, -9), q(-9) * 3),
        "unordered": (3, array("Q", [0, 1, 2]), array("Q", [1, 2])),
        "recount": (2, q(0, 1), 2, q(0, 1), q(1, 2), 3, q(-9, -9)),
        "recount-negative": (0, None, 0, q(), q(), -1, q(-9)),
        "group": (2, q(0, 0), 1, array("Q", [0, 1]), array("Q", [1, 2]), q(-9), q(-9, -9),
                  array("Q", [9, 9]), array("Q", [9, 9])),
        "runs": (1, q(0), q(5), 3, q(-9, -9)),
        "scatter": (1, q(0), 1, q(2), 3, array("B", [0, 0])),
        "lines": (2, array("B", [1]), q(0, 0), q(4, 4), 4, b"0 1\n"),  # a one-record mask
        # record columns of two items where the count, max_records, says three
        "parse": (b"0 1\n", 4, 2, 1, 3, array("Q", [9] * 3), array("Q", [9] * 2), q(-9) * 3,
                  q(-9) * 6, q(-9) * 3, q(-9) * 3),
        "add": (3, q(1, 1, 1, 1), 2, 5),  # reaches item 4 of 4
    }


@pytest.mark.parametrize("name", sorted(short_buffer_calls()))
def test_a_buffer_shorter_than_its_count_never_reaches_the_loop(name):
    args = short_buffer_calls()[name]
    before = [bytes(a) for a in args if isinstance(a, (array, bytearray))]
    kernel = getattr(_native.load_library(), f"covprune_{name.split('-')[0]}")
    with pytest.raises(ValueError, match="shorter than the counts imply"):
        kernel(*args)
    assert [bytes(a) for a in args if isinstance(a, (array, bytearray))] == before


def test_buffers_of_exactly_the_counted_size_are_taken():
    lib = _native.load_library()
    values = q(1, 1, 1, 1, 1)
    lib.covprune_add(3, values, 2, 5)  # items 0, 2 and 4
    assert values.tolist() == [6, 1, 6, 1, 6]
    assert lib.covprune_lines(1, array("B", [1]), q(0), q(4), 4, b"0 1\n") == b"0 1\n"


@pytest.mark.parametrize("data, mask, want", [
    (b"", [], b""), (b"0 1", [0], b""), (b"0 1", [1], b"0 1\n"),
    (b"0 1\r\n2 3", [1, 1], b"0 1\r\n2 3\n"), (b"0 1\n2 3\n", [0, 1], b"2 3\n"),
], ids=["none", "n1-unkept", "n1-unterminated", "crlf-then-unterminated", "last"])
def test_the_kept_lines_come_back_as_one_bytearray(data, mask, want):
    lines = data.splitlines(keepends=True)
    at = array("q", [0]) * len(lines)
    for i, line in enumerate(lines[:-1]):
        at[i + 1] = at[i] + len(line)
    got = _native.load_library().covprune_lines(
        len(mask), array("B", mask), at, array("q", map(len, lines)), len(data), data)
    assert type(got) is bytearray and got == want


def test_the_reader_stops_at_its_record_columns():
    """64 data lines into record columns of one slot: the reader writes
    record 0, then refuses record 1 and raises, and nothing past a column's
    one slot changes; each column here holds one guard item past it."""
    data = b"0 1\n" * 64
    columns = [array("Q", [7, 7]), array("Q", [7, 7]), q(7, 7), q(7, 7)]
    runs, info = q(-9) * 3, q(-9) * 6
    with pytest.raises(ValueError, match="out of bounds"):
        _native.load_library().covprune_parse(data, len(data), 2, 1, 1, columns[0], columns[1],
                                              runs, info, columns[2], columns[3])
    assert [list(column) for column in columns] == [[0, 7], [1, 7], [0, 7], [4, 7]]
    # at exactly the room it needs, the same call reads every record
    columns = [array("Q", [7]) * 64, array("Q", [7]) * 64, q(7) * 64, q(7) * 64]
    assert _native.load_library().covprune_parse(data, len(data), 2, 1, 64, columns[0],
                                                 columns[1], runs, info, columns[2],
                                                 columns[3]) == 64
    assert list(columns[2]) == list(range(0, 256, 4))

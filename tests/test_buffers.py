"""The compiled module's argument checks: a kernel pointer takes any
C-contiguous buffer of its item type, `array.array`, read-only
`memoryview` or numpy array alike, and anything else, like a bad
argument count, an integer beyond int64 or a buffer shorter than the
counts imply, raises before the kernel runs."""

import re
from array import array
from pathlib import Path

import numpy as np
import pytest

from covprune import _native
from covprune.intervals import CoverageProfile, recount

SENTINEL = [-9, -9, -9]


def score_args(keep=None, reads=None):
    """covprune_score's arguments over three places, place p holding read
    (2, 0, 1)[p] over the one segment of two delimiters, the column
    `keep` keeping places 0 and 2 by default, and every output SENTINEL
    but `reads` when given: the kernel writes reads[0] whenever it runs
    on a read."""
    return (3, array("q", [1, 0, 1]) if keep is None else keep, array("q", [2, 0, 1]),
            array("q", [0, 0, 0]), array("q", [1, 1, 1]), 2,
            array("q", SENTINEL) if reads is None else reads, array("q", SENTINEL),
            array("q", SENTINEL))


# numpy's int64 exports the item format 'l', array's 'q'
@pytest.mark.parametrize("keep", [array("q", [1, 0, 1]), memoryview(array("q", [1, 0, 1])),
                                  memoryview(array("q", [1, 0, 1])).toreadonly(),
                                  np.array([1, 0, 1]), np.array([1, 0, 1], np.int64)],
                         ids=["array", "memoryview", "read-only", "numpy", "numpy-int64"])
def test_any_contiguous_int64_buffer_is_taken(keep):
    for out in (array("q", SENTINEL), np.array(SENTINEL)):
        assert _native.load_library().covprune_score(*score_args(keep, out)) == 2
        assert out.tolist() == [1, 2, -9]  # places 0 and 2 hold reads 2 and 1


@pytest.mark.parametrize("keep, out", [
    (array("i", [1, 0, 1]), array("q", SENTINEL)),  # 32-bit items where 64-bit ones go
    (array("Q", [1, 0, 1]), array("q", SENTINEL)),  # unsigned where signed ones go
    (memoryview(array("q", [1, 0, 0, 0, 1]))[::2], array("q", SENTINEL)),  # strided
    (np.array([1, 0, 0, 0, 1])[::2], array("q", SENTINEL)),  # strided numpy
    ([1, 0, 1], array("q", SENTINEL)),  # no buffer at all
    (array("q", [1, 0, 1]), memoryview(array("q", SENTINEL)).toreadonly()),  # read-only output
    (array("q", [1, 0, 1]), np.array(SENTINEL, np.int32)),  # an output of another type
], ids=["int32", "uint64", "strided", "strided-numpy", "list", "read-only-out", "int32-out"])
def test_a_refused_buffer_never_reaches_the_kernel(keep, out):
    # the kernel always writes its outputs: untouched ones show it never ran
    args = score_args(keep, out)
    with pytest.raises(TypeError):
        _native.load_library().covprune_score(*args)
    assert all(list(a) == SENTINEL for a in args[6:])


@pytest.mark.parametrize("out", [bytes(16), None], ids=["bytes", "none"])
def test_an_output_takes_a_writable_buffer_only(out):
    args = (*score_args()[:6], out, *score_args()[7:])
    with pytest.raises(TypeError):
        _native.load_library().covprune_score(*args)


@pytest.mark.parametrize("args", [
    score_args()[:-1],  # too few
    (*score_args(), 0),  # too many
    (2**63, *score_args()[1:]),  # beyond int64
    (-2**63 - 1, *score_args()[1:]),
    (3.0, *score_args()[1:]),  # not an integer
    ("3", *score_args()[1:]),
], ids=["too-few", "too-many", "above-int64", "below-int64", "float", "str"])
def test_a_bad_argument_list_never_reaches_the_kernel(args):
    with pytest.raises((TypeError, OverflowError)):
        _native.load_library().covprune_score(*args)
    assert all(list(a) == SENTINEL for a in args[6:9])


def test_no_kernel_takes_none():
    """No buffer is optional: None in place of any buffer argument of any
    kernel raises TypeError and leaves every buffer untouched, the
    score's keep column too, for which `score_subset` takes None as
    every read."""
    lib, args = _native.load_library(), score_args()
    with pytest.raises(TypeError):
        lib.covprune_score(3, None, *args[2:])
    assert all(list(a) == SENTINEL for a in args[6:])
    calls = short_buffer_calls()
    assert {name.split("-")[0] for name in calls} == {
        name[len("covprune_"):] for name in dir(lib) if name.startswith("covprune_")}
    for name, args in calls.items():
        for at, arg in enumerate(args):
            if isinstance(arg, (array, bytes)):
                before = [bytes(a) for a in args if isinstance(a, array)]
                with pytest.raises(TypeError):
                    getattr(lib, f"covprune_{name.split('-')[0]}")(*args[:at], None,
                                                                   *args[at + 1:])
                assert [bytes(a) for a in args if isinstance(a, array)] == before, name


def test_the_general_loops_check_their_indices():
    lib, mask = _native.load_library(), array("B", [0, 0, 0])
    # the record map holds a third, valid entry past the two the kernel may read
    for idx, record in (([2], [0, 1, 0]), ([1], [0, 3, 0]), ([-1], [0, 1, 0])):
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_scatter(1, array("q", idx), 2, array("q", record), 3, mask)
    assert mask.tolist() == [0, 0, 0]
    assert lib.covprune_scatter(2, array("q", [0, 1]), 2, array("q", [2, 0]), 3, mask) == 0
    assert mask.tolist() == [1, 0, 1]
    # no read and no segment: the extremes are 0 and 0
    assert recount(chain([], [], 1), array("q")) == (array("q"), array("q"), 0, 0)


def test_the_sweep_checks_its_spans_and_cells():
    """The sweep refuses a span outside its segments, under either store,
    and a coverage count beyond the flat store's int32 cells, before it
    writes its keep column or its counts; each buffer holds one valid
    entry more than the kernel may read."""
    lib = _native.load_library()
    refused = [(lo, hi, [5, 5], flat) for lo, hi in (([1, 0], [1, 1]), ([0, 0], [3, 1]),
                                                    ([-1, 0], [1, 1])) for flat in (0, 1)]
    refused.append(([0, 0], [1, 1], [2**31, 5], 1))
    for lo, hi, cov, flat in refused:
        keep, counts = array("q", [-9, -9]), array("q", [-9] * 4)
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_sweep(1, array("q", lo), array("q", hi), 2, array("q", cov), 1, flat,
                               keep, counts)
        assert keep.tolist() == [-9, -9] and counts.tolist() == [-9] * 4
    # the same count of 2**31 passes the tree, which deletes the read
    assert lib.covprune_sweep(1, array("q", [0]), array("q", [1]), 2, array("q", [2**31, 5]), 1,
                              0, keep, counts) == 0
    assert keep.tolist() == [0, -9]


def chain(lo, hi, m, order=None) -> CoverageProfile:
    """A hand-built profile over m delimiters of reads spanning delimiter
    indices [lo, hi), place p holding read order[p], by default p."""
    order = range(len(lo)) if order is None else order
    return CoverageProfile(array("Q", range(m)), array("q", lo), array("q", hi), None, 0, 0, 0,
                           array("q", order))


def test_a_recount_takes_a_0_1_keep_column_only():
    """The score of a keep column refuses a value other than 0 and 1, a
    span past the last delimiter, and an order that holds a read out of
    range or one read at two places, before it writes anything."""
    profile = chain([0, 1, 0], [2, 2, 1], 3, [2, 0, 1])
    # places 0 and 1 hold read 2, over [0, 2), and read 0, over [1, 2)
    assert recount(profile, array("q", [1, 1, 0])) == (array("q", [0, 2]), array("q", [1, 2]),
                                                       1, 2)
    for keep in ([2, 0, 0], [1, -1, 1], [0, 0, 2**63 - 1]):
        with pytest.raises(ValueError, match="out of bounds"):
            recount(profile, array("q", keep))
    # a span past the last delimiter, then reads past n, negative and held twice
    for bad in (chain([0, 1, 0], [2, 2, 3], 3), chain([0, 1, 0], [2, 2, 1], 3, [0, 3, 1]),
                chain([0, 1, 0], [2, 2, 1], 3, [0, -1, 1]),
                chain([0, 1, 0], [2, 2, 1], 3, [1, 0, 1])):
        with pytest.raises(ValueError, match="out of bounds"):
            recount(bad, array("q", [1, 1, 1]))


def test_the_reads_that_chain_places_hold():
    """The reads that the kept chain places hold come out rising, whatever
    the order of the places; a read out of range or held twice is refused
    before the reads are written, kept or not."""
    profile = chain([0, 1, 0], [2, 2, 1], 3, [2, 0, 1])
    assert recount(profile, array("q", [1, 0, 1]))[0].tolist() == [1, 2]
    assert recount(profile, array("q", [0, 0, 0]))[0].tolist() == []
    for keep, order in (([1, 0, 0], [3, 0, 1]), ([1, 0, 0], [-1, 0, 1]), ([0, 0, 0], [2, 0, 0]),
                        ([0, 1, 1], [2, 0, 0])):
        reads = array("q", [-9]) * 3
        with pytest.raises(ValueError, match="out of bounds"):
            _native.load_library().covprune_score(3, array("q", keep), array("q", order),
                                                  array("q", [0, 1, 0]), array("q", [2, 2, 1]),
                                                  3, reads, array("q", [-9] * 3),
                                                  array("q", [-9] * 2))
        assert reads.tolist() == [-9] * 3


def test_scratch_is_sized_by_counts_the_rule_has_bounded():
    """The module sizes a kernel's scratch by its counts only once the
    rule has checked them against the buffers: a count of 2**61 reads,
    whose 6n + 2048 items of profile scratch no memory holds, is refused
    as a count out of range, never asked of the allocator."""
    outputs = [array("Q", [9] * 3), *(array("q", SENTINEL) for _ in range(5))]
    with pytest.raises(ValueError, match="count out of range"):
        _native.load_library().covprune_profile(2**61, array("Q", [0]), array("Q", [1]),
                                                *outputs)
    assert list(outputs[0]) == [9] * 3 and all(list(a) == SENTINEL for a in outputs[1:])


def q(*values):
    return array("q", values)


def short_buffer_calls():
    """Per general loop, a call whose counts ask more of one buffer than
    it holds, the output among them where the loop has one; a negative
    count; and the max-flow's k and t out of range."""
    return {
        # three summary slots of which the buffer holds two; then no order
        "profile-summary": (1, array("Q", [0]), array("Q", [1]), array("Q", [9, 9]), q(-9),
                            q(-9), q(-9), q(-9, -9), q(-9, -9)),
        "profile-order": (1, array("Q", [0]), array("Q", [1]), array("Q", [9, 9]), q(-9),
                          q(-9), q(), q(-9, -9), q(-9) * 3),
        "network": (2, 3, q(0, 1), q(2), q(-9) * 6, q(-9) * 12),
        # keep holds one of the two places; then counts three of four slots
        "sweep": (2, q(0, 1), q(1, 2), 2, q(5, 5), 1, 1, q(-9), q(-9) * 4),
        "sweep-counts": (2, q(0, 1), q(1, 2), 2, q(5, 5), 1, 0, q(-9, -9), q(-9) * 3),
        # the keep column one of two places, then the order, the reads one
        # of two, cov two of three delimiters, extremes one of two; then
        # a negative m
        "score": (2, q(1), q(0, 1), q(0, 1), q(1, 2), 3, q(-9, -9), q(-9) * 3, q(-9, -9)),
        "score-order": (2, q(1, 1), q(0), q(0, 1), q(1, 2), 3, q(-9, -9), q(-9) * 3, q(-9, -9)),
        "score-reads": (2, q(1, 1), q(0, 1), q(0, 1), q(1, 2), 3, q(-9), q(-9) * 3, q(-9, -9)),
        "score-cov": (2, q(1, 1), q(0, 1), q(0, 1), q(1, 2), 3, q(-9, -9), q(-9, -9), q(-9, -9)),
        "score-extremes": (2, q(1, 1), q(0, 1), q(0, 1), q(1, 2), 3, q(-9, -9), q(-9) * 3,
                           q(-9)),
        "score-negative": (0, q(), q(), q(), q(), -1, q(), q(-9), q(-9, -9)),
        "group": (1, q(0), q(0), 2, 1, array("Q", [0, 1]), array("Q", [1, 2]), q(-9), q(-9, -9),
                  array("Q", [9, 9]), array("Q", [9, 9])),
        "group-runs": (2, q(0, 1), q(0), 2, 1, array("Q", [0, 1]), array("Q", [1, 2]),
                       q(-9, -9), q(-9, -9), array("Q", [9, 9]), array("Q", [9, 9])),
        "scatter": (1, q(0), 1, q(2), 3, array("B", [0, 0])),
        "lines": (2, array("B", [1]), q(0, 0), q(4, 4), 4, b"0 1\n"),  # a one-record mask
        # record columns of two items where the count, max_records, says three
        "parse": (b"0 1\n", 4, 1, 3, array("Q", [9] * 3), array("Q", [9] * 2), q(-9) * 3,
                  q(-9) * 6, q(-9) * 3, q(-9) * 3),
        # first holds two of its nv + 1 entries; then parent_arc one of two
        "max_flow": (2, q(0, 0), q(), q(), q(), 1, 0, q(), q(-9, -9)),
        "max_flow-marks": (2, q(0, 0, 0), q(), q(), q(), 1, 0, q(), q(-9)),
        # flow holds none of the one pair's items; then an odd arc count, 3
        # arcs whose last pair would need the flow's missing second item
        "max_flow-flow": (2, q(0, 1, 2), q(0, 1), q(), q(), 1, 0, q(), q(-9, -9)),
        "max_flow-odd": (2, q(0, 3, 3), q(2, 0, 1), q(), q(), 1, 0, q(0), q(-9, -9)),
        # k below 1, t below 0 and t above k, on buffers the call could run on
        "max_flow-k": (2, q(0, 1, 2), q(0, 1), q(), q(), 0, 0, q(0), q(-9, -9)),
        "max_flow-t": (2, q(0, 1, 2), q(0, 1), q(), q(), 1, -1, q(0), q(-9, -9)),
        "max_flow-t-above-k": (2, q(0, 1, 2), q(0, 1), q(), q(), 1, 2, q(0), q(-9, -9)),
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
    flow = q(0)  # one pair of arcs, one flow: the source's arc, capacity k = 3
    assert lib.covprune_max_flow(2, q(0, 1, 2), q(0, 1), q(), q(), 3, 0, flow, q(-9, -9)) == 1
    assert flow.tolist() == [3]
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


@pytest.mark.parametrize("at, size", [(-1, 4), (0, 0), (0, -2**63), (1, 4), (2**63 - 1, 1),
                                      (-2**63, 2**63 - 1)],
                         ids=["start-negative", "empty", "length-most-negative", "past-the-end",
                              "start-far-past", "wraps-around"])
def test_a_kept_line_outside_the_data_is_refused(at, size):
    """The second of two kept lines of b"0 1\\n", a line of `size` bytes at
    `at`, leaves the data: ValueError, with or without a first line
    counted; the same line unkept is never read."""
    lib = _native.load_library()
    for mask in ([1, 1], [0, 1]):
        with pytest.raises(ValueError, match="out of bounds"):
            lib.covprune_lines(2, array("B", mask), q(0, at), q(4, size), 4, b"0 1\n")
    assert lib.covprune_lines(2, array("B", [1, 0]), q(0, at), q(4, size), 4, b"0 1\n") == b"0 1\n"


def test_the_reader_stops_at_its_record_columns():
    """64 data lines into record columns of one slot: the reader writes
    record 0, then refuses record 1 and raises, and nothing past a column's
    one slot changes; each column here holds one guard item past it."""
    data = b"0 1\n" * 64
    columns = [array("Q", [7, 7]), array("Q", [7, 7]), q(7, 7), q(7, 7)]
    runs, info = q(-9) * 3, q(-9) * 6
    with pytest.raises(ValueError, match="out of bounds"):
        _native.load_library().covprune_parse(data, len(data), 1, 1, columns[0], columns[1],
                                              runs, info, columns[2], columns[3])
    assert [list(column) for column in columns] == [[0, 7], [1, 7], [0, 7], [4, 7]]
    # at exactly the room it needs, the same call reads every record
    columns = [array("Q", [7]) * 64, array("Q", [7]) * 64, q(7) * 64, q(7) * 64]
    assert _native.load_library().covprune_parse(data, len(data), 1, 64, columns[0],
                                                 columns[1], runs, info, columns[2],
                                                 columns[3]) == 64
    assert list(columns[2]) == list(range(0, 256, 4))


def test_the_readme_tables_name_exactly_the_kernels():
    """The two kernel tables under README's "Compiled kernels" list each
    of the module's `covprune_*` functions once and nothing else."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Compiled kernels\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    named = [name for row in rows for name in re.findall(r"`(covprune_\w+)`", row)]
    kernels = [name for name in dir(_native.load_library()) if name.startswith("covprune_")]
    assert sorted(named) == sorted(kernels)


def test_the_readme_names_only_kernels_the_module_exports():
    """Every `covprune_*` name anywhere in README, tables and prose, is a
    function of the module, and each of them is named, so that a removed
    kernel does not stay documented."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    kernels = {name for name in dir(_native.load_library()) if name.startswith("covprune_")}
    assert set(re.findall(r"\bcovprune_\w+", text)) == kernels

"""Reading and writing interval instances.

Two line formats: "plain" (two whitespace-separated non-negative
integers per line) and "bed3" (name, start, end), told apart by the
field count of the first data line.  Comment lines starting with '#'
and blank lines are skipped.  BED3 files hold several
chromosomes; each is an independent instance on its own coordinate line.
Every input is read in one pass of the compiled kernel `covprune_parse`
(`_parse.c`, whose header gives the grammar); at a bad line it stops and
says why, and a `ParseError` names the line.  The kernel also gives
every record's line as a byte range of the input, so kept records leave
as the lines they were read from (`InstanceFile.kept_lines`), not
re-formatted from their numbers, and its runs of one name are what the
split per chromosome (`covprune_group`) reads.
"""

from array import array
from collections import namedtuple
from functools import cached_property

from .intervals import MAX_COORD, IntervalSet, _kernels

_DETECT = {2: "plain", 3: "bed3"}  # by the first data line's field count
# why covprune_parse stopped at a line, numbered as in _parse.c
_BAD_FIELDS, _BAD_BYTE, _BAD_START, _BAD_END, _BAD_ORDER = range(1, 6)


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Record(namedtuple("Record", "chrom start end")):  # chrom None in a plain file
    __slots__ = ()


class InstanceFile:
    """Parsed input in file order: record i is [starts[i], ends[i]),
    written in `data`, the input's bytes, as the line of `line_len[i]`
    bytes at `line_at[i]`, its terminator included.  The records come in
    runs of one chromosome: run r starts at record `run_at[r]`, ends
    where the next one starts or at the last record, and lies on
    `chroms[run_code[r]]` (sorted names; `(None,)` for plain, whose
    records, if any, are one run of code 0).  The columns are
    `array.array`s, uint64 for the endpoints and int64 for the rest."""

    def __init__(self, chroms: tuple[str | None, ...], run_at: array, run_code: array,
                 starts: array, ends: array, data: bytes, line_at: array, line_len: array):
        self.chroms = chroms
        self.run_at, self.run_code, self.starts, self.ends = run_at, run_code, starts, ends
        self.data, self.line_at, self.line_len = data, line_at, line_len

    @cached_property
    def records(self) -> tuple[Record, ...]:
        ends = [*self.run_at[1:], len(self.starts)]
        chroms = [chrom for code, at, end in zip(self.run_code, self.run_at, ends)
                  for chrom in [self.chroms[code]] * (end - at)]
        return tuple(map(Record, chroms, self.starts, self.ends))

    def chromosomes(self) -> dict[str | None, tuple[IntervalSet, memoryview]]:
        """Split records per chromosome, by one counting sort of the runs.

        Returns, per chromosome, the interval set and the indices of its
        records in the original file order (so output can be mapped back).
        """
        n, groups = len(self.starts), len(self.chroms)
        first, order = array("q", [0]) * (groups + 1), array("q", [0]) * n
        starts, ends = array("Q", [0]) * n, array("Q", [0]) * n
        _kernels().covprune_group(len(self.run_at), self.run_at, self.run_code, n, groups,
                                  self.starts, self.ends, first, order, starts, ends)
        order, starts, ends = (memoryview(a).toreadonly() for a in (order, starts, ends))
        return {chrom: (IntervalSet(starts[a:b], ends[a:b]), order[a:b])
                for chrom, a, b in zip(self.chroms, first, first[1:]) if a < b}

    def kept_lines(self, keep) -> bytearray:
        """The input lines of the records the uint8 mask `keep` marks, as
        written, in file order; a last line without a terminator gets
        a newline."""
        if len(keep) != len(self.line_at):
            raise ValueError("the mask and the records differ in length")
        return _kernels().covprune_lines(len(keep), keep, self.line_at, self.line_len,
                                         len(self.data), self.data)


def _lines(data: bytes, end: int) -> int:
    """1 + the line ends in data[:end], a "\\r\\n" counted once: the
    number of the line that starts at `end`."""
    cr = data.count(b"\r", 0, end)
    return data.count(b"\n", 0, end) + 1 + (cr and cr - data.count(b"\r\n", 0, end))


def _coord_error(what: str, token: str) -> str:
    try:
        value = int(token)
    except ValueError:
        return f"{what} {token!r} is not an integer"
    if value < 0:
        return f"{what} {value} is negative"
    if value > MAX_COORD:
        return f"{what} {value} exceeds the largest coordinate {MAX_COORD}"
    return f"{what} {token!r} is not written in the digits 0-9 alone"  # +5, 1_000, -0


def _bad_line(data: bytes, fields: int, why: int, line_no: int, at: int,
              size: int) -> ParseError:
    """The ParseError of the line the reader stopped at, `size` bytes at `at`."""
    data.decode()  # a file that is not UTF-8 is reported as such first
    line = data[at:at + size]
    tokens = [token.decode() for token in line.split()]
    if why == _BAD_FIELDS:
        message = (f"{_DETECT[fields]} format needs {fields} fields, got {len(tokens)}"
                   if fields else f"expected 2 (plain) or 3 (bed3) fields, got {len(tokens)}")
    elif why == _BAD_BYTE:
        bad = next(c for c in line.decode()
                   if c in "\x7f\x85\u2028\u2029" or (c < " " and c != "\t"))
        message = f"control character or line break {bad!r}"
    elif why == _BAD_ORDER:
        message = f"start {int(tokens[-2])} must be < end {int(tokens[-1])}"
    else:
        message = (_coord_error("start", tokens[-2]) if why == _BAD_START
                   else _coord_error("end", tokens[-1]))
    return ParseError(line_no, message)


def _read(data: bytes) -> InstanceFile:
    """The instance in `data`, by one pass of `covprune_parse`."""
    lines = _lines(data, len(data))  # one slot per line
    starts, ends = array("Q", [0]) * lines, array("Q", [0]) * lines
    line_at, line_len, info = array("q", [0]) * lines, array("q", [0]) * lines, array("q", [0]) * 6
    # room for the runs of one name of a grouped file; a file of more is read
    # again with room for a run per line
    for room in (min(lines, 1024), lines):
        runs = array("q", [0]) * (3 * room)  # each its first record, its name's offset and size
        n = _kernels().covprune_parse(data, len(data), room, lines, starts, ends, runs, info,
                                      line_at, line_len)
        if n != -2:
            break
    nruns, fields, *bad = info
    if n < 0:
        raise _bad_line(data, fields, *bad)
    for column in (starts, ends, line_at, line_len):
        del column[n:]
    del runs[3 * nruns:]
    # the names as bytes, each decoded once: UTF-8 sorts as its code points do
    names = [data[at:at + size] for at, size in zip(runs[1::3], runs[2::3])] or [None] * (n > 0)
    keys = sorted(set(names))
    try:
        chroms = tuple(key and key.decode() for key in keys) or (None,)
    except UnicodeDecodeError:
        data.decode()  # the error at the file's first byte that is not UTF-8
        raise
    blank = {key for key, name in zip(keys, chroms) if name and name.split() != [name]}
    if blank:  # a Unicode blank, as U+00A0, or a line break
        r = next(r for r, name in enumerate(names) if name in blank)
        raise ParseError(_lines(data, line_at[runs[3 * r]]),
                         f"name {names[r].decode()!r} holds a blank or a line break")
    run_at = runs[0::3] if nruns else array("q", [0] * (n > 0))  # plain: one run, if any
    run_code = array("q", map(dict(zip(keys, range(len(keys)))).__getitem__, names))
    return InstanceFile(chroms, run_at, run_code, starts, ends, data, line_at, line_len)


def parse_instance(text: str) -> InstanceFile:
    """Parse instance text, as `read_instance` reads a file of its UTF-8."""
    return _read(text.encode())


def read_instance(path: str) -> InstanceFile:
    """Read an instance file; a name that is not UTF-8 raises a ValueError."""
    with open(path, "rb") as fh:
        return _read(fh.read())

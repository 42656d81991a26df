"""Reading and writing interval instances.

Two line formats: "plain" (two whitespace-separated non-negative
integers per line) and "bed3" (name, start, end).  Comment lines
starting with '#' and blank lines are ignored.  BED3 files hold several
chromosomes; each is an independent instance on its own coordinate line.
`read_instance` reads a regular file in one pass of the compiled kernel
(`_parse.c`), and anything else with `parse_instance`, the line parser
that names a bad line.  Both also give every record's line as a byte
range of the input, so kept records leave as the lines they were read
from (`InstanceFile.kept_lines`), not re-formatted from their numbers.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .intervals import MAX_COORD, IntervalSet, _kernels

_FIELDS = {"plain": 2, "bed3": 3}
_DETECT = {n: fmt for fmt, n in _FIELDS.items()}  # by the first data line's field count


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Record(NamedTuple):
    chrom: str | None
    start: int
    end: int


class InstanceFile:
    """Parsed input in file order: record i is [starts[i], ends[i]) on
    chromosome `chroms[code[i]]` (sorted names; `(None,)` for plain),
    written in `data`, the input's bytes, as the line of `line_len[i]`
    bytes at `line_at[i]`, its terminator included.  The columns are
    `array.array`s, uint64 for the endpoints and int64 for the rest."""

    def __init__(self, fmt: str, chroms: tuple[str | None, ...], code: array,
                 starts: array, ends: array, data: bytes, line_at: array, line_len: array):
        self.fmt = fmt  # "plain" | "bed3"
        self.chroms, self.code, self.starts, self.ends = chroms, code, starts, ends
        self.data, self.line_at, self.line_len = data, line_at, line_len

    @cached_property
    def records(self) -> tuple[Record, ...]:
        return tuple(map(Record, map(self.chroms.__getitem__, self.code), self.starts,
                         self.ends))

    def chromosomes(self) -> dict[str | None, tuple[IntervalSet, memoryview]]:
        """Split records per chromosome, by one counting sort of the codes.

        Returns, per chromosome, the interval set and the indices of its
        records in the original file order (so output can be mapped back).
        """
        n, groups = len(self.starts), len(self.chroms)
        first, order = array("q", [0]) * (groups + 1), array("q", [0]) * n
        starts, ends = array("Q", [0]) * n, array("Q", [0]) * n
        _kernels().covprune_group(n, self.code, groups, self.starts, self.ends, first, order,
                                  starts, ends)
        order, starts, ends = (memoryview(a).toreadonly() for a in (order, starts, ends))
        return {chrom: (IntervalSet(starts[a:b], ends[a:b]), order[a:b])
                for chrom, a, b in zip(self.chroms, first, first[1:]) if a < b}

    def kept_lines(self, keep) -> bytearray:
        """The input lines of the records the uint8 mask `keep` marks, as
        written, in file order; a last line without a terminator gets
        a newline."""
        if len(keep) != len(self.line_at):
            raise ValueError("the mask and the records differ in length")
        lines = _kernels().covprune_lines
        args = (len(keep), keep, self.line_at, self.line_len, len(self.data), self.data)
        lines(*args, out := bytearray(lines(*args, None)))  # counted, then copied
        return out


def _instance(fmt: str, names: list[str], run_at, starts, ends, data: bytes, line_at,
              line_len) -> InstanceFile:
    """The instance of the given columns, read from the lines of `data`
    that `line_at` and `line_len` give; bed3 `names` holds the name of
    each run of records of one name, run r starting at record run_at[r],
    and plain `names` is empty."""
    chroms, code = (None,), array("q", [0]) * len(starts)
    if names:
        chroms = tuple(sorted(set(names)))
        rank = dict(zip(chroms, range(len(chroms))))
        _kernels().covprune_runs(len(run_at), run_at, array("q", map(rank.__getitem__, names)),
                                 len(starts), code)
    return InstanceFile(fmt, chroms, code, starts, ends, data, line_at, line_len)


def _parse_coord(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not an integer") from None
    if value < 0:
        raise ParseError(line_no, f"{what} {value} is negative")
    if value > MAX_COORD:
        raise ParseError(line_no, f"{what} {value} exceeds the largest coordinate {MAX_COORD}")
    return value


def parse_instance(text: str, fmt: str | None = None) -> InstanceFile:
    """Parse instance text line by line; with fmt None the field count
    of the first data line, 3 or 2, picks bed3 or plain."""
    names, starts, ends, rows = [], [], [], []
    detected = fmt
    lines = text.splitlines(keepends=True)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        detected = detected or _DETECT.get(len(fields))
        if detected is None:
            raise ParseError(line_no, f"expected 2 (plain) or 3 (bed3) fields, got {len(fields)}")
        if detected not in _FIELDS:
            raise ValueError(f"unknown format {detected!r}")
        if len(fields) != _FIELDS[detected]:
            raise ParseError(line_no, f"{detected} format needs {_FIELDS[detected]} fields, "
                                      f"got {len(fields)}")
        names += fields[:-2]  # the bed3 name, if any
        start = _parse_coord(fields[-2], line_no, "start")
        end = _parse_coord(fields[-1], line_no, "end")
        if start >= end:
            raise ParseError(line_no, f"start {start} must be < end {end}")
        starts.append(start)
        ends.append(end)
        rows.append(line_no - 1)
    # each line's byte range in the text's UTF-8 encoding; every record is a run of its name
    data = text.encode("utf-8", "surrogatepass")
    size = [len(line.encode("utf-8", "surrogatepass")) for line in lines]
    line_end = list(accumulate(size))
    return _instance(detected or "plain", names, array("q", range(len(names))),
                     array("Q", starts), array("Q", ends), data,
                     array("q", (line_end[r] - size[r] for r in rows)),
                     array("q", (size[r] for r in rows)))


def _parse_native(lib, data: bytes, fmt: str | None) -> InstanceFile | None:
    """Parse `data` in one pass of `covprune_parse` if it is regular:
    printable ASCII without '#' or a lone '\\r', the format's field count
    on each non-blank line, coordinates of the digits 0-9 alone and
    start < end.  Else return None, and the line parser reads it."""
    # `fmt`, or the format the first line's field count picks
    cut = data.find(b"\n")
    fields = len((data if cut < 0 else data[:cut]).split())
    fmt = fmt or _DETECT.get(fields)
    if fields != _FIELDS.get(fmt):
        return None
    lines = data.count(b"\n") + 1  # one slot per line
    starts, ends = array("Q", [0]) * lines, array("Q", [0]) * lines
    line_at, line_len, count = array("q", [0]) * lines, array("q", [0]) * lines, array("q", [0])
    # room for the runs of one name of a grouped file; a file of more is read
    # again with room for a run per line
    for room in (min(lines, 1024), lines):
        runs = array("q", [0]) * (3 * room)  # each its first record, its name's offset and size
        n = lib.covprune_parse(data, len(data), fields, room, starts, ends, runs, count, line_at,
                               line_len)
        if n != -2:
            break
    if n < 0:
        return None
    for column in (starts, ends, line_at, line_len):
        del column[n:]
    del runs[3 * count[0]:]
    names = [data[at:at + size].decode() for at, size in zip(runs[1::3], runs[2::3])]  # ASCII
    return _instance(fmt, names, runs[0::3], starts, ends, data, line_at, line_len)


def read_instance(path: str, fmt: str | None = None) -> InstanceFile:
    """Read an instance file, by the line parser where the bulk one
    refuses it; bytes that are not UTF-8 raise a ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_native(_kernels(), data, fmt) or parse_instance(data.decode("utf-8"), fmt)

"""Reading and writing interval instances.

Two line formats: "plain" (two whitespace-separated non-negative
integers per line) and "bed3" (name, start, end).  Comment lines
starting with '#' and blank lines are ignored.  BED3 files hold several
chromosomes; each is an independent instance on its own coordinate line.
`read_instance` reads a regular file in one pass of the compiled kernel
(`_parse.c`), or of its `np.loadtxt` twin when no library loads, and
anything else with `parse_instance`, the line parser that names a bad
line.  Each of the three also gives every record's line as a byte range
of the input, so kept records leave as the lines they were read from
(`InstanceFile.kept_lines`), not re-formatted from their numbers.
"""

from __future__ import annotations

from functools import cached_property
from io import BytesIO
from typing import NamedTuple

import numpy as np

from .intervals import MAX_COORD, IntervalSet

_FIELDS = {"plain": 2, "bed3": 3}
_DETECT = {n: fmt for fmt, n in _FIELDS.items()}  # by the first data line's field count
# the last fields of (chrom, start, end) as one canonical line
_LINE = {fmt: "\t".join(["%s"] * n) for fmt, n in _FIELDS.items()}
# bytes the bulk parser reads exactly as the line parser does
_REGULAR = bytes(range(32, 127)) + b"\t\n\r"


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
    bytes at `line_at[i]`, its terminator included."""

    def __init__(self, fmt: str, chroms: tuple[str | None, ...], code: np.ndarray,
                 starts: np.ndarray, ends: np.ndarray, data: bytes,
                 line_at: np.ndarray, line_len: np.ndarray):
        self.fmt = fmt  # "plain" | "bed3"
        self.chroms, self.code, self.starts, self.ends = chroms, code, starts, ends
        self.data, self.line_at, self.line_len = data, line_at, line_len

    @cached_property
    def records(self) -> tuple[Record, ...]:
        table = np.array(self.chroms, object)[self.code, None].repeat(3, axis=1)
        table[:, 1], table[:, 2] = self.starts, self.ends
        return tuple(map(Record._make, table.tolist()))

    def chromosomes(self) -> dict[str | None, tuple[IntervalSet, np.ndarray]]:
        """Split records per chromosome.

        Returns, per chromosome, the interval set and the indices of its
        records in the original file order (so output can be mapped back).
        """
        sizes = np.bincount(self.code, minlength=len(self.chroms))
        groups = np.split(np.argsort(self.code, kind="stable"), np.cumsum(sizes)[:-1])
        return {chrom: (IntervalSet.from_arrays(self.starts[idx], self.ends[idx]), idx)
                for chrom, idx in zip(self.chroms, groups) if len(idx)}

    def kept_lines(self, keep) -> bytes:
        """The input lines of the records the mask `keep` marks, as
        written, in file order; a last line without a terminator gets
        a newline."""
        at = self.line_at[keep]
        edges = np.column_stack((at, at + self.line_len[keep])).ravel()
        # the data cut into a gap, a kept line, a gap, ..., a kept line, a gap
        parts = np.diff(edges, prepend=0, append=len(self.data))
        mask = np.repeat(np.arange(len(parts)) % 2 == 1, parts)
        out = np.frombuffer(self.data, np.uint8)[mask].tobytes()
        return out if not out or out.endswith(b"\n") else out + b"\n"


def _instance(fmt: str, names, starts, ends, data: bytes, line_at, line_len,
              head=None) -> InstanceFile:
    """The instance of the given columns, read from the lines of `data`
    that `line_at` and `line_len` give; bed3 `names` holds each record's
    name or, with `head`, the name of each run of one name, which starts
    at record head[j]; plain `names` is None or empty."""
    chroms, code = (None,), np.zeros(len(starts), np.intp)
    if names is not None and len(names):
        names = np.asarray(names)
        if head is None:  # a sorted file repeats each name in one run: sort only the runs
            head = np.flatnonzero(np.r_[True, names[1:] != names[:-1]])
            names = names[head]
        chroms, code = np.unique(names, return_inverse=True)
        chroms = tuple(chroms.astype(str).tolist())
        code = np.repeat(code, np.diff(head, append=len(starts)))
    # copies, so that a parsed table's name column can be freed
    return InstanceFile(fmt, chroms, code, np.array(starts, np.uint64), np.array(ends, np.uint64),
                        data, np.asarray(line_at, np.int64), np.asarray(line_len, np.int64))


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
    # each line's byte range in the text's UTF-8 encoding
    data = text.encode("utf-8", "surrogatepass")
    size = np.array([len(line.encode("utf-8", "surrogatepass")) for line in lines], np.int64)
    line_end = np.cumsum(size)
    return _instance(detected or "plain", names or None, starts, ends, data,
                     (line_end - size)[rows], size[rows])


def _bulk_format(data: bytes, fmt: str | None) -> str | None:
    """`fmt`, or the format the first line's field count picks, if that
    line holds the format's field count; else None."""
    cut = data.find(b"\n")
    fields = len((data if cut < 0 else data[:cut]).split())
    fmt = fmt or _DETECT.get(fields)
    return fmt if fields == _FIELDS.get(fmt) else None


def _parse_regular(data: bytes, fmt: str | None) -> InstanceFile | None:
    """Parse `data` in one `np.loadtxt` pass if it is printable ASCII
    without '#' or a lone '\\r' and each non-blank line holds the
    format's field count, else return None.  Names are read at the
    longest line's width, so a few very long lines also leave the file
    to the line parser."""
    fmt = _bulk_format(data, fmt)
    if (fmt is None or data.translate(None, _REGULAR) or b"#" in data
            or data.count(b"\r") != data.count(b"\r\n")):
        return None
    ext = np.frombuffer(data + b"\n", np.uint8)
    breaks = np.flatnonzero(ext == ord("\n"))
    width = int(np.diff(breaks, prepend=-1).max())
    if width * len(breaks) > 4 * len(data):
        return None
    names = [("chrom", f"S{width}")] * (fmt == "bed3")
    try:
        table = np.loadtxt(BytesIO(data), dtype=names + [("start", np.uint64), ("end", np.uint64)],
                           comments=None, ndmin=1)
    except ValueError:  # a field count or a number the line parser must name
        return None
    if (table["start"] >= table["end"]).any():
        return None
    # the records are the lines, through their '\n', that hold a byte other than blanks
    line_at = np.r_[0, breaks[:-1] + 1]
    rows = np.flatnonzero(np.maximum.reduceat(ext, line_at) > ord(" "))
    line_end = np.minimum(breaks + 1, len(data))
    return _instance(fmt, table["chrom"] if names else None, table["start"], table["end"],
                     data, line_at[rows], (line_end - line_at)[rows])


def _parse_native(lib, data: bytes, fmt: str | None) -> InstanceFile | None:
    """What `_parse_regular` returns, read by `covprune_parse` in C in
    one pass; the kernel refuses a few files the twin reads, such as a
    coordinate `+5`, which the line parser then reads."""
    fmt = _bulk_format(data, fmt)
    if fmt is None:
        return None
    # one slot per line; name ranges are written at runs' first records only
    lines = data.count(b"\n") + 1
    starts, ends = np.empty((2, lines), np.uint64)
    head, (name_at, name_len) = np.zeros(lines, np.uint8), np.empty((2, lines), np.int64)
    line_at, line_len = np.empty((2, lines), np.int64)
    n = lib.covprune_parse(data, len(data), _FIELDS[fmt], starts, ends, head, name_at, name_len,
                           line_at, line_len)
    if n < 0:
        return None
    at = np.flatnonzero(head[:n])  # no runs in a plain file, which leaves head 0
    # each run's name, gathered one byte column at a time into NUL-padded rows
    offset, size, raw = name_at[at], name_len[at], np.frombuffer(data, np.uint8)
    names = np.zeros((len(at), int(size.max(initial=1))), np.uint8)
    for j in range(names.shape[1]):
        names[size > j, j] = raw[offset[size > j] + j]
    return _instance(fmt, names.view(f"S{names.shape[1]}")[:, 0], starts[:n], ends[:n], data,
                     line_at[:n], line_len[:n], at)


def read_instance(path: str, fmt: str | None = None) -> InstanceFile:
    """Read an instance file, by the line parser where the bulk one
    refuses it; bytes that are not UTF-8 raise a ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    from ._native import load_library  # on first use: its imports would slow `import`
    lib = load_library()
    return ((_parse_native(lib, data, fmt) if lib else _parse_regular(data, fmt))
            or parse_instance(data.decode("utf-8"), fmt))


def format_record(rec: Record, fmt: str) -> str:
    return _LINE[fmt] % rec[-_FIELDS[fmt]:]

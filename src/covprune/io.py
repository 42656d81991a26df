"""Reading and writing interval instances.

Two line formats: "plain" (two whitespace-separated non-negative
integers per line) and "bed3" (name, start, end).  Comment lines
starting with '#' and blank lines are ignored.  BED3 files hold several
chromosomes; each is an independent instance on its own coordinate line.
`read_instance` reads a regular file in one `np.loadtxt` pass, anything
else with `parse_instance`, the line parser that names a bad line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from io import BytesIO
from typing import NamedTuple

import numpy as np

from .intervals import MAX_COORD, Interval, IntervalSet

_FIELDS = {"plain": 2, "bed3": 3}
_DETECT = {n: fmt for fmt, n in _FIELDS.items()}  # by the first data line's field count
# the last fields of (chrom, start, end) as one output line
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


@dataclass(frozen=True, eq=False)
class InstanceFile:
    """Parsed input in file order: record i is [starts[i], ends[i]) on
    chromosome `chroms[code[i]]` (sorted names; `(None,)` for plain)."""

    fmt: str  # "plain" | "bed3"
    chroms: tuple[str | None, ...]
    code: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def _table(self, rows) -> np.ndarray:
        """(chrom, start, end) of the records `rows` picks, as Python objects."""
        table = np.array(self.chroms, object)[self.code[rows], None].repeat(3, axis=1)
        table[:, 1], table[:, 2] = self.starts[rows], self.ends[rows]
        return table

    @cached_property
    def records(self) -> tuple[Record, ...]:
        return tuple(map(Record._make, self._table(slice(None)).tolist()))

    def chromosomes(self) -> dict[str | None, tuple[IntervalSet, np.ndarray]]:
        """Split records per chromosome.

        Returns, per chromosome, the interval set and the indices of its
        records in the original file order (so output can be mapped back).
        """
        sizes = np.bincount(self.code, minlength=len(self.chroms))
        groups = np.split(np.argsort(self.code, kind="stable"), np.cumsum(sizes)[:-1])
        return {chrom: (IntervalSet.from_arrays(self.starts[idx], self.ends[idx]), idx)
                for chrom, idx in zip(self.chroms, groups) if len(idx)}

    def format_kept(self, keep) -> str:
        """`format_record` lines, newline-ended, of the records `keep` marks."""
        table = self._table(keep)[:, 3 - _FIELDS[self.fmt]:]
        return (_LINE[self.fmt] + "\n") * len(table) % tuple(table.ravel().tolist())


def _instance(fmt: str, names, starts, ends) -> InstanceFile:
    chroms, code = (None,), np.zeros(len(starts), np.intp)
    if names is not None:
        # a sorted file repeats each name in one run: sort only the runs
        names = np.asarray(names)
        head = np.flatnonzero(np.r_[True, names[1:] != names[:-1]])
        chroms, code = np.unique(names[head], return_inverse=True)
        chroms = tuple(chroms.astype(str).tolist())
        code = np.repeat(code, np.diff(head, append=len(names)))
    # copies, so that a parsed table's name column can be freed
    return InstanceFile(fmt, chroms, code, np.array(starts, np.uint64), np.array(ends, np.uint64))


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
    names, starts, ends = [], [], []
    detected = fmt
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
    return _instance(detected or "plain", names or None, starts, ends)


def _parse_regular(data: bytes, fmt: str | None) -> InstanceFile | None:
    """Parse `data` in one `np.loadtxt` pass if it is printable ASCII
    without '#' and each non-blank line holds the format's field count,
    else return None.  Names are read at the longest line's width, so a
    few very long lines also leave the file to the line parser."""
    if data.translate(None, _REGULAR) or b"#" in data:
        return None
    breaks = np.flatnonzero(np.frombuffer(data + b"\n", np.uint8) == ord("\n"))
    fields = len(data[:breaks[0]].split())
    fmt = fmt or _DETECT.get(fields)
    width = int(np.diff(breaks, prepend=-1).max())
    if fields != _FIELDS.get(fmt) or width * len(breaks) > 4 * len(data):
        return None
    names = [("chrom", f"S{width}")] * (fmt == "bed3")
    try:
        table = np.loadtxt(BytesIO(data), dtype=names + [("start", np.uint64), ("end", np.uint64)],
                           comments=None, ndmin=1)
    except ValueError:  # a field count or a number the line parser must name
        return None
    if (table["start"] >= table["end"]).any():
        return None
    return _instance(fmt, table["chrom"] if names else None, table["start"], table["end"])


def read_instance(path: str, fmt: str | None = None) -> InstanceFile:
    """Read an instance file; bytes that are not UTF-8 raise a ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _parse_regular(data, fmt) or parse_instance(data.decode("utf-8"), fmt)


def format_record(rec: Record, fmt: str) -> str:
    return _LINE[fmt] % rec[-_FIELDS[fmt]:]


def generate_instance(n: int, span_length: int, seed: int) -> IntervalSet:
    """Random benchmark instance, fully determined by the seed.

    Starts are uniform over [0, span_length), lengths uniform over
    [1, span_length // 10], ends clipped to the span.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if span_length < 2:
        raise ValueError(f"span_length must be >= 2, got {span_length}")
    rng = random.Random(seed)
    max_len = max(1, span_length // 10)
    items = []
    for _ in range(n):
        start = rng.randrange(span_length)
        end = min(start + rng.randint(1, max_len), span_length)
        items.append(Interval(start, end))
    return IntervalSet(tuple(items))

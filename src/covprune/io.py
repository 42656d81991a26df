"""Reading and writing interval instances.

Two line formats: "plain" (two whitespace-separated non-negative
integers per line) and "bed3" (name, start, end).  Comment lines
starting with '#' and blank lines are ignored.  BED3 files hold several
chromosomes; each is an independent instance on its own coordinate line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .intervals import MAX_COORD, Interval, IntervalSet


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Record(NamedTuple):
    chrom: str | None
    start: int
    end: int


@dataclass(frozen=True)
class InstanceFile:
    """Parsed input: records in file order plus the detected format."""

    fmt: str  # "plain" | "bed3"
    records: tuple[Record, ...]

    def chromosomes(self) -> dict[str | None, tuple[IntervalSet, list[int]]]:
        """Split records per chromosome.

        Returns, per chromosome, the interval set and the indices of its
        records in the original file order (so output can be mapped back).
        """
        groups: dict[str | None, list[int]] = {}
        for idx, rec in enumerate(self.records):
            groups.setdefault(rec.chrom, []).append(idx)
        out = {}
        for chrom, indices in groups.items():
            ivs = IntervalSet(tuple(Interval(self.records[i].start,
                                             self.records[i].end)
                                    for i in indices))
            out[chrom] = (ivs, indices)
        return out


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
    """Parse instance text, auto-detecting the format when fmt is None.

    Detection looks at the first data line: three fields whose first is
    not an integer means bed3, two integer fields means plain.
    """
    records: list[Record] = []
    detected = fmt
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if detected is None:
            if len(fields) == 3:
                detected = "bed3"
            elif len(fields) == 2:
                detected = "plain"
            else:
                raise ParseError(line_no,
                                 f"expected 2 (plain) or 3 (bed3) fields, got {len(fields)}")
        if detected == "plain":
            if len(fields) != 2:
                raise ParseError(line_no, f"plain format needs 2 fields, got {len(fields)}")
            chrom = None
            start = _parse_coord(fields[0], line_no, "start")
            end = _parse_coord(fields[1], line_no, "end")
        elif detected == "bed3":
            if len(fields) != 3:
                raise ParseError(line_no, f"bed3 format needs 3 fields, got {len(fields)}")
            chrom = fields[0]
            start = _parse_coord(fields[1], line_no, "start")
            end = _parse_coord(fields[2], line_no, "end")
        else:
            raise ValueError(f"unknown format {detected!r}")
        if start >= end:
            raise ParseError(line_no, f"start {start} must be < end {end}")
        records.append(Record(chrom, start, end))
    return InstanceFile(detected or (fmt or "plain"), tuple(records))


def read_instance(path: str, fmt: str | None = None) -> InstanceFile:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read(), fmt)


def format_record(rec: Record, fmt: str) -> str:
    if fmt == "bed3":
        return f"{rec.chrom}\t{rec.start}\t{rec.end}"
    return f"{rec.start}\t{rec.end}"


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

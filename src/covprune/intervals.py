"""Half-open integer intervals and exact coverage computation.

Coverage of a point p is the number of intervals [start, end) with
start <= p < end.  All computations run on coordinate-compressed
endpoints (delimiters), so coordinates may be arbitrarily large and
sparse.  Everything here is immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_COORD = 2**64 - 1


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open interval [start, end) with non-negative integer endpoints."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end <= MAX_COORD):
            raise ValueError(f"invalid interval [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start

    def covers(self, p: int) -> bool:
        return self.start <= p < self.end


class IntervalSet:
    """An ordered collection of intervals, held as read-only uint64
    arrays `starts` and `ends`, with `Interval` objects built on demand.
    The position of an interval is its stable identity: solutions refer
    to intervals by these indices.  Duplicates are kept distinct."""

    def __init__(self, items: tuple[Interval, ...] = ()):
        self.items = items = tuple(items)
        self._hold(np.array([iv.start for iv in items], np.uint64),
                   np.array([iv.end for iv in items], np.uint64))

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        return cls(tuple(Interval(s, e) for s, e in pairs))

    @classmethod
    def from_arrays(cls, starts, ends) -> "IntervalSet":
        """The set of [starts[i], ends[i]); unsigned integer arrays only."""
        out = cls.__new__(cls)
        out._hold(*(np.asarray(a).astype(np.uint64, casting="safe", copy=False)
                    for a in (starts, ends)))
        return out

    def _hold(self, starts, ends) -> None:
        if starts.shape != ends.shape or (starts >= ends).any():
            raise ValueError("every interval needs start < end")
        starts.flags.writeable = ends.flags.writeable = False
        self.starts, self.ends = starts, ends

    @cached_property
    def items(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.starts.tolist(), self.ends.tolist()))

    @cached_property
    def compressed(self):
        """(delimiters, lo, hi, segment coverage), computed once."""
        delims, lo, hi = compress(self)
        return delims, lo, hi, segment_cov(lo, hi, len(delims))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int) -> Interval:
        return self.items[i]

    def __iter__(self):
        return iter(self.items)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalSet) and np.array_equal(self.starts, other.starts)
                and np.array_equal(self.ends, other.ends))

    @property
    def span(self) -> Interval | None:
        """[min start, max end) of the whole set, or None when empty."""
        if not len(self):
            return None
        return Interval(int(self.starts.min()), int(self.ends.max()))

    def subset(self, indices) -> "IntervalSet":
        idx = np.asarray(indices, np.intp)
        return IntervalSet.from_arrays(self.starts[idx], self.ends[idx])


@dataclass(frozen=True)
class CoverageProfile:
    """Coverage as a step function over delimiter segments.

    `delimiters` are the distinct interval endpoints in increasing
    order; `segment_cov[j]` is the coverage of every point in
    [delimiters[j], delimiters[j+1]).  Coverage is constant on each
    segment because all interval endpoints are delimiters.
    """

    delimiters: tuple[int, ...]
    segment_cov: tuple[int, ...]

    def __post_init__(self):
        if len(self.delimiters) not in (0, len(self.segment_cov) + 1):
            raise ValueError("delimiter/segment length mismatch")

    @property
    def num_segments(self) -> int:
        return len(self.segment_cov)

    def value_at(self, p: int) -> int:
        """Coverage of point p; 0 outside [delimiters[0], delimiters[-1])."""
        if not self.delimiters or not (self.delimiters[0] <= p < self.delimiters[-1]):
            return 0
        return self.segment_cov[bisect_right(self.delimiters, p) - 1]

    def min_over(self, start: int, end: int) -> int:
        """Minimum coverage over an arbitrary window [start, end).

        Points of the window not covered by any interval count as 0, so
        subsets of a larger set can be scored against the original span.
        """
        if start >= end:
            raise ValueError(f"empty window [{start}, {end})")
        if not self.delimiters:
            return 0
        lo, hi = self.delimiters[0], self.delimiters[-1]
        if start < lo or end > hi:
            return 0
        jl = bisect_right(self.delimiters, start) - 1
        jr = bisect_right(self.delimiters, end - 1) - 1
        return min(self.segment_cov[jl:jr + 1])


def coverage_profile(intervals: IntervalSet) -> CoverageProfile:
    """Compute the exact coverage step function by an endpoint sweep."""
    if not intervals.items:
        return CoverageProfile((), ())
    delims = sorted({c for iv in intervals for c in (iv.start, iv.end)})
    index = {c: j for j, c in enumerate(delims)}
    delta = [0] * len(delims)
    for iv in intervals:
        delta[index[iv.start]] += 1
        delta[index[iv.end]] -= 1
    cov = []
    running = 0
    for d in delta[:-1]:
        running += d
        cov.append(running)
    return CoverageProfile(tuple(delims), tuple(cov))


def compress(intervals: IntervalSet):
    """The set in array form: its sorted distinct endpoints, as uint64
    because coordinates reach MAX_COORD = 2**64 - 1, beyond int64, and
    the index of each interval's start and end among them."""
    starts, ends = intervals.starts, intervals.ends
    both = np.sort(np.concatenate((starts, ends)))
    # sort and drop repeats: np.unique takes a slower hash path on uint64
    first = np.ones(len(both), bool)
    first[1:] = both[1:] != both[:-1]
    delims = both[first]
    return delims, np.searchsorted(delims, starts), np.searchsorted(delims, ends)


def segment_cov(lo, hi, ndelims: int):
    """Coverage of each segment between consecutive delimiters by the
    intervals spanning delimiter indices [lo, hi); gaps count as 0."""
    delta = np.bincount(lo, minlength=ndelims) - np.bincount(hi, minlength=ndelims)
    return np.cumsum(delta[:-1])


def cov_at(intervals: IntervalSet, p: int) -> int:
    """Coverage of a single point by direct counting."""
    return sum(1 for iv in intervals if iv.start <= p < iv.end)


def maxcov(intervals: IntervalSet) -> int:
    """Maximum coverage over all points; 0 for the empty set."""
    profile = coverage_profile(intervals)
    return max(profile.segment_cov, default=0)


def mincov_span(intervals: IntervalSet) -> int:
    """Minimum coverage over the set's own span [min start, max end).

    Uncovered gaps inside the span count as coverage 0.  Empty set
    yields 0 by convention.
    """
    profile = coverage_profile(intervals)
    return min(profile.segment_cov, default=0)


def mincov_over(intervals: IntervalSet, start: int, end: int) -> int:
    """Minimum coverage over an arbitrary window [start, end); see
    `CoverageProfile.min_over`."""
    return coverage_profile(intervals).min_over(start, end)

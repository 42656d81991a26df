"""Half-open integer intervals and their coverage profile.

Coverage of a point p is the number of intervals [start, end) with
start <= p < end: a step function over the sorted distinct endpoints
(delimiters), so coordinates may be arbitrarily large and sparse.
`IntervalSet.compressed` caches it as `coverage_profile` computes it,
by `covprune_profile` (`_profile.c`) or its twin, one argsort of the
endpoints: the one coverage form every solver reads.  Everything here
is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

MAX_COORD = 2**64 - 1


class _Endpoints(NamedTuple):
    start: int
    end: int


class Interval(_Endpoints):
    """A half-open interval [start, end) with non-negative integer endpoints."""

    __slots__ = ()

    def __new__(cls, start: int, end: int):
        if not (0 <= start < end <= MAX_COORD):
            raise ValueError(f"invalid interval [{start}, {end})")
        return super().__new__(cls, start, end)

    @property
    def length(self) -> int:
        return self.end - self.start


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
        out._hold(*(np.asarray(a).astype(np.uint64, "C", casting="safe", copy=False)
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
    def compressed(self) -> CoverageProfile:
        """The set's coverage profile, computed once."""
        return coverage_profile(self)

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


class CoverageProfile(NamedTuple):
    """Coverage as a step function over delimiter segments.

    `delimiters` are the distinct endpoints in increasing order, uint64
    because coordinates reach MAX_COORD = 2**64 - 1, beyond int64.
    Interval i spans segments [lo[i], hi[i]), and `segment_cov[j]` is
    the coverage of every point in [delimiters[j], delimiters[j+1]).
    """

    delimiters: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    segment_cov: np.ndarray

    @property
    def num_segments(self) -> int:
        return len(self.segment_cov)


def coverage_profile(intervals: IntervalSet) -> CoverageProfile:
    """The exact coverage step function of the set, from its endpoint arrays."""
    from ._native import load_library  # on first use: its imports would slow `import`
    if (n := len(intervals)) and (lib := load_library()) is not None:
        delims, (rank, cov) = np.empty(2 * n, np.uint64), np.empty((2, 2 * n), np.int64)
        m = lib.covprune_profile(n, intervals.starts, intervals.ends, delims, rank[:n], rank[n:],
                                 cov, np.empty(8 * n + 2048, np.int64))  # its scratch
        return CoverageProfile(delims[:m], rank[:n], rank[n:], cov[:m - 1])
    # the twin of `covprune_profile` (`_profile.c`)
    both = np.concatenate((intervals.starts, intervals.ends))
    # sort and drop repeats: np.unique takes a slower hash path on uint64
    order = np.argsort(both)
    both = both[order]
    first = np.ones(len(both), bool)
    first[1:] = both[1:] != both[:-1]
    delims = both[first]
    # each endpoint's delimiter index, its rank among the distinct endpoints
    rank = np.empty(len(both), np.intp)
    rank[order] = np.cumsum(first) - 1
    lo, hi = np.split(rank, 2)
    return CoverageProfile(delims, lo, hi, segment_cov(lo, hi, len(delims)))


def segment_cov(lo, hi, ndelims: int):
    """Coverage of each segment between consecutive delimiters by the
    intervals spanning delimiter indices [lo, hi); gaps count as 0."""
    delta = np.bincount(lo, minlength=ndelims) - np.bincount(hi, minlength=ndelims)
    return np.cumsum(delta[:-1])

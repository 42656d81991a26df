"""Half-open integer intervals and their coverage profile.

Coverage of a point p is the number of intervals [start, end) with
start <= p < end: a step function over the sorted distinct endpoints
(delimiters), so coordinates may be arbitrarily large and sparse.
`IntervalSet.compressed` caches it as `coverage_profile` computes it,
by `covprune_profile` (`_profile.c`): the one coverage form every
solver reads.  A set holds no object per interval, only its two
endpoint columns, and every array here is a read-only `memoryview` of an
`array.array` buffer, so everything is immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import cached_property

MAX_COORD = 2**64 - 1


def _kernels():
    from ._native import load_library  # on first use: its imports would slow `import`
    return load_library()


class IntervalSet:
    """The intervals [starts[i], ends[i]), held as read-only uint64
    buffers `starts` and `ends`.  The position of an interval is its
    stable identity: solutions refer to intervals by these indices.
    Duplicates are kept distinct."""

    def __init__(self, starts=b"", ends=b""):
        """The set of the given columns, by default empty: buffers of
        unsigned integers only, a read-only contiguous uint64 view shared,
        others copied."""
        self.starts, self.ends = _uint64(starts), _uint64(ends)
        n = len(self.starts)
        if n != len(self.ends) or _kernels().covprune_unordered(n, self.starts, self.ends) >= 0:
            raise ValueError("every interval needs start < end")

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalSet":
        starts, ends = array("Q"), array("Q")
        for start, end in pairs:
            if not 0 <= start < end <= MAX_COORD:
                raise ValueError(f"invalid interval [{start}, {end})")
            starts.append(start)
            ends.append(end)
        # read-only views, which the constructor shares rather than copies
        return cls(memoryview(starts).toreadonly(), memoryview(ends).toreadonly())

    @cached_property
    def compressed(self) -> CoverageProfile:
        """The set's coverage profile, computed once."""
        return coverage_profile(self)

    def __len__(self) -> int:
        return len(self.starts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalSet) and self.starts == other.starts
                and self.ends == other.ends)

    @property
    def span(self) -> tuple[int, int] | None:
        """(min start, max end) of the whole set, or None when empty: the
        first and the last delimiter of its profile."""
        delimiters = self.compressed.delimiters
        return (delimiters[0], delimiters[-1]) if len(self) else None


def _uint64(values) -> memoryview:
    view = memoryview(values)
    if view.format not in ("B", "H", "I", "L", "Q"):
        raise TypeError(f"interval endpoints must be unsigned integers, got {view.format!r}")
    if view.readonly and view.itemsize == 8 and view.c_contiguous and view.ndim == 1:
        return view
    return memoryview(array("Q", view.tolist())).toreadonly()


class CoverageProfile(namedtuple("CoverageProfile", "delimiters lo hi segment_cov")):
    """Coverage as a step function over delimiter segments.

    `delimiters` are the distinct endpoints in increasing order, uint64
    because coordinates reach MAX_COORD = 2**64 - 1, beyond int64.
    Interval i spans segments [lo[i], hi[i]), and `segment_cov[j]` is
    the coverage of every point in [delimiters[j], delimiters[j+1]).
    The fields are read-only buffers, int64 but for `delimiters`.
    """

    __slots__ = ()

    @property
    def num_segments(self) -> int:
        return len(self.segment_cov)


def coverage_profile(intervals: IntervalSet) -> CoverageProfile:
    """The exact coverage step function of the set, from its endpoint arrays."""
    n = len(intervals)
    delims, cov = array("Q", [0]) * 2 * n, array("q", [0]) * 2 * n
    lo, hi = array("q", [0]) * n, array("q", [0]) * n
    if n:  # the kernel reads a first endpoint
        m = _kernels().covprune_profile(n, intervals.starts, intervals.ends, delims, lo, hi, cov)
        del delims[m:], cov[m - 1:]
    return CoverageProfile(*(memoryview(a).toreadonly() for a in (delims, lo, hi, cov)))


def segment_cov(lo, hi, ndelims: int, kept=None) -> array:
    """Coverage of each segment between consecutive delimiters by the
    intervals spanning delimiter indices [lo, hi), or by those at the
    rising int64 indices `kept` alone; gaps count as 0."""
    cov = array("q", [0]) * ndelims
    if len(lo) != len(hi):
        raise ValueError("lo and hi differ in length")
    _kernels().covprune_recount(len(lo if kept is None else kept), kept, len(lo), lo, hi,
                                ndelims, cov)
    del cov[-1:]
    return cov

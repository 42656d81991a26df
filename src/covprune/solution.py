"""Solver output: the kept subset plus the coverage it achieves."""

from __future__ import annotations

from collections import namedtuple

from ._native import extremes, select, zeros
from .intervals import IntervalSet, segment_cov


class Solution(namedtuple("Solution", "kept achieved_mincov achieved_maxcov method work")):
    """A pruning result.

    `kept` holds indices into the original interval set, in increasing
    order, as a read-only int64 buffer.  `achieved_mincov` is measured
    over the ORIGINAL span (points left uncovered by the kept subset
    count as coverage 0) so that results for different subsets of the
    same instance are comparable.  `work` carries method-specific effort
    counters (str to int) such as augmentations, flow solves or tree
    nodes touched.
    """

    __slots__ = ()

    @property
    def num_kept(self) -> int:
        return len(self.kept)


def score_subset(intervals: IntervalSet, kept, k: int, method: str,
                 work: dict[str, int] | None = None) -> Solution:
    """The Solution keeping the reads at the rising int64 indices `kept`,
    or every read (the positions of n zeros) when it is None, under cap k.

    Every solver's answer is built here.  The coverage numbers always
    come from an independent count of the kept subset on the set's own
    segments, which tile its span, never from solver-internal state, and
    a count above k raises AssertionError: the solver that chose the set
    is at fault.
    """
    delims, lo, hi, _ = intervals.compressed
    kept = memoryview(select(zeros("q", len(lo)), 0) if kept is None else kept).toreadonly()
    mn, mx = extremes(segment_cov(lo, hi, len(delims), kept))
    if mx > k:
        raise AssertionError(f"{method} kept a set of maxcov {mx} > k={k}")
    return Solution(kept, mn, mx, method, dict(work or {}))

"""Solver output: the kept subset plus the coverage it achieves."""

from array import array
from collections import namedtuple

from .intervals import IntervalSet, recount


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


def score_subset(intervals: IntervalSet, keep, k: int, method: str,
                 work: dict[str, int] | None = None) -> Solution:
    """The Solution of the int64 keep column `keep`, 1 at each kept place
    of the set's chain and 0 at the others (`CoverageProfile.order` maps
    a place to its read), or of every read when it is None, under cap k.

    Every solver's answer is built here, from the 0/1 column it ends
    with.  The kept reads and the coverage numbers come from one count of
    the kept places' spans on the set's own segments, which tile its
    span, never from solver-internal state, and a count above k raises
    AssertionError: the solver that chose the set is at fault.
    """
    keep = array("q", [1]) * len(intervals) if keep is None else keep
    reads, _, mn, mx = recount(intervals.compressed, keep)
    if mx > k:
        raise AssertionError(f"{method} kept a set of maxcov {mx} > k={k}")
    return Solution(memoryview(reads).toreadonly(), mn, mx, method, dict(work or {}))

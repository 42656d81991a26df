"""Solver output: the kept subset plus the coverage it achieves."""

from __future__ import annotations

from dataclasses import dataclass, field

from .intervals import IntervalSet, coverage_profile


@dataclass(frozen=True)
class Solution:
    """A pruning result.

    `kept` holds indices into the original interval set, in increasing
    order.  `achieved_mincov` is measured over the ORIGINAL span (points
    left uncovered by the kept subset count as coverage 0) so that
    results for different subsets of the same instance are comparable.
    `work` carries method-specific effort counters such as augmentations,
    flow solves or tree nodes touched.
    """

    kept: tuple[int, ...]
    achieved_mincov: int
    achieved_maxcov: int
    method: str
    work: dict[str, int] = field(default_factory=dict)

    @property
    def num_kept(self) -> int:
        return len(self.kept)


def score_subset(intervals: IntervalSet, kept, method: str,
                 work: dict[str, int] | None = None) -> Solution:
    """Build a Solution, recomputing achieved coverage from scratch.

    The coverage numbers always come from an independent sweep over the
    kept subset, never from solver-internal state.
    """
    kept = tuple(sorted(kept))
    span = intervals.span
    if span is None or not kept:
        mn = 0
        mx = 0
    else:
        profile = coverage_profile(intervals.subset(kept))
        mx = max(profile.segment_cov, default=0)
        mn = profile.min_over(span.start, span.end)
    return Solution(kept, mn, mx, method, dict(work or {}))

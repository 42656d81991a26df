"""Solver output: the kept subset plus the coverage it achieves."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .intervals import IntervalSet, segment_cov


class Solution(NamedTuple):
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
    work: dict[str, int]

    @property
    def num_kept(self) -> int:
        return len(self.kept)


def score_subset(intervals: IntervalSet, kept, method: str,
                 work: dict[str, int] | None = None) -> Solution:
    """Build a Solution, recomputing achieved coverage from scratch.

    The coverage numbers always come from an independent count of the
    kept subset on the set's own segments, which tile its span, never
    from solver-internal state.
    """
    idx = np.sort(np.asarray(kept, np.intp))
    delims, lo, hi, _ = intervals.compressed
    cov = segment_cov(lo[idx], hi[idx], len(delims))
    mn = int(cov.min()) if len(cov) else 0
    return Solution(tuple(idx.tolist()), mn, int(cov.max(initial=0)), method, dict(work or {}))

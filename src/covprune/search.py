"""Exact optimizer: the largest coverage floor t for which a subset with
maxcov <= k exists, found by descending from the bound min(k, mincov).

No subset beats either bound: removing intervals never raises coverage,
and a feasible answer has maxcov <= k.  Feasibility is monotone in t, so
the first feasible floor on the way down is the optimum.  The chain
network is built once per interval set (`flow.Chain`) and keeps its flow
from one floor to the next, because a maximum flow at t is still
feasible at t - 1.  The flow value starts at k - bound and each
augmenting path raises it, so the whole descent costs at most `bound`
augmentations, run in C (`covprune_max_flow`).  Only the witness is
scored.  The cold-start flow (`flow.decide(..., warm_start=False)`), a
`Chain` started from zero flow, is kept only as the reference the tests
check this engine against.
"""

from __future__ import annotations

from . import flow
from ._native import extremes
from .intervals import IntervalSet
from .solution import Solution, score_subset

METHOD = "exact-tailored"


def solve_exact(intervals: IntervalSet, k: int) -> Solution:
    """Maximize mincov over subsets with maxcov <= k.

    The method label is "exact-tailored"; `work` counts `flow_solves`,
    the `augmentations` from the warm start to the witness, `probes`,
    and `native_flow` (1 when a compiled flow ran).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = {"flow_solves": 0, "augmentations": 0, "probes": 0, "native_flow": 0}
    if not len(intervals):
        return Solution((), 0, 0, METHOD, work)
    low, top = extremes(intervals.compressed.segment_cov)
    if top <= k:
        # removals never help: keeping everything is already optimal
        return score_subset(intervals, range(len(intervals)), METHOD, work)

    chain = flow.Chain(intervals, k)
    for t in range(min(k, low), 0, -1):
        result = chain.max_flow(t)
        work["probes"] += 1
        work["flow_solves"] += 1
        work["augmentations"] += result.augmentations
        work["native_flow"] = 1
        if result.value == k:
            return score_subset(intervals, result.kept, METHOD, work)
    # OPT = 0, so any subset obeying the cap is optimal; approx's keeps
    # reads wherever the cap allows
    from .approx import approx_prune
    return score_subset(intervals, approx_prune(intervals, k).kept, METHOD, work)

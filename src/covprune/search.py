"""Exact optimizer: the largest coverage floor t for which a subset with
maxcov <= k exists, found by doubling followed by binary search.

Feasibility is monotone in t (any witness for t also witnesses every
smaller t), so probing t = 1, 2, 4, ... up to the first infeasible value
brackets the optimum and binary search pins it down with O(log OPT)
decision solves.  The chain network is built once per interval set
(`flow.Chain`); every probe warm-starts on it from the backbone flow and
so needs at most t augmentations, run in C when the compiled library
loads and by the Python reference flow otherwise.  Only the final
witness is scored.  The cold-start flow (`flow.decide(...,
warm_start=False)`) is kept only as the reference the tests check this
engine against.
"""

from __future__ import annotations

from .approx import approx_prune
from .intervals import IntervalSet, mincov_span
from .solution import Solution, score_subset
from . import flow

METHOD = "exact-tailored"


def opt_upper_bound(intervals: IntervalSet, k: int) -> int:
    """min(k, mincov_span): no subset can beat either bound.

    Removing intervals never increases coverage anywhere, and any
    feasible answer has maxcov <= k, so the achievable minimum coverage
    is capped by both.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return min(k, mincov_span(intervals))


def solve_exact(intervals: IntervalSet, k: int) -> Solution:
    """Maximize mincov over subsets with maxcov <= k.

    Every flow solve warm-starts from the backbone flow, so it needs at
    most t augmentations.  The method label is "exact-tailored"; `work`
    counts `flow_solves`, the `augmentations` of the feasible ones,
    `probes`, and `native_flow` (1 when the compiled flow ran).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = {"flow_solves": 0, "augmentations": 0, "probes": 0, "native_flow": 0}

    if not intervals.items:
        return Solution((), 0, 0, METHOD, work)
    chain = flow.Chain(intervals)
    cov = chain.segment_cov
    if cov.max() <= k:
        # removals never help: keeping everything is already optimal
        return score_subset(intervals, range(len(intervals)), METHOD, work)

    # opt_upper_bound, read off the chain's coverage
    bound = min(k, int(cov.min()))

    def probe(t: int) -> flow.FlowAssignment | None:
        work["probes"] += 1
        if t > bound:
            # provably infeasible, no flow needed
            return None
        result = chain.max_flow(k, t)
        work["flow_solves"] += 1
        work["native_flow"] = chain.native
        if result.value < k:
            return None
        work["augmentations"] += result.augmentations
        return result

    # doubling phase: find the first infeasible probe, clamping at k
    best: flow.FlowAssignment | None = None
    lo = 0  # largest t known feasible
    hi = None  # smallest t known infeasible
    t = 1
    while True:
        result = probe(t)
        if result is None:
            hi = t
            break
        best, lo = result, t
        if t == k:
            break
        t = min(2 * t, k)

    if best is None:
        # even t = 1 failed, so OPT = 0 and any subset obeying the cap is
        # optimal; approx's keeps reads wherever the cap allows
        return score_subset(intervals, approx_prune(intervals, k).kept, METHOD, work)
    if hi is not None:
        # binary search on (lo, hi): invariant lo feasible, hi infeasible
        while hi - lo > 1:
            mid = (lo + hi) // 2
            result = probe(mid)
            if result is None:
                hi = mid
            else:
                best, lo = result, mid
    return score_subset(intervals, best.kept, METHOD, work)

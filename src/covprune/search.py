"""Exact optimizer: the largest coverage floor t for which a subset with
maxcov <= k exists, found by doubling followed by binary search.

Feasibility is monotone in t (any witness for t also witnesses every
smaller t), so probing t = 1, 2, 4, ... up to the first infeasible value
brackets the optimum and binary search pins it down with O(log OPT)
decision solves.  Every probe is one `flow.decide` call, which
warm-starts from the backbone flow and so needs at most t augmentations;
the cold-start flow (`decide(..., warm_start=False)`) is kept only as
the reference the tests check this engine against.
"""

from __future__ import annotations

from .approx import approx_prune
from .intervals import IntervalSet, coverage_profile, mincov_span
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
    most t augmentations.  The method label is "exact-tailored".
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = {"flow_solves": 0, "augmentations": 0, "probes": 0}

    if not intervals.items:
        return Solution((), 0, 0, METHOD, work)
    cov = coverage_profile(intervals).segment_cov
    if max(cov) <= k:
        # removals never help: keeping everything is already optimal
        return score_subset(intervals, range(len(intervals)), METHOD, work)

    # opt_upper_bound, read off the profile already built
    bound = min(k, min(cov))

    def probe(t: int) -> Solution | None:
        work["probes"] += 1
        if t > bound:
            # provably infeasible, no flow needed
            return None
        sol = flow.decide(intervals, k, t)
        work["flow_solves"] += 1
        if sol is not None:
            work["augmentations"] += sol.work["augmentations"]
        return sol

    # doubling phase: find the first infeasible probe, clamping at k
    best: Solution | None = None
    lo = 0  # largest t known feasible
    hi = None  # smallest t known infeasible
    t = 1
    while True:
        sol = probe(t)
        if sol is None:
            hi = t
            break
        best, lo = sol, t
        if t == k:
            break
        t = min(2 * t, k)

    if hi is None:
        # every probe up to t = k succeeded
        return _finish(best, work)
    if best is None:
        # even t = 1 failed, so OPT = 0 and any subset obeying the cap is
        # optimal; approx's keeps reads wherever the cap allows, while the
        # warm-started t = 0 flow witness keeps none
        kept = approx_prune(intervals, k).kept
        return _finish(score_subset(intervals, kept, METHOD), work)

    # binary search on (lo, hi): invariant lo feasible, hi infeasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        sol = probe(mid)
        if sol is None:
            hi = mid
        else:
            best, lo = sol, mid
    return _finish(best, work)


def _finish(sol: Solution, work: dict[str, int]) -> Solution:
    merged = dict(sol.work)
    merged.update(work)
    return Solution(sol.kept, sol.achieved_mincov, sol.achieved_maxcov,
                    sol.method, merged)

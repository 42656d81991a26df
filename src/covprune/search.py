"""Exact optimizer: the largest coverage floor t for which a subset with
maxcov <= k exists, found by descending from the bound min(k, mincov).

No subset beats either bound: removing intervals never raises coverage,
and a feasible answer has maxcov <= k.  Feasibility is monotone in t, so
the first feasible floor on the way down is the optimum.  The chain
network is built once per interval set and one flow is carried from one
floor to the next, because a maximum flow at t is still feasible at
t - 1.  The flow value starts at k - bound and each augmenting path
raises it, so the whole descent costs at most `bound` augmentations,
run in C (`covprune_max_flow`).  Only the witness is scored, from the
flow on the reads' arcs as it stands: a 0/1 keep column by chain place.
`descend` is the one body of both exact entry points: `solve_exact`
runs it over every floor from the bound down, and `flow.decide` over its
one floor t.
"""

from array import array

from . import flow
from ._native import zeros
from .intervals import IntervalSet
from .solution import Solution, score_subset

METHOD = "exact-tailored"


def solve_exact(intervals: IntervalSet, k: int) -> Solution:
    """Maximize mincov over subsets with maxcov <= k.

    The method label is "exact-tailored"; `work` counts `flow_solves`,
    the `augmentations` from the warm start to the witness, `probes`,
    and `native_flow` (1 when a compiled flow ran).
    """
    return descend(intervals, k, None,
                   {"flow_solves": 0, "augmentations": 0, "probes": 0, "native_flow": 0})


def descend(intervals: IntervalSet, k: int, t: int | None,
            work: dict[str, int]) -> Solution | None:
    """The answer at the floor t, or with t None at every floor from the
    bound min(k, mincov) down until one holds; None when t does not hold.

    The floors run on one network and one flow, each probe counted in
    `work` (and in its `probes`, when it has that counter).  An empty set
    holds every floor, and an input already under the cap keeps every
    read.  At floor 0 every subset under the cap qualifies, and the answer
    is approx's kept set, which keeps a read wherever the cap allows.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    profile = intervals.compressed
    # no floor above the bound holds, so none is probed; an empty set holds them all
    bound = min(k, profile.mincov) if len(intervals) or t is None else t
    floors = range(bound, -1, -1) if t is None else [t] if t <= bound else []
    if floors and profile.maxcov <= k:
        # removals never help, and k >= 2**63 stays out of int64 capacities
        return score_subset(intervals, None, k, METHOD, work)
    net = None
    for floor in floors:
        if floor == 0:
            # the warm start's witness is empty: approx's kept set, already scored, stands
            from .approx import approx_prune
            return approx_prune(intervals, k)._replace(method=METHOD, work=dict(work))
        if net is None:
            # the warm start: backbone flow k - floor saturates the interior
            net = flow.build_network(intervals)
            held = array("q", [k - floor]) * net.num_backbone_arcs + zeros("q", len(intervals))
        result = flow.max_flow_augmenting(net, k, floor, held)
        work["flow_solves"] += 1
        work["augmentations"] += result.augmentations
        work["native_flow"] = 1
        if "probes" in work:
            work["probes"] += 1
        # the value starts at k - floors[0], and each path adds at least 1
        if work["augmentations"] > floors[0]:
            raise AssertionError(f"{work['augmentations']} augmentations "
                                 f"from the start at t={floors[0]}")
        # the value and the witness view `held`: read before the next probe
        if result.value == k:  # the flow on the reads' arcs is the witness's keep column
            return score_subset(intervals, result.interval_flow, k, METHOD, work)
    return None

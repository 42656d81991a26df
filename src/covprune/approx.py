"""O(n log n) approximate pruning with ratio k / floor(k/2).

Intervals are visited in start order.  An interval whose span currently
has max coverage above k is a candidate for deletion; it is actually
deleted only while it is *expendable*, i.e. its span's current minimum
coverage exceeds floor(k/2).  Deleting an expendable interval can never
drag any point below floor(k/2), and a point that finished above k
would need every surviving interval across it to be crucial, which is
impossible, so the result always satisfies the cap.  The achieved
minimum coverage is at least min(mincov of the input, floor(k/2)),
hence at least floor(k/2)/k times the exact optimum.

A refill pass follows, over the deleted intervals in the same order: one
whose span's current max coverage is below k is re-added.  It raises
coverage only where the cap allows, so both bounds above still hold; a
read it refuses never fits later, since coverage only rises, so the kept
set is maximal: no deleted read fits under the cap.

The sweep, the refill included, runs as one C call, `covprune_sweep`
(`_sweep.c`, loaded by `_native`), which reads the profile's columns in
their chain order and keeps the current segment coverage in one of two
stores that make the same decisions.  It leaves a keep column by chain
place, 1 where a read stays, which `score_subset` scores as it is.  The
flat rule, stated here only: when the coverage stays below 2**31 and the
spans sum to at most 40 * n * bit_length(nseg) segments, a flat int32
copy scanned span by span, at most four times that sum with the refill,
so O(n log n) too, and cheaper on short reads; else the lazy coverage
tree, O(log nseg) nodes per read.
Near 40 segments per read per bit of nseg the vectorized flat scan costs
about what the tree does (15k reads of 0.5-1.5 kb at depth 400-600).
"""

from ._native import load_library, zeros
from .intervals import IntervalSet
from .solution import Solution, score_subset


def approx_prune(intervals: IntervalSet, k: int) -> Solution:
    """Prune S so maxcov <= k, keeping mincov within floor(k/2)/k of optimal.

    Crucial/expendable status is evaluated against the *current*
    coverage at query time, not the initial coverage: the coverage-floor
    argument needs post-deletion coverage to stay at or above floor(k/2)
    at the moment of deletion.  Ties in start order break by ascending
    end, then input index, so runs are reproducible.

    `work` counts `tree_nodes_touched` or, for the flat scan,
    `segments_scanned`, sweep and refill together, then `candidates`
    (reads whose span had max > k when visited), `blocked_crucial`
    (candidates kept because their span's min was <= floor(k/2)),
    `refilled` (deleted reads the refill re-added) and `native_sweep` (1
    when a sweep ran).

    Raises AssertionError when the recounted answer falls below
    min(input mincov, floor(k/2)), the guarantee: the sweep is at fault.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    work = {"tree_nodes_touched": 0, "segments_scanned": 0, "candidates": 0,
            "blocked_crucial": 0, "refilled": 0, "native_sweep": 0}
    _, lo, hi, cov, low, top, spanned, _ = intervals.compressed
    if top <= k:
        # removals never help: keeping everything, an empty set too, is already optimal
        return score_subset(intervals, None, k, "approx", work)

    n, nseg = len(lo), len(cov)
    flat = top < 2**31 and spanned <= 40 * n * nseg.bit_length()
    keep, counts = zeros("q", n), zeros("q", 4)
    load_library().covprune_sweep(n, lo, hi, nseg, cov, k, flat, keep, counts)
    visited, work["candidates"], work["blocked_crucial"], work["refilled"] = counts
    work["native_sweep"] = 1
    work["segments_scanned" if flat else "tree_nodes_touched"] = visited
    # the sweep's keep column, recounted from scratch, never from the sweep's cells
    sol = score_subset(intervals, keep, k, "approx", work)
    if sol.achieved_mincov < min(low, k // 2):
        raise AssertionError(f"approx kept a set of mincov {sol.achieved_mincov} "
                             f"< min(input mincov {low}, k//2={k // 2})")
    return sol

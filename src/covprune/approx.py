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

The sweep keeps the current segment coverage either in the lazy
coverage tree, O(log nseg) nodes per read, or, when the spans sum to
at most 40 * n * bit_length(nseg) segments and the coverage stays below
2**31, in a flat int32 copy scanned span by span: at most twice that
sum, so O(n log n) too, and cheaper on short reads.  Both run as C loops
(`_sweep.c`, loaded by `_native`) and make the same decisions.
"""

from __future__ import annotations

from . import _native
from ._native import extremes, zeros
from .intervals import IntervalSet, segment_cov
from .solution import Solution


def approx_prune(intervals: IntervalSet, k: int) -> Solution:
    """Prune S so maxcov <= k, keeping mincov within floor(k/2)/k of optimal.

    Crucial/expendable status is evaluated against the *current*
    coverage at query time, not the initial coverage: the coverage-floor
    argument needs post-deletion coverage to stay at or above floor(k/2)
    at the moment of deletion.  Ties in start order break by ascending
    end, then input index, so runs are reproducible.

    `work` counts `tree_nodes_touched` or, for the flat scan,
    `segments_scanned`, then `candidates` (reads whose span had max > k
    when visited), `blocked_crucial` (candidates kept because their
    span's min was <= floor(k/2)) and `native_sweep` (1 when a compiled
    sweep ran).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(intervals)
    work = {"tree_nodes_touched": 0, "segments_scanned": 0, "candidates": 0,
            "blocked_crucial": 0, "native_sweep": 0}
    if not n:
        return Solution((), 0, 0, "approx", work)

    delims, lo, hi, cov = intervals.compressed
    low, top = extremes(cov)
    if top <= k:
        # removals never help: keeping everything is already optimal
        return Solution(tuple(range(n)), low, top, "approx", work)

    lib, nseg = _native.load_library(), len(cov)
    # equals sorted((start, end, i)): lo and hi order reads as their
    # coordinates do, and the radix sort is stable
    lib.covprune_order(n, lo, hi, nseg, order := zeros("q", n))
    # near 40 segments per read per bit of nseg, the vectorized C flat scan
    # costs about what the tree does (15k reads of 0.5-1.5 kb at depth 400-600);
    # its cells are int32
    flat = top < 2**31 and lib.covprune_spans(n, lo, hi, nseg) <= 40 * n * nseg.bit_length()
    deleted, counts = _sweep(order, lo, hi, cov, k, flat)
    visited, work["candidates"], work["blocked_crucial"] = counts
    work["native_sweep"] = 1
    work["segments_scanned" if flat else "tree_nodes_touched"] = visited

    # recount the kept reads from scratch, never from the sweep's state
    kept = _native.select(deleted, 0)
    mn_after, mx_after = extremes(segment_cov(lo, hi, len(delims), kept))
    if mx_after > k:
        raise AssertionError(
            f"pruned set still has maxcov {mx_after} > k={k}; "
            "the sweep's coverage state is corrupt")
    return Solution(tuple(kept), mn_after, mx_after, "approx", work)


def _sweep(order, lo, hi, cov, k: int, flat: bool):
    """The sweep of the reads in `order` over the coverage `cov`, by the
    tree or, with `flat`, by the flat scan, either checking every index and
    span first; returns the int64 mask of deleted reads, in input order,
    and (tree nodes touched or segments scanned, candidates, blocked)."""
    lib, n, nseg = _native.load_library(), len(order), len(cov)
    if not len(lo) == len(hi) == n:
        raise ValueError("order, lo and hi differ in length")
    deleted, counts = zeros("q", n), zeros("q", 3)
    if flat:  # on an int32 copy, lowered in place; approx_prune keeps cov < 2**31
        lib.covprune_flat_sweep(nseg, cov, zeros("i", nseg), n, order, lo, hi, k, deleted, counts)
    else:
        cap = 1 << (nseg - 1).bit_length()
        lib.covprune_sweep(nseg, cap, cov, n, order, lo, hi, k,
                           *(zeros("q", 2 * cap) for _ in range(3)), deleted, counts)
    return deleted, tuple(counts)

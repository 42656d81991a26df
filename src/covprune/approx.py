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

import numpy as np

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
    top = int(cov.max())
    if top <= k:
        # removals never help: keeping everything is already optimal
        return Solution(tuple(range(n)), int(cov.min()), top, "approx", work)

    # equals sorted((start, end, i)): lo and hi order reads as their
    # coordinates do, and a stable sort breaks ties by index
    order = np.argsort(lo * (len(cov) + 1) + hi, kind="stable")
    # near 40 segments per read per bit of nseg, the vectorized C flat scan
    # costs about what the tree does (15k reads of 0.5-1.5 kb at depth 400-600);
    # its cells are int32
    flat = top < 2**31 and int((hi - lo).sum()) <= 40 * n * len(cov).bit_length()
    deleted, counts = _sweep(order, lo, hi, cov, k, flat)
    visited, work["candidates"], work["blocked_crucial"] = counts
    work["native_sweep"] = 1
    work["segments_scanned" if flat else "tree_nodes_touched"] = visited

    # recount the kept reads from scratch, never from the sweep's state
    keep = ~deleted
    after = segment_cov(lo[keep], hi[keep], len(delims))
    mx_after = int(after.max())
    if mx_after > k:
        raise AssertionError(
            f"pruned set still has maxcov {mx_after} > k={k}; "
            "the sweep's coverage state is corrupt")
    return Solution(tuple(np.flatnonzero(keep).tolist()), int(after.min()), mx_after,
                    "approx", work)


def _sweep(order, lo, hi, cov, k: int, flat: bool):
    """The sweep of the reads in `order` over the coverage `cov`, by the
    tree or, with `flat`, by the flat scan; returns the deleted mask in
    input order and (tree nodes touched or segments scanned, candidates,
    blocked)."""
    # imported on first use: the loader's own imports would slow every CLI start
    from ._native import load_library
    lib, nseg = load_library(), len(cov)
    lo = np.ascontiguousarray(lo[order], dtype=np.int64)
    hi = np.ascontiguousarray(hi[order], dtype=np.int64)
    if not (lo.min() >= 0 and (lo < hi).all() and hi.max() <= nseg):
        raise ValueError("segment range outside the coverage profile")
    swept = np.zeros(len(lo), np.uint8)
    counts = np.zeros(3, np.int64)
    if flat:
        val = cov.astype(np.int32)  # a copy, lowered in place; approx_prune keeps cov < 2**31
        lib.covprune_flat_sweep(len(lo), lo, hi, k, val, swept, counts)
    else:
        val = np.ascontiguousarray(cov, dtype=np.int64)
        cap = 1 << (nseg - 1).bit_length()
        mn, mx, bal = (np.empty(2 * cap, np.int64) for _ in range(3))
        lib.covprune_sweep(nseg, cap, val, len(lo), lo, hi, k, mn, mx, bal, swept, counts)
    deleted = np.empty(len(lo), bool)
    deleted[order] = swept.astype(bool)
    return deleted, tuple(counts.tolist())

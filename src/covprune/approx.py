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

The sweep runs as one compiled C loop (`_sweep.c`, loaded by
`_native`) when a C compiler is available, and otherwise over the
Python `CoverageTree`, which stays the reference it is tested against.
Both make the same decisions and count the same work.
"""

from __future__ import annotations

import numpy as np

from .intervals import IntervalSet, segment_cov
from .solution import Solution


def is_expendable(current_mincov: int, k: int) -> bool:
    """An interval is expendable while the minimum coverage over its span
    exceeds floor(k/2); otherwise it is crucial and must never be deleted."""
    return current_mincov > k // 2


def approx_prune(intervals: IntervalSet, k: int) -> Solution:
    """Prune S so maxcov <= k, keeping mincov within floor(k/2)/k of optimal.

    Crucial/expendable status is evaluated against the *current* tree
    state at query time, not the initial coverage: the coverage-floor
    argument needs post-deletion coverage to stay at or above floor(k/2)
    at the moment of deletion.  Ties in start order break by ascending
    end, then input index, so runs are reproducible.

    `work` counts `tree_nodes_touched`, `candidates` (reads whose span
    had max > k when visited), `blocked_crucial` (candidates kept
    because their span's min was <= floor(k/2)) and `native_sweep`
    (1 when the compiled sweep ran).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(intervals)
    work = {"tree_nodes_touched": 0, "candidates": 0, "blocked_crucial": 0,
            "native_sweep": 0}
    if not n:
        return Solution((), 0, 0, "approx", work)

    delims, lo, hi, cov = intervals.compressed
    if cov.max() <= k:
        # removals never help: keeping everything is already optimal
        return Solution(tuple(range(n)), int(cov.min()), int(cov.max()), "approx", work)

    # equals sorted((start, end, i)): lo and hi order reads as their coordinates do
    order = np.lexsort((np.arange(n), hi, lo))
    # imported on first use: the loader's own imports would slow every CLI start
    from ._native import load_library
    lib = load_library()
    if lib is None:
        deleted, counts = _sweep_python(intervals, order, delims, cov, k)
    else:
        deleted, counts = _sweep_native(lib, order, lo, hi, cov, k)
        work["native_sweep"] = 1
    work["tree_nodes_touched"], work["candidates"], work["blocked_crucial"] = counts

    # recount the kept reads from scratch, never from the tree's state
    keep = ~deleted
    after = segment_cov(lo[keep], hi[keep], len(delims))
    mx_after = int(after.max())
    if mx_after > k:
        raise AssertionError(
            f"pruned set still has maxcov {mx_after} > k={k}; "
            "lazy propagation is corrupt")
    return Solution(tuple(np.flatnonzero(keep).tolist()), int(after.min()), mx_after,
                    "approx", work)


def _sweep_python(intervals: IntervalSet, order, delims, cov, k: int):
    """The reference sweep over `CoverageTree`; returns the deleted mask
    in input order and (nodes touched, candidates, blocked)."""
    from .coverage_tree import CoverageTree  # only this fallback needs the tree
    tree = CoverageTree(delims.tolist(), cov.tolist())
    query = tree.range_query
    shrink = tree.range_decrement
    items = intervals.items
    deleted = [False] * len(items)
    candidates = blocked = 0
    for i in order.tolist():
        iv = items[i]
        mn, mx = query(iv.start, iv.end)
        if mx > k:
            candidates += 1
            if is_expendable(mn, k):
                shrink(iv.start, iv.end)
                deleted[i] = True
            else:
                blocked += 1
    return np.array(deleted), (tree.nodes_touched, candidates, blocked)


def _sweep_native(lib, order, lo, hi, cov, k: int):
    """The same sweep as `_sweep_python`, run by `covprune_sweep` in C."""
    nseg = len(cov)
    lo = np.ascontiguousarray(lo[order], dtype=np.int64)
    hi = np.ascontiguousarray(hi[order], dtype=np.int64)
    if not (lo.min() >= 0 and (lo < hi).all() and hi.max() <= nseg):
        raise ValueError("segment range outside the coverage tree")
    cap = 1 << (nseg - 1).bit_length()
    mn, mx, bal = (np.empty(2 * cap, np.int64) for _ in range(3))
    swept = np.zeros(len(lo), np.uint8)
    counts = np.zeros(3, np.int64)
    lib.covprune_sweep(nseg, cap, np.ascontiguousarray(cov, dtype=np.int64),
                       len(lo), lo, hi, k, mn, mx, bal, swept, counts)
    deleted = np.empty(len(lo), bool)
    deleted[order] = swept.astype(bool)
    return deleted, tuple(counts.tolist())

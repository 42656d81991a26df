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
`CoverageTree`, O(log nseg) nodes per read, or, when the spans sum to
at most 40 * n * bit_length(nseg) segments and the coverage stays below
2**31, in a flat int32 copy scanned span by span: at most twice that
sum, so O(n log n) too, and cheaper on short reads.  Each runs as a C
loop (`_sweep.c`, loaded by `_native`) when a C compiler is available,
else as its Python twin on the same arrays.  All four make the same
decisions; each twin counts its C loop's work.
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
    span's min was <= floor(k/2)) and `native_sweep` (1 when C ran).
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
    # imported on first use: the loader's own imports would slow every CLI start
    from ._native import load_library
    lib = load_library()
    if lib is None:
        deleted, counts = (_flat_python if flat else _sweep_python)(order, lo, hi, cov, k)
    else:
        deleted, counts = _sweep_native(lib, order, lo, hi, cov, k, flat)
        work["native_sweep"] = 1
    visited, work["candidates"], work["blocked_crucial"] = counts
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


def _sweep_python(order, lo, hi, cov, k: int):
    """The tree sweep over `CoverageTree`, on the arrays `_sweep_native`
    takes; returns the deleted mask in input order and (nodes touched,
    candidates, blocked)."""
    from .coverage_tree import CoverageTree  # only this fallback needs the tree
    tree = CoverageTree(cov.tolist())
    query = tree.range_query
    shrink = tree.range_decrement
    deleted = np.zeros(len(order), bool)
    candidates = blocked = 0
    for i, l, h in zip(order.tolist(), lo[order].tolist(), hi[order].tolist()):
        mn, mx = query(l, h)
        if mx > k:
            candidates += 1
            if mn > k // 2:  # expendable
                shrink(l, h)
                deleted[i] = True
            else:
                blocked += 1
    return deleted, (tree.nodes_touched, candidates, blocked)


def _flat_python(order, lo, hi, cov, k: int):
    """The flat scan over a list, as `_sweep_python` but counting
    segments scanned (read or lowered) where it counts nodes touched."""
    cur = cov.tolist()
    deleted = np.zeros(len(order), bool)
    scanned = candidates = blocked = 0
    for i, l, h in zip(order.tolist(), lo[order].tolist(), hi[order].tolist()):
        seg = cur[l:h]
        scanned += h - l
        if max(seg) > k:
            candidates += 1
            if min(seg) > k // 2:
                cur[l:h] = [x - 1 for x in seg]
                scanned += h - l
                deleted[i] = True
            else:
                blocked += 1
    return deleted, (scanned, candidates, blocked)


def _sweep_native(lib, order, lo, hi, cov, k: int, flat: bool):
    """`_sweep_python`'s sweep, or with `flat` `_flat_python`'s, in C."""
    nseg = len(cov)
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

"""Brute-force references for validating the real solvers at desk scale."""

from __future__ import annotations

import numpy as np

from .intervals import IntervalSet, segment_cov
from .solution import Solution

DEFAULT_LIMIT = 20
_CHUNK_BITS = 18


def brute_force_opt(intervals: IntervalSet, k: int,
                    limit: int = DEFAULT_LIMIT, force: bool = False) -> Solution:
    """Exhaustively maximize mincov over all subsets with maxcov <= k.

    Enumerates all 2^n subsets, scoring mincov over the original span
    (uncovered points count as 0).  Among optima the lexicographically
    smallest kept-index set is returned, so witnesses are reproducible.
    Refuses n > limit unless `force` is set; this is a desk-scale tool,
    not a solver.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(intervals)
    if n > limit and not force:
        raise ValueError(
            f"{n} intervals exceed the brute-force limit {limit}; "
            "pass force=True to override")
    if n == 0:
        return Solution((), 0, 0, "oracle", {"subsets": 1})

    delims, lo, hi, cov = intervals.compressed
    nseg = len(cov)
    # rows: per-interval 0/1 indicator over the full segmentation
    rows = np.zeros((n, nseg), dtype=np.int16)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        rows[i, a:b] = 1

    best_min = -1
    candidates: list[np.ndarray] = []
    total = 1 << n
    chunk = 1 << min(_CHUNK_BITS, n)
    for base in range(0, total, chunk):
        masks = np.arange(base, min(base + chunk, total), dtype=np.int64)
        covs = np.zeros((len(masks), nseg), dtype=np.int16)
        for i in range(n):
            covs[(masks >> i) & 1 == 1] += rows[i]
        maxs = covs.max(axis=1)
        mins = covs.min(axis=1)
        mins[maxs > k] = -1  # infeasible
        top = int(mins.max())
        if top > best_min:
            best_min = top
            candidates = [masks[mins == top]]
        elif top == best_min:
            candidates.append(masks[mins == best_min])
    # the empty subset is always feasible, so best_min >= 0
    witness = _lex_min_subset(np.concatenate(candidates), n)
    kept = tuple(i for i in range(n) if witness >> i & 1)
    idx = np.asarray(kept, np.intp)
    mx = int(segment_cov(lo[idx], hi[idx], len(delims)).max(initial=0))
    return Solution(kept, best_min, mx, "oracle", {"subsets": total})


def _lex_min_subset(masks: np.ndarray, n: int) -> int:
    """Among bit masks, pick the lexicographically smallest index tuple.

    Greedy per position: a mask equal to the prefix so far beats every
    extension; otherwise the smallest affordable next index wins.
    """
    prefix = 0
    while True:
        rest = masks & ~np.int64(prefix)
        if (rest == 0).any():
            return prefix
        if len(masks) == 1:
            return int(masks[0])
        low = rest & -rest
        smallest = low.min()
        masks = masks[low == smallest]
        prefix |= int(smallest)

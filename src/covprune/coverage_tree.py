"""Perfect binary tree over coverage segments with lazy range decrements.

The approx sweep holds its coverage in this tree when reads span too
many segments for a flat scan (see `approx`): in this class when no
compiled library loads, else in `covprune_sweep` (`_sweep.c`), the same
tree in C.  Leaves are the segments between consecutive delimiters,
initialized to the full-set coverage; a range is a half-open run
[lo, hi) of segment indices, as in the `lo`/`hi` arrays of
`IntervalSet.compressed`.  Every node carries the min and max coverage
of its subtree plus a `balance`: a pending decrement that applies to
the whole subtree but has not yet been pushed to the children.  The
stored invariant, for every node v:

    true min of v's subtree == mn[v] + bal[v] + sum of bal over strict
    ancestors of v     (and likewise for max)

Range queries push balances down along the two root-to-boundary paths,
then aggregate mn[v] + bal[v] over the O(log n) canonical nodes covering
the range.  Range decrements subtract 1 from the balance of the same
canonical nodes and recompute min/max bottom-up along the two boundary
paths.  Both operations touch O(log n) nodes; the shared top of the two
boundary paths (above their lowest common ancestor) is walked once, not
twice.
"""

from __future__ import annotations

from .intervals import IntervalSet

_INF = 1 << 62


class CoverageTree:
    """Array-based perfect binary tree: node 1 is the root, node v has
    children 2v and 2v+1, leaves start at index `cap` (a power of two).
    Padding leaves hold +inf/-inf so they never win a min or max.
    """

    def __init__(self, segment_values):
        nseg = len(segment_values)
        if nseg == 0:
            raise ValueError("coverage tree needs at least one segment")
        self.cap = cap = 1 << (nseg - 1).bit_length()
        self.depth = cap.bit_length() - 1
        self.num_segments = nseg
        size = 2 * cap
        self.mn = [_INF] * size
        self.mx = [-_INF] * size
        self.bal = [0] * size
        self.mn[cap:cap + nseg] = segment_values
        self.mx[cap:cap + nseg] = segment_values
        for v in range(cap - 1, 0, -1):
            a, b = self.mn[2 * v], self.mn[2 * v + 1]
            self.mn[v] = a if a < b else b
            a, b = self.mx[2 * v], self.mx[2 * v + 1]
            self.mx[v] = a if a > b else b
        self.nodes_touched = 0

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= self.num_segments:
            raise ValueError(f"bad segment range [{lo}, {hi}) "
                             f"for {self.num_segments} segments")

    def range_query(self, lo: int, hi: int) -> tuple[int, int]:
        """Current (min, max) coverage over segments [lo, hi)."""
        self._check_range(lo, hi)
        cap, bal, mn, mx = self.cap, self.bal, self.mn, self.mx
        l0 = cap + lo
        r0 = cap + hi - 1
        # push pending balances down both boundary paths, shared top once
        touched = 0
        for end, top in ((l0, self.depth), (r0, (l0 ^ r0).bit_length() - 1)):
            for h in range(top, 0, -1):
                v = end >> h
                touched += 1
                b = bal[v]
                if b:
                    c = 2 * v
                    bal[c] += b
                    bal[c + 1] += b
                    mn[v] += b
                    mx[v] += b
                    bal[v] = 0
        l = l0
        r = r0 + 1
        qmn = _INF
        qmx = -_INF
        while l < r:
            if l & 1:
                b = bal[l]
                v = mn[l] + b
                if v < qmn:
                    qmn = v
                v = mx[l] + b
                if v > qmx:
                    qmx = v
                l += 1
                touched += 1
            if r & 1:
                r -= 1
                b = bal[r]
                v = mn[r] + b
                if v < qmn:
                    qmn = v
                v = mx[r] + b
                if v > qmx:
                    qmx = v
                touched += 1
            l >>= 1
            r >>= 1
        self.nodes_touched += touched
        return qmn, qmx

    def range_decrement(self, lo: int, hi: int) -> None:
        """Drop the coverage of every segment in [lo, hi) by 1."""
        self._check_range(lo, hi)
        cap, bal, mn, mx = self.cap, self.bal, self.mn, self.mx
        l = cap + lo
        r = cap + hi
        touched = 0
        while l < r:
            if l & 1:
                bal[l] -= 1
                l += 1
                touched += 1
            if r & 1:
                r -= 1
                bal[r] -= 1
                touched += 1
            l >>= 1
            r >>= 1
        # repair aggregates bottom-up: w's boundary path up to the LCA,
        # then v's up to the root, so the shared top is repaired once, last
        v = (cap + lo) >> 1
        w = (cap + hi - 1) >> 1
        for u, stop in ((w, w >> (v ^ w).bit_length()), (v, 0)):
            while u != stop:
                c = 2 * u
                bl, br = bal[c], bal[c + 1]
                a, b = mn[c] + bl, mn[c + 1] + br
                mn[u] = a if a < b else b
                a, b = mx[c] + bl, mx[c + 1] + br
                mx[u] = a if a > b else b
                u >>= 1
                touched += 1
        self.nodes_touched += touched


def build_tree(intervals: IntervalSet) -> CoverageTree:
    """Coverage tree over the segment coverage of S; interval i spans
    segments [lo[i], hi[i]) of `intervals.compressed`."""
    if not len(intervals):
        raise ValueError("cannot build a coverage tree for an empty interval set")
    return CoverageTree(intervals.compressed[3].tolist())

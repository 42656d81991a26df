"""Perfect binary tree over coverage segments with lazy range shifts.

The approx sweep holds its coverage in this tree, in C, when reads
span too many segments for a flat scan (the rule is in `approx`; the C
is `covprune_sweep` in `_sweep.c`).  No solver runs this Python class;
it stays for two readers.  The benchmark's tracer (`bench/tracing.py`)
wraps `build_tree`, `range_query` and `range_decrement` by name, and the
tests drive it as the reference whose decisions and nodes touched
`covprune_sweep` must match under its tree store; its `range_query`,
`_push`, `_repair` and `_shift` are the C's `query`, `push`, `repair`
and `shift`.

Leaves are the segments between consecutive delimiters, initialized to
the full-set coverage; a range is a half-open run [lo, hi) of segment
indices, as in the `lo`/`hi` arrays of `IntervalSet.compressed`.
Every node carries the min and max coverage of its subtree plus a
`balance`, a shift of the whole subtree not yet pushed to the
children: the true min of v's subtree is mn[v] + bal[v] plus the bal of
every strict ancestor of v, and likewise for max.  A query pushes the
balances down the two root-to-boundary paths, then aggregates
mn[v] + bal[v] over the O(log n) canonical nodes of the range; a
decrement (the sweep's deletion) or an increment (the refill's re-add)
shifts the balance of the same nodes, then repairs min and max up the
two boundary paths.  The shared top of the two paths, above
their lowest common ancestor, is walked once.
"""

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
        self.mn, self.mx, self.bal = [_INF] * (2 * cap), [-_INF] * (2 * cap), [0] * (2 * cap)
        self.mn[cap:cap + nseg] = self.mx[cap:cap + nseg] = segment_values
        for v in range(cap - 1, 0, -1):
            self._repair(v)
        self.nodes_touched = 0

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi <= self.num_segments:
            raise ValueError(f"bad segment range [{lo}, {hi}) "
                             f"for {self.num_segments} segments")

    def _push(self, v: int) -> None:
        """Move internal node v's pending balance onto its two children."""
        if b := self.bal[v]:
            self.bal[2 * v] += b
            self.bal[2 * v + 1] += b
            self.mn[v] += b
            self.mx[v] += b
            self.bal[v] = 0

    def _repair(self, v: int) -> None:
        """Recompute node v's min/max from its children, balances included."""
        mn, mx, bal, c = self.mn, self.mx, self.bal, 2 * v
        mn[v] = min(mn[c] + bal[c], mn[c + 1] + bal[c + 1])
        mx[v] = max(mx[c] + bal[c], mx[c + 1] + bal[c + 1])

    def _canonical(self, lo: int, hi: int) -> list[int]:
        """The O(log n) nodes whose subtrees tile segments [lo, hi)."""
        nodes, l, r = [], self.cap + lo, self.cap + hi
        while l < r:
            if l & 1:
                nodes.append(l)
                l += 1
            if r & 1:
                r -= 1
                nodes.append(r)
            l >>= 1
            r >>= 1
        return nodes

    def range_query(self, lo: int, hi: int) -> tuple[int, int]:
        """Current (min, max) coverage over segments [lo, hi)."""
        self._check_range(lo, hi)
        l0, r0 = self.cap + lo, self.cap + hi - 1
        # push pending balances down both boundary paths, shared top once
        path = [l0 >> h for h in range(self.depth, 0, -1)]
        path += [r0 >> h for h in range((l0 ^ r0).bit_length() - 1, 0, -1)]
        for v in path:
            self._push(v)
        nodes = self._canonical(lo, hi)
        self.nodes_touched += len(path) + len(nodes)
        mn, mx, bal = self.mn, self.mx, self.bal
        return min(mn[v] + bal[v] for v in nodes), max(mx[v] + bal[v] for v in nodes)

    def range_decrement(self, lo: int, hi: int) -> None:
        """Drop the coverage of every segment in [lo, hi) by 1."""
        self._shift(lo, hi, -1)

    def range_increment(self, lo: int, hi: int) -> None:
        """Raise the coverage of every segment in [lo, hi) by 1."""
        self._shift(lo, hi, 1)

    def _shift(self, lo: int, hi: int, delta: int) -> None:
        self._check_range(lo, hi)
        nodes = self._canonical(lo, hi)
        for v in nodes:
            self.bal[v] += delta
        # repair aggregates bottom-up: w's boundary path up to the LCA,
        # then v's up to the root, so the shared top is repaired once, last
        v, w = (self.cap + lo) >> 1, (self.cap + hi - 1) >> 1
        path = [w >> h for h in range((v ^ w).bit_length())]
        path += [v >> h for h in range(v.bit_length())]
        for u in path:
            self._repair(u)
        self.nodes_touched += len(nodes) + len(path)


def build_tree(intervals: IntervalSet) -> CoverageTree:
    """Coverage tree over the segment coverage of S; interval i spans
    segments [lo[i], hi[i]) of `intervals.compressed`."""
    if not len(intervals):
        raise ValueError("cannot build a coverage tree for an empty interval set")
    return CoverageTree(intervals.compressed[3].tolist())

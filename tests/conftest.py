import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import strategies as st

from covprune import IntervalSet

# Six overlapping reads used throughout the suite; small enough to check
# everything by hand yet rich enough to exercise every code path:
#   A=[0,8) B=[0,2) C=[2,6) D=[1,3) E=[1,10) F=[4,10)
DEMO_PAIRS = ((0, 8), (0, 2), (2, 6), (1, 3), (1, 10), (4, 10))


@pytest.fixture
def demo() -> IntervalSet:
    return IntervalSet.from_pairs(DEMO_PAIRS)


def iset(pairs) -> IntervalSet:
    return IntervalSet.from_pairs(pairs)


def generate_instance(n: int, span_length: int, seed: int) -> IntervalSet:
    """Random benchmark instance, fully determined by the seed.

    Starts are uniform over [0, span_length), lengths uniform over
    [1, span_length // 10], ends clipped to the span.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if span_length < 2:
        raise ValueError(f"span_length must be >= 2, got {span_length}")
    rng = random.Random(seed)
    max_len = max(1, span_length // 10)
    pairs = []
    for _ in range(n):
        start = rng.randrange(span_length)
        pairs.append((start, min(start + rng.randint(1, max_len), span_length)))
    return IntervalSet.from_pairs(pairs)


def pairs_of(intervals: IntervalSet) -> list[tuple[int, int]]:
    """The (start, end) of each interval of the set, in its order."""
    return list(zip(intervals.starts.tolist(), intervals.ends.tolist()))


def subset(intervals: IntervalSet, indices) -> IntervalSet:
    """The intervals of the set at `indices`, in their order."""
    pairs = pairs_of(intervals)
    return iset(pairs[i] for i in indices)


def random_instance(rng: random.Random, n: int,
                    max_coord: int = 60, max_len: int = 15) -> IntervalSet:
    pairs = []
    for _ in range(n):
        s = rng.randrange(max_coord)
        pairs.append((s, s + rng.randint(1, max_len)))
    return IntervalSet.from_pairs(pairs)


def clipped_instance(rng: random.Random, n: int, length: int, max_len: int) -> IntervalSet:
    """Uniform reads cut to [0, length), so the ends are as deep as the middle."""
    pairs = []
    for _ in range(n):
        size = rng.randint(1, max_len)
        start = rng.randint(1 - size, length - 1)
        pairs.append((max(start, 0), min(start + size, length)))
    return iset(pairs)


def count_cover(pairs, p: int) -> int:
    """Independent per-point coverage count used as the sweep oracle."""
    return sum(1 for s, e in pairs if s <= p < e)


def reference_profile(intervals: IntervalSet) -> tuple[list[int], list[int]]:
    """(delimiters, segment coverage) by a pure-Python endpoint sweep,
    written apart from the package's numpy `coverage_profile`."""
    pairs = pairs_of(intervals)
    delims = sorted({c for pair in pairs for c in pair})
    index = {c: j for j, c in enumerate(delims)}
    delta = [0] * len(delims)
    for s, e in pairs:
        delta[index[s]] += 1
        delta[index[e]] -= 1
    cov, running = [], 0
    for d in delta[:-1]:
        running += d
        cov.append(running)
    return delims, cov


def maxcov(intervals: IntervalSet) -> int:
    """Maximum coverage over all points; 0 for the empty set."""
    return max(reference_profile(intervals)[1], default=0)


def mincov_span(intervals: IntervalSet) -> int:
    """Minimum coverage over the set's own span, gaps counting 0; 0 when empty."""
    return min(reference_profile(intervals)[1], default=0)


def mincov_over(intervals: IntervalSet, start: int, end: int) -> int:
    """Minimum coverage over the window [start, end); points no interval
    covers count as 0, so a subset scores against its parent's span."""
    if start >= end:
        raise ValueError(f"empty window [{start}, {end})")
    delims, cov = reference_profile(intervals)
    if not delims or start < delims[0] or end > delims[-1]:
        return 0
    jl = bisect_right(delims, start) - 1
    jr = bisect_right(delims, end - 1) - 1
    return min(cov[jl:jr + 1])


def naive_range_min_max(values, lo: int, hi: int) -> tuple[int, int]:
    """Linear-scan (min, max) of values[lo:hi]; the flat-array reference
    for the coverage tree."""
    if not 0 <= lo < hi <= len(values):
        raise ValueError(f"bad range [{lo}, {hi}) for {len(values)} values")
    window = values[lo:hi]
    return min(window), max(window)


def segment_values(tree) -> list[int]:
    """A coverage tree's effective per-segment coverage: each leaf's value
    plus the balances pending on its path to the root (O(n log n))."""
    out = []
    for j in range(tree.num_segments):
        v = tree.cap + j
        total = 0
        while v:
            total += tree.bal[v]
            v >>= 1
        out.append(tree.mn[tree.cap + j] + total)
    return out


# hypothesis strategy: short lists of small intervals (as (start, end) pairs)
interval_pairs = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1, max_size=10)


def c_sweep(flat: bool):
    """`covprune_sweep` with or without `flat`, called as `sweep_python`
    is; it reads each read's lo and hi at its place in `order`, and its
    keep column comes back as the deleted mask of the reads it marks."""
    from covprune import _native

    def sweep(order, lo, hi, cov, k):
        n = len(lo)
        keep, counts = _native.zeros("q", n), _native.zeros("q", 4)
        assert _native.load_library().covprune_sweep(n, lo[order], hi[order], len(cov), cov, k,
                                                     flat, keep, counts) == 0
        deleted = np.ones(n, bool)
        deleted[order[np.asarray(keep) == 1]] = False
        return deleted, tuple(counts)
    return sweep


def sweeps() -> dict:
    """The approx sweeps by name, each called as `sweep_python` is: both
    Python references, which take the order they are given, and the C
    kernel over either store."""
    from reference_kernels import flat_python, sweep_python
    return {"tree-python": sweep_python, "flat-python": flat_python,
            "tree-c": c_sweep(False), "flat-c": c_sweep(True)}


@pytest.fixture
def compiler():
    """The C compiler command the compiled library was built with."""
    from covprune import _native
    return _native.compiler()


@pytest.hookimpl(tryfirst=True)  # before the header, which names the library
def pytest_sessionstart(session):
    """Stop at once, with the loader's one-line message, when the
    compiled library can be neither loaded nor built: every kernel
    needs it."""
    from covprune import _native
    try:
        _native.load_library()
    except _native.CompilerError as exc:
        pytest.exit(f"covprune: {exc}")


def pytest_report_header(config):
    from covprune import _native
    return [f"covprune C compiler: {' '.join(_native.compiler())}",
            f"covprune compiled module: {_native.load_library().__file__}"]

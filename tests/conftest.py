import random

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


def naive_range_min_max(values, lo: int, hi: int) -> tuple[int, int]:
    """Linear-scan (min, max) of values[lo:hi]; the flat-array reference
    for the coverage tree."""
    if not 0 <= lo < hi <= len(values):
        raise ValueError(f"bad range [{lo}, {hi}) for {len(values)} values")
    window = values[lo:hi]
    return min(window), max(window)


# hypothesis strategy: short lists of small intervals (as (start, end) pairs)
interval_pairs = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1, max_size=10)


@pytest.fixture
def compiler():
    """The C compiler command; skips the native half of a test without one."""
    from covprune import _native
    if _native.load_library() is None:
        pytest.skip("no working C compiler: only the Python reference can run")
    return _native.compiler()


def pytest_report_header(config):
    from covprune._native import load_library
    if load_library():
        return ["covprune approx backend: compiled C sweep",
                "covprune exact flow backend: compiled C max-flow"]
    return ["covprune approx backend: Python _sweep_python over CoverageTree (no C compiler)",
            "covprune exact flow backend: Python _augment_python (no C compiler)"]

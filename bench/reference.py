#!/usr/bin/env python3
"""A fixed piece of work that gauges how fast the host runs right now.

    python3 bench/reference.py

The benchmark starts it as a child process in every round, next to the
covprune runs it times.  It imports numpy, as `covprune.cli` does, and
prints `ready`; then it does work of the kinds covprune's layers do
(a min/max tree over Python lists, breadth-first search over adjacency
lists, pointer chasing through a large list, sorting tuples, filling a
dict and NumPy gathers and sorts), prints a checksum and exits.  Nothing
here depends on covprune, so a change to the program cannot change what
this measures: the time to `ready` gauges start-up, the time to exit
gauges a whole run.
"""

from __future__ import annotations

import random
import sys
from collections import deque

import numpy as np

print("ready", flush=True)


def tree_work(n: int) -> int:
    """Range updates and root-ward scans on an array-based min/max tree."""
    cap = 1 << (n - 1).bit_length()
    mn = [0] * (2 * cap)
    mx = [0] * (2 * cap)
    total = 0
    x = 12345
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        lo = x % n
        hi = min(n, lo + 1 + x % 64)
        lo += cap
        hi += cap
        while lo < hi:
            if lo & 1:
                mn[lo] += 1
                mx[lo] += 1
                lo += 1
            if hi & 1:
                hi -= 1
                mn[hi] += 1
                mx[hi] += 1
            lo >>= 1
            hi >>= 1
        v = (x % n + cap) >> 1
        while v:
            a, b = mn[2 * v], mn[2 * v + 1]
            total += a if a < b else b
            a, b = mx[2 * v], mx[2 * v + 1]
            total += a if a > b else b
            v >>= 1
    return total


def bfs_work(n: int, rounds: int) -> int:
    """Breadth-first search over a graph with scattered arcs."""
    adj = [[] for _ in range(n)]
    for v in range(n):
        w = (v * 7919 + 13) % n
        adj[v].append(w)
        adj[w].append(v)
        adj[v].append((v + 1) % n)
    total = 0
    for r in range(rounds):
        seen = bytearray(n)
        seen[r] = 1
        queue = deque([r])
        while queue:
            u = queue.popleft()
            total += u
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return total


def chase_work(n: int, steps: int) -> int:
    """Follow a random cycle through a list of n Python ints."""
    order = list(range(n))
    random.Random(1).shuffle(order)
    nxt = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    v = total = 0
    for _ in range(steps):
        v = nxt[v]
        total += v
    return total


def object_work(n: int) -> int:
    """Sort tuples and index them by key."""
    items = [(i * 2654435761 % 1_000_003, i, str(i)) for i in range(n)]
    items.sort()
    index = {key: item for key, *item in items}
    return len(index) + items[0][1] + items[-1][1]


def numpy_work(n: int) -> int:
    """Scattered gathers over a 16 MB array, and a sort."""
    a = np.arange(n, dtype=np.int64) * 7919 % 1_000_003
    idx = np.arange(n // 2, dtype=np.int64) * 104729 % n
    return int(a[idx].sum() + np.sort(a[: n // 4])[10])


checksum = (tree_work(12_000) + bfs_work(50_000, 2) + chase_work(100_000, 100_000)
            + object_work(80_000) + numpy_work(2_000_000))
print(checksum)
sys.exit(0)

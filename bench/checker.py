"""Independent checks of covprune's output, written apart from the program.

Coverage comes from a NumPy endpoint sweep and optimality from
`scipy.sparse.csgraph.maximum_flow` on the chain network; nothing here
imports covprune.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow


class CheckError(AssertionError):
    """An output that breaks one of the checks below."""


def coverage(starts: np.ndarray, ends: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """(min, max) coverage over [lo, hi); points no read covers count as 0."""
    if len(starts) == 0:
        return 0, 0
    delims = np.unique(np.concatenate((starts, ends, [lo, hi])))
    delta = (np.bincount(np.searchsorted(delims, starts), minlength=len(delims))
             - np.bincount(np.searchsorted(delims, ends), minlength=len(delims)))
    cov = np.cumsum(delta)[:-1]
    inside = (delims[:-1] >= lo) & (delims[:-1] < hi)
    return int(cov[inside].min()), int(cov.max())


def flow_value(starts: np.ndarray, ends: np.ndarray, k: int, t: int) -> int:
    """Max-flow value of the chain network for cap k and floor t.

    Vertices are the source, the sorted distinct endpoints and the sink.
    The backbone carries k at both ends and k - t in between; every read
    adds a unit arc from its start to its end.  The value reaches k exactly
    when some subset has coverage within [t, k] across the whole span.
    Parallel arcs are merged by summing their capacities.
    """
    coords = np.unique(np.concatenate((starts, ends)))
    m = len(coords)
    chain = np.arange(m + 1)
    caps = np.full(m + 1, k - t, dtype=np.int32)
    caps[0] = caps[m] = k
    rows = np.concatenate((chain, np.searchsorted(coords, starts) + 1))
    cols = np.concatenate((chain + 1, np.searchsorted(coords, ends) + 1))
    data = np.concatenate((caps, np.ones(len(starts), dtype=np.int32)))
    graph = csr_matrix((data, (rows, cols)), shape=(m + 2, m + 2), dtype=np.int32)
    return int(maximum_flow(graph, 0, m + 1).flow_value)


class Checker:
    """Checks every run on one BED3 input: kept lines, stats and optimality.

    `command` is the covprune subcommand that ran ("approx" or "solve")
    and `lines` are the input's lines in file order.  Flow certificates
    depend on the input alone, so each (chromosome, t) is solved once and
    reused across runs.
    """

    def __init__(self, command: str, k: int, lines: list[str]):
        self.command = command
        self.k = k
        self.lines = lines
        fields = [line.split("\t") for line in lines]
        chrom = np.array([f[0] for f in fields])
        self.starts = np.array([int(f[1]) for f in fields], dtype=np.int64)
        self.ends = np.array([int(f[2]) for f in fields], dtype=np.int64)
        self.rows = {name: chrom == name for name in np.unique(chrom).tolist()}
        self.before = {}
        for name, rows in self.rows.items():
            s, e = self.starts[rows], self.ends[rows]
            lo, hi = int(s.min()), int(e.max())
            self.before[name] = (lo, hi, *coverage(s, e, lo, hi))
        self._flow: dict[tuple[str, int], int] = {}

    def kept_mask(self, out_lines: list[str]) -> np.ndarray:
        """Match output lines to input lines in order; fail if they are not
        an in-order subsequence."""
        mask = np.zeros(len(self.lines), dtype=bool)
        lines, i, n = self.lines, 0, len(self.lines)
        for line in out_lines:
            while i < n and lines[i] != line:
                i += 1
            if i == n:
                raise CheckError(f"output line {line!r} is not an in-order input line")
            mask[i] = True
            i += 1
        return mask

    def _certified(self, chrom: str, t: int) -> int:
        key = (chrom, t)
        if key not in self._flow:
            rows = self.rows[chrom]
            self._flow[key] = flow_value(self.starts[rows], self.ends[rows], self.k, t)
        return self._flow[key]

    def check(self, out_text: str, stats_text: str) -> int:
        """Check one run; returns the sum over chromosomes of its mincov."""
        k = self.k
        mask = self.kept_mask(out_text.splitlines())
        stats = [json.loads(x) for x in stats_text.splitlines() if x.strip()]
        if sorted(r["chrom"] for r in stats) != sorted(self.rows):
            raise CheckError(f"stats name chromosomes {[r['chrom'] for r in stats]}")
        total = 0
        for r in stats:
            chrom = r["chrom"]
            lo, hi, mincov_in, maxcov_in = self.before[chrom]
            rows = mask & self.rows[chrom]
            kept = int(rows.sum())
            mn, mx = coverage(self.starts[rows], self.ends[rows], lo, hi)
            n = int(self.rows[chrom].sum())
            where = f"{chrom}:"
            if (r["n"], r["kept"], r["removed"]) != (n, kept, n - kept):
                raise CheckError(f"{where} stats n/kept/removed {r['n']}/{r['kept']}/{r['removed']}, "
                                 f"output has {kept} of {n} reads")
            if not r["feasible"]:
                raise CheckError(f"{where} reported infeasible")
            if r["maxcov_before"] != maxcov_in:
                raise CheckError(f"{where} maxcov_before {r['maxcov_before']}, sweep gives {maxcov_in}")
            if mx > k or r["maxcov_after"] != mx:
                raise CheckError(f"{where} kept maxcov {mx} (stats {r['maxcov_after']}), cap {k}")
            if r["mincov"] != mn:
                raise CheckError(f"{where} stats mincov {r['mincov']}, sweep gives {mn}")
            if self.command == "approx" and mn < min(mincov_in, k // 2):
                raise CheckError(f"{where} mincov {mn} below min(input mincov {mincov_in}, k//2)")
            if self.command == "solve":
                if self._certified(chrom, mn) != k:
                    raise CheckError(f"{where} flow value below k at t = {mn}")
                if mn < k and self._certified(chrom, mn + 1) == k:
                    raise CheckError(f"{where} t = {mn + 1} is feasible, so {mn} is not optimal")
            total += mn
        return total

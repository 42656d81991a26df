"""The exact optimum against an LP solved by scipy's HiGHS, up to n = 10^4.

Each read covers a run of consecutive coverage segments, so the
constraint matrix has the consecutive-ones property and is totally
unimodular (Fulkerson & Gross 1965): for every integer floor t the LP
t <= A x <= k, 0 <= x <= 1 has an integral solution exactly when it has
a real one, hence OPT = floor(t*) for the LP that maximizes t.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, hstack, vstack

from covprune import read_instance, solve_exact

K = 8
# (name, reads, chromosome length, longest read): depth about 20 > K,
# and the optimum falls below the bound min(K, mincov) on each
CHROMS = (("chrA", 100, 150, 60), ("chrB", 1000, 1500, 60), ("chrC", 10_000, 15_000, 60))


def lp_opt(starts, ends, k) -> int:
    delims = np.unique(np.concatenate((starts, ends)))
    lo, hi = np.searchsorted(delims, starts), np.searchsorted(delims, ends)
    # row j of `cover` marks the reads over segment [delims[j], delims[j+1])
    rows = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)])
    cols = np.repeat(np.arange(len(starts)), hi - lo)
    cover = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(delims) - 1, len(starts)))
    ones = csr_matrix(np.ones((cover.shape[0], 1)))
    # variables x_1..x_n, t; maximize t with t <= cover @ x <= k
    a_ub = vstack([hstack([cover, 0 * ones]), hstack([-cover, ones])]).tocsr()
    b_ub = np.concatenate((np.full(cover.shape[0], k), np.zeros(cover.shape[0])))
    c = np.zeros(len(starts) + 1)
    c[-1] = -1
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * len(starts) + [(0, k)],
                  method="highs")
    assert res.status == 0, res.message
    return int(np.floor(-res.fun + 1e-6))


def test_exact_optimum_matches_lp(tmp_path):
    rng = np.random.default_rng(4)
    lines = []
    for name, n, length, max_len in CHROMS:
        size = rng.integers(1, max_len + 1, n)
        raw = rng.integers(1 - size, length)  # edge-clipped: the ends are as deep as the middle
        lines += [f"{name}\t{s}\t{e}" for s, e in
                  zip(np.maximum(raw, 0).tolist(), np.minimum(raw + size, length).tolist())]
    path = tmp_path / "reads.bed"
    path.write_text("\n".join(lines) + "\n")
    groups = read_instance(str(path)).chromosomes()
    assert [len(groups[name][0]) for name, *_ in CHROMS] == [n for _, n, *_ in CHROMS]
    for name, *_ in CHROMS:
        ivs = groups[name][0]
        sol = solve_exact(ivs, K)
        assert sol.achieved_mincov == lp_opt(np.asarray(ivs.starts).astype(np.int64),
                                             np.asarray(ivs.ends).astype(np.int64), K), name
        assert 1 < sol.achieved_mincov < min(K, int(np.asarray(ivs.compressed[3]).min())), name

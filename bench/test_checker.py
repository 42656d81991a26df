"""Self-tests of the benchmark's output checker.

The checker must accept covprune's real output, reject corrupted output,
and agree with two optimum references it does not share code with: an LP
solved by scipy's HiGHS (the coverage matrix has consecutive ones, so it
is totally unimodular and OPT = floor(t*)) and covprune's brute-force
oracle.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import workloads  # noqa: E402
from covprune import IntervalSet, brute_force_opt  # noqa: E402
from covprune.cli import main as covprune_main  # noqa: E402

K = 6


def small_input(seed: int) -> list[str]:
    """Two short chromosomes, deep enough that pruning removes reads."""
    rng = np.random.default_rng(seed)
    chroms = []
    for name, length, d in (("chrA", 3000, 2), ("chrB", 2400, 4)):
        chroms.append(workloads.make_chrom(name, workloads.tilings(rng, d, length),
                                       workloads.random_reads(rng, 10, 0, length)))
    return workloads.Workload("small", "solve", K, tuple(chroms)).lines()


def run_cli(command: str, lines: list[str], tmp_path) -> tuple[str, str]:
    reads, stats = tmp_path / "reads.bed", tmp_path / "stats.jsonl"
    reads.write_text("\n".join(lines) + "\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert covprune_main([command, str(reads), "--k", str(K), "--stats", str(stats)]) == 0
    return out.getvalue(), stats.read_text()


def random_pairs(rng, n, coord=40, max_len=12):
    starts = rng.integers(0, coord, n)
    return starts, starts + rng.integers(1, max_len + 1, n)


def flow_opt(starts, ends, k) -> int:
    """The optimum as the largest t whose flow certificate reaches k."""
    t = 0
    while t < k and checker.flow_value(starts, ends, k, t + 1) == k:
        t += 1
    return t


def lp_opt(starts, ends, k) -> int:
    delims = np.unique(np.concatenate((starts, ends)))[:-1]
    cover = ((starts[None, :] <= delims[:, None]) & (delims[:, None] < ends[None, :])).astype(float)
    nseg, n = cover.shape
    # variables x_1..x_n, t; maximize t with t <= cover @ x <= k
    a_ub = np.block([[cover, np.zeros((nseg, 1))], [-cover, np.ones((nseg, 1))]])
    b_ub = np.concatenate((np.full(nseg, k), np.zeros(nseg)))
    c = np.zeros(n + 1)
    c[-1] = -1
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, 1)] * n + [(0, k)], method="highs")
    assert res.status == 0
    return int(np.floor(-res.fun + 1e-7))


@pytest.mark.parametrize("command", ["solve", "approx"])
def test_accepts_real_output(command, tmp_path):
    lines = small_input(1)
    out, stats = run_cli(command, lines, tmp_path)
    check = checker.Checker(command, K, lines)
    assert check.check(out, stats) > 0


def _drop_kept(lines, out, stats):
    kept = out.splitlines()
    return "\n".join(kept[:3] + kept[4:]) + "\n", stats


def _readd_removed(lines, out, stats):
    kept = set(out.splitlines())
    i = next(i for i, line in enumerate(lines) if line not in kept)
    kept.add(lines[i])
    return "".join(line + "\n" for line in lines if line in kept), stats


def _wrong_mincov(lines, out, stats):
    records = [json.loads(x) for x in stats.splitlines()]
    records[0]["mincov"] += 1
    return out, "".join(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("command", ["solve", "approx"])
@pytest.mark.parametrize("corrupt", [_drop_kept, _readd_removed, _wrong_mincov])
def test_rejects_corrupted_output(command, corrupt, tmp_path):
    lines = small_input(2)
    out, stats = run_cli(command, lines, tmp_path)
    bad_out, bad_stats = corrupt(lines, out, stats)
    with pytest.raises(checker.CheckError):
        checker.Checker(command, K, lines).check(bad_out, bad_stats)


def test_rejects_suboptimal_solve(tmp_path):
    lines = small_input(3)
    out, stats = run_cli("approx", lines, tmp_path)
    exact = checker.Checker("solve", K, lines)
    assert checker.Checker("approx", K, lines).check(out, stats) < exact.check(
        *run_cli("solve", lines, tmp_path)), "approx must fall short of the optimum here"
    with pytest.raises(checker.CheckError, match="not optimal"):
        exact.check(out, stats)


def test_coverage_matches_point_count():
    rng = np.random.default_rng(4)
    for _ in range(50):
        starts, ends = random_pairs(rng, int(rng.integers(1, 15)))
        lo, hi = int(starts.min()), int(ends.max())
        cov = [int(((starts <= p) & (p < ends)).sum()) for p in range(lo, hi)]
        assert checker.coverage(starts, ends, lo, hi) == (min(cov), max(cov))


def test_flow_certificate_matches_lp():
    rng = np.random.default_rng(5)
    for _ in range(40):
        starts, ends = random_pairs(rng, int(rng.integers(5, 40)))
        k = int(rng.integers(1, 8))
        assert flow_opt(starts, ends, k) == lp_opt(starts, ends, k)


def test_flow_certificate_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(40):
        starts, ends = random_pairs(rng, int(rng.integers(1, 15)))
        k = int(rng.integers(1, 5))
        ivs = IntervalSet.from_pairs(zip(starts.tolist(), ends.tolist()))
        assert flow_opt(starts, ends, k) == brute_force_opt(ivs, k).achieved_mincov

#!/usr/bin/env python3
"""Compare two checkouts of covprune on one input: time, memory and output.

Runs one CLI command from each checkout's `src/`, in pairs that alternate
which side goes first, each side with its own XDG_CACHE_HOME, so that
neither evicts the other's compiled module.  Each side first runs once
unmeasured, to build its module.  Every run is a child spawned by this
small parent, and its own peak RSS is `ru_maxrss` from `os.wait4`.  Per
side it prints the median and quartiles of the solver time (the stats
lines' `wall_time_s`, summed over the chromosomes), of the wall time and
of the peak RSS; then the pairs the change won on each, and whether
every run's stdout, exit code and stats lines, `wall_time_s` masked, are
those of the parent's first run.  It exits 1 when they are not.

    python3 scripts/compare.py PARENT CHANGE genome.bed --pairs 8
    python3 scripts/compare.py PARENT CHANGE genome.bed -- decide --k 30 --t 20

Run both sides from fresh copies (`git archive`), since a stale
`__pycache__` skews the comparison.
"""

import argparse
import hashlib
import os
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

CLI = "import sys; from covprune.cli import main; sys.exit(main())"
WALL = re.compile(rb'"wall_time_s": ([-+.0-9eE]+)')
SIDES = ("parent", "change")


def run(src: Path, cache: Path, command: list[str], path: str, work: Path):
    """One CLI run of `command` on `path` from the checkout source `src`;
    returns (solver s, wall s, peak RSS MB, digest of its output)."""
    out, stats = work / "stdout", work / "stats"
    argv = [sys.executable, "-c", CLI, command[0], path, *command[1:], "--stats", str(stats)]
    env = {**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(cache)}
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)])
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    lines = stats.read_bytes() if stats.exists() else b""
    solver = sum(float(match) for match in WALL.findall(lines))
    digest = hashlib.sha256(out.read_bytes())
    digest.update(b"%d\n" % os.waitstatus_to_exitcode(status))
    digest.update(WALL.sub(b'"wall_time_s": 0', lines))
    return solver, wall, usage.ru_maxrss / 1024, digest.hexdigest()


def spread(values, digits: int) -> str:
    """The median and the quartiles of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.{digits}f} ({q1:.{digits}f}-{q3:.{digits}f})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout compared against")
    parser.add_argument("change", type=Path, help="the checkout of the change")
    parser.add_argument("input", help="the input file both sides read")
    parser.add_argument("command", nargs="*", default=["solve", "--k", "30"],
                        help="the CLI command and its options (default: solve --k 30)")
    parser.add_argument("--pairs", type=int, default=8, help="measured pairs of runs")
    args = parser.parse_intermixed_args()
    if args.pairs < 2:
        parser.error("--pairs needs at least 2, for quartiles")
    path = os.path.abspath(args.input)
    with tempfile.TemporaryDirectory(prefix="covprune-compare-") as tmp:
        work = Path(tmp)
        for side in SIDES:
            (work / side / "cache").mkdir(parents=True)

        def once(side):
            src = (args.parent if side == "parent" else args.change).resolve() / "src"
            return run(src, work / side / "cache", args.command, path, work / side)

        reference = once("parent")[3]
        once("change")
        results = {side: [] for side in SIDES}
        for pair in range(args.pairs):
            for side in SIDES[::-1] if pair % 2 else SIDES:
                results[side].append(once(side))
    print(f"{' '.join(args.command)} on {args.input}, {args.pairs} pairs")
    print(f"{'':8}{'solver s':>26}{'wall s':>26}{'peak RSS MB':>26}")
    for side in SIDES:
        columns = list(zip(*results[side]))
        print(f"{side:8}" + "".join(f"{spread(c, digits):>26}"
                                    for c, digits in zip(columns, (3, 3, 1))))
    won = [sum(c[i] < p[i] for p, c in zip(*results.values())) for i in range(3)]
    print(f"change won: solver {won[0]}/{args.pairs}, wall {won[1]}/{args.pairs}, "
          f"RSS {won[2]}/{args.pairs}")
    same = all(r[3] == reference for side in SIDES for r in results[side])
    print("outputs identical: " + ("yes" if same else "NO") +
          " (stdout, exit code, stats lines with wall_time_s masked)")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""covprune benchmark: run the CLI on seeded inputs, check every output,
and print the metrics declared in BENCHMARK.json.

    python3 bench/run.py --workload approx-genome --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory.  Each operation is one `covprune` CLI run in a child
process, output to a file, whose exit code and output are checked by
bench/checker.py.  The run repeats whole rounds of operations until
`--seconds` have passed.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` a round is one plain and one traced run
(bench/tracing.py) and it reports the per-layer metrics, the tracing
overhead among them.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

The host's speed drifts by 30% or more over minutes, so with `--trace 0`
every round also times bench/reference.py, a fixed piece of work that
does not depend on covprune.  Each covprune time is divided by the
reference's time in the same round and multiplied by the reference's
time on a quiet host (REF_SETUP_S, REF_RUN_S); the run reports the
median of these scaled times.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60
# the console script `covprune` runs exactly this
CLI = "import sys; from covprune.cli import main; sys.exit(main())"
READY = "import covprune.cli; print('ready', flush=True)"
REFERENCE = BENCH / "reference.py"
# bench/reference.py's times to `ready` and to exit on a 2-core Xeon VM
# at its fastest (Python 3.11.7, numpy 2.4.6), so that a scaled time
# reads close to the seconds a quiet host takes; fixed, so that scaled
# times stay comparable from one commit to the next
REF_SETUP_S = 0.100
REF_RUN_S = 0.500


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def ready_seconds(argv, env) -> tuple[float, float]:
    """Wall times until the child prints `ready` and until it has exited."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
        done = perf_counter() - t0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"{argv[1:]} failed with exit code {code}")
    return ready, done


def setup_seconds(env) -> float:
    """Wall time until a fresh interpreter has imported covprune.cli."""
    return ready_seconds([sys.executable, "-c", READY], env)[0]


def run_child(argv: list[str], out_path: Path, err_path: Path, env) -> tuple[int, float, float]:
    """Run one child to its end; returns (exit code, wall s, peak RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "covprune" / "cli.py").is_file():
        print(f"bench: no covprune sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    wl = workloads.make(args.workload, args.seed)
    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        reads, stats, out, err, spans = (tmp / x for x in
                                         ("reads.bed", "stats.jsonl", "out", "err", "spans.npz"))
        lines = wl.write(reads)
        check = checker.Checker(wl.command, wl.k, lines)
        cli_args = [wl.command, str(reads), "--k", str(wl.k), "--stats", str(stats)]
        plain = [sys.executable, "-c", CLI, *cli_args]
        traced = [sys.executable, str(BENCH / "tracing.py"), str(spans), *cli_args]

        rounds = [("plain", plain)] + ([("traced", traced)] if args.trace else [])
        walls = {"plain": [], "traced": []}
        setup, rss, mincov_totals, layers = [], [], [], []
        ref_setup, ref_run, setup_scaled, run_scaled = [], [], [], []
        attempted = failed = kept = 0
        correct = True
        deadline = None  # the first round warms up and is not timed
        while correct and (deadline is None or perf_counter() < deadline):
            if deadline is not None and not args.trace:
                ready, done = ready_seconds([sys.executable, str(REFERENCE)], env)
                ref_setup.append(ready)
                ref_run.append(done)
                setup.append(setup_seconds(env))
                setup_scaled.append(setup[-1] * REF_SETUP_S / ready)
            for kind, argv in rounds:
                attempted += 1
                stats.unlink(missing_ok=True)  # a run that writes none must not pass
                code, wall, peak = run_child(argv, out, err, env)
                if code != 0:
                    failed += 1
                    print(f"bench: {kind} run exited {code}: {err.read_text()[-500:]}",
                          file=sys.stderr)
                    continue
                out_text = out.read_text()
                try:
                    mincov_totals.append(check.check(out_text, stats.read_text()))
                except (checker.CheckError, OSError, ValueError, KeyError) as exc:
                    print(f"bench: {kind} run output is wrong: {exc}", file=sys.stderr)
                    correct = False
                    break
                kept = out_text.count("\n")
                if deadline is None:
                    continue
                walls[kind].append(wall)
                if kind == "plain":
                    rss.append(peak)
                    if not args.trace:
                        run_scaled.append(wall * REF_RUN_S / done)
                else:
                    layers.append(tracing.layer_metrics(str(spans)))
            if deadline is None:
                deadline = perf_counter() + args.seconds

    values: dict[str, float] = {}
    if args.trace and layers:
        values = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
        values["cli.kept_reads"] = kept
        values["trace.overhead_s"] = min(walls["traced"]) - min(walls["plain"])
    elif walls["plain"]:
        # at the reference's quiet-host speed: the host's load phases
        # last longer than a run and slow the reference as they slow covprune
        values = {"setup_s": statistics.median(setup_scaled),
                  "run_s": statistics.median(run_scaled),
                  "peak_rss_mb": statistics.median(rss),
                  "mincov_total": statistics.median(mincov_totals)}
    if correct and failed < attempted and set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    print(f"# {wl.name} seed {args.seed}: covprune {wl.command} --k {wl.k}, "
          f"{len(lines)} reads, {len(wl.chroms)} chromosomes, {attempted} runs, "
          f"{failed} failed, {kept} reads kept")
    for kind, xs in (("setup", setup), ("reference ready", ref_setup), ("reference", ref_run),
                     *walls.items(), ("scaled setup", setup_scaled), ("scaled plain", run_scaled)):
        if xs:
            print(f"# {kind} runs: min {min(xs):.3f} s, median {statistics.median(xs):.3f} s; "
                  + " ".join(f"{x:.3f}" for x in xs))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units if name in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

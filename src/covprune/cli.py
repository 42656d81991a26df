"""Command-line interface.

Subcommands: decide, solve, approx, stats, oracle.  `decide` and `solve`
run the one exact engine, whose flow solves warm-start from the backbone
flow.  Kept intervals go to stdout as their input lines, in input order;
per-chromosome solver statistics go to stderr or to --stats FILE as JSON
lines with a fixed schema, each written and flushed as its chromosome
finishes.  Exit codes: 0 success/feasible, 1 decide found no solution,
2 usage or parse error, 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import time

import numpy as np

from . import io
from .intervals import IntervalSet

STATS_SCHEMA = "covprune.stats/1"
COVERAGE_SCHEMA = "covprune.coverage/1"


def _stats_line(chrom, n, kept, mincov, maxcov_before, maxcov_after,
                method, feasible, work, wall_time) -> str:
    record = {
        "schema": STATS_SCHEMA,
        "chrom": chrom,
        "n": n,
        "kept": kept,
        "removed": n - kept,
        "mincov": mincov,
        "maxcov_before": maxcov_before,
        "maxcov_after": maxcov_after,
        "method": method,
        "feasible": feasible,
        "work": work,
        "wall_time_s": round(wall_time, 6),
    }
    return json.dumps(record)


def _groups(instance: io.InstanceFile):
    """(chrom, (intervals, record indices)) in name order, each freed
    after its turn; a file without records makes one empty instance."""
    groups = instance.chromosomes() or {None: (IntervalSet(), np.zeros(0, np.intp))}
    for chrom in sorted(groups, key=lambda c: (c is not None, c)):
        yield chrom, groups.pop(chrom)


def _solve_instance(instance: io.InstanceFile, solver, out) -> tuple[np.ndarray, bool]:
    """Run `solver(chrom, intervals)` per chromosome, in name order,
    writing and flushing each chromosome's stats line to `out` as soon
    as it finishes, so a later failure keeps the lines already written.

    Returns the mask of kept records (file order) and whether every
    chromosome was feasible.
    """
    kept_records = np.zeros(len(instance.starts), bool)
    all_feasible = True
    for chrom, (ivs, record_indices) in _groups(instance):
        before = int(ivs.compressed[3].max(initial=0))
        t0 = time.perf_counter()
        sol = solver(chrom, ivs)
        wall = time.perf_counter() - t0
        if sol is None:
            all_feasible = False
            line = _stats_line(chrom, len(ivs), 0, 0, before, 0,
                               "infeasible", False, {}, wall)
        else:
            kept_records[record_indices[np.asarray(sol.kept, np.intp)]] = True
            line = _stats_line(chrom, len(ivs), sol.num_kept, sol.achieved_mincov,
                               before, sol.achieved_maxcov, sol.method, True,
                               sol.work, wall)
        out.write(line + "\n")
        out.flush()
    return kept_records, all_feasible


def _run(args, solver) -> int:
    """Parse the input, solve it per chromosome and print the kept lines
    when every chromosome was feasible.  The --stats file is opened only
    once the input has parsed, so a parse error writes no file."""
    instance = io.read_instance(args.input, args.format)
    with (open(args.stats, "w", encoding="utf-8") if args.stats
          else contextlib.nullcontext(sys.stderr)) as out:
        kept, feasible = _solve_instance(instance, solver, out)
    if feasible:
        # as text, since a caller's stdout may have no `.buffer`; the input is UTF-8
        sys.stdout.write(instance.kept_lines(kept).decode())
    return 0 if feasible else 1


# each subcommand imports only its own solver, which a run of another never loads
def cmd_decide(args) -> int:
    from .flow import decide
    return _run(args, lambda chrom, ivs: decide(ivs, args.k, args.t))


def cmd_solve(args) -> int:
    from .search import solve_exact
    return _run(args, lambda chrom, ivs: solve_exact(ivs, args.k))


def cmd_approx(args) -> int:
    from .approx import approx_prune
    return _run(args, lambda chrom, ivs: approx_prune(ivs, args.k))


def cmd_oracle(args) -> int:
    from . import oracle
    return _run(args, lambda chrom, ivs: oracle.brute_force_opt(
        ivs, args.k, limit=args.limit, force=args.force))


def cmd_stats(args) -> int:
    for chrom, (ivs, _) in _groups(io.read_instance(args.input, args.format)):
        cov = ivs.compressed[3]
        span = ivs.span
        record = {
            "schema": COVERAGE_SCHEMA,
            "chrom": chrom,
            "n": len(ivs),
            "mincov": int(cov.min()) if len(cov) else 0,
            "maxcov": int(cov.max(initial=0)),
            "span_start": span.start if span else None,
            "span_end": span.end if span else None,
        }
        print(json.dumps(record))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covprune",
        description="Prune intervals so coverage never exceeds k while "
                    "keeping the minimum coverage as high as possible.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_k=True):
        p.add_argument("input", help="instance file (plain 'start end' pairs or BED3)")
        p.add_argument("--format", choices=("plain", "bed3"), default=None,
                       help="input format (default: auto-detect)")
        p.add_argument("--stats", metavar="FILE", default=None,
                       help="write JSONL statistics here instead of stderr")
        if with_k:
            p.add_argument("--k", type=int, required=True,
                           help="coverage cap (>= 1)")

    p = sub.add_parser("decide", help="is there a subset with maxcov <= k and mincov >= t?")
    add_io(p)
    p.add_argument("--t", type=int, required=True, help="coverage floor (>= 0)")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("solve", help="maximize mincov subject to maxcov <= k (exact)")
    add_io(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("approx", help="fast approximate pruning (ratio k/floor(k/2))")
    add_io(p)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("stats", help="coverage summary, no solving")
    add_io(p, with_k=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("oracle", help="exhaustive reference solver (small n only)")
    add_io(p)
    # oracle.DEFAULT_LIMIT, which the parser does not import
    p.add_argument("--limit", type=int, default=20,
                   help="refuse instances larger than this (default %(default)s)")
    p.add_argument("--force", action="store_true",
                   help="run even past the size limit")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    if argv is None:
        # run as the program: the start-up heap lives until exit, so spare it the collections
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    for name, low in (("k", 1), ("t", 0)):
        if getattr(args, name, low) < low:
            print(f"covprune: {name} must be >= {low}, got {getattr(args, name)}",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (io.ParseError, ValueError, OSError) as exc:
        print(f"covprune: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed self-check or a bug: never let it read as exit 1, "infeasible"
        print(f"covprune: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

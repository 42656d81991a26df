"""The argparse parser the CLI had before its table-driven one: the
reference `tests/test_cli.py` checks `covprune.cli.parse_args` against.
It takes unique prefixes of the option names (`--sta` for `--stats`),
which the CLI no longer does."""

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covprune",
        description="Prune intervals so coverage never exceeds k while "
                    "keeping the minimum coverage as high as possible.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, with_k=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("input", help="instance file (plain 'start end' pairs or BED3)")
        p.add_argument("--format", choices=("plain", "bed3"), default=None,
                       help="input format (default: auto-detect)")
        p.add_argument("--stats", metavar="FILE", default=None,
                       help="write JSONL statistics here instead of stderr")
        if with_k:
            p.add_argument("--k", type=int, required=True, help="coverage cap (>= 1)")
        return p

    add("decide", "is there a subset with maxcov <= k and mincov >= t?").add_argument(
        "--t", type=int, required=True, help="coverage floor (>= 0)")
    add("solve", "maximize mincov subject to maxcov <= k (exact)")
    add("approx", "fast approximate pruning (ratio k/floor(k/2))")
    add("stats", "coverage summary, no solving", with_k=False)
    p = add("oracle", "exhaustive reference solver (small n only)")
    p.add_argument("--limit", type=int, default=20,
                   help="refuse instances larger than this (default %(default)s)")
    p.add_argument("--force", action="store_true", help="run even past the size limit")
    return parser

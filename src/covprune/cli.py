"""Command-line interface.

Subcommands: decide, solve, approx, stats.  `decide` and `solve` run the
one exact engine, whose flow solves warm-start from the backbone flow.
Kept intervals go to stdout as their input lines, in input order;
per-chromosome solver statistics go to stderr or to --stats FILE as JSON
lines with a fixed schema, each written and flushed as its chromosome
finishes; `stats` writes its coverage lines to stdout or to --stats FILE.
Each schema is written here from one fixed template, byte for byte as
`json.dumps` writes it by default, so that no run imports `json`, or
`re` through it.  A chromosome's kept set reaches the output as the
int64 buffer of indices its solver produced.  Exit codes: 0
success/feasible, 1 decide found no solution, 2 usage error, bad input
(a parse error, an unreadable file, a name that is not UTF-8) or an
output that cannot be written (a full device, a closed pipe), 3
internal error (anything else: a failed self-check, a kernel's refusal,
a bug), 4 no compiled library: the kernels could not be built with the
C compiler.
"""

import contextlib
import gc
import sys
import time
from array import array
from types import SimpleNamespace

from . import io
from .intervals import IntervalSet

STATS_SCHEMA = "covprune.stats/1"
COVERAGE_SCHEMA = "covprune.coverage/1"


# JSON's two-character escapes; every other character outside ' '..'~'
# is written as \uXXXX, beyond U+FFFF as a UTF-16 surrogate pair
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r",
            "\t": "\\t"}


def _char(ch: str) -> str:
    if ch in _ESCAPES:
        return _ESCAPES[ch]
    if " " <= ch <= "~":
        return ch
    code = ord(ch)
    if code > 0xFFFF:
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _string(text: str | None) -> str:
    """`text` as a JSON string, None as null."""
    if text is None:
        return "null"
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return f'"{"".join(map(_char, text))}"'


def _stats_line(chrom, n, kept, mincov, maxcov_before, maxcov_after,
                method, feasible, work, wall_time) -> str:
    counters = ", ".join([f"{_string(key)}: {value}" for key, value in work.items()])
    return (f'{{"schema": "{STATS_SCHEMA}", "chrom": {_string(chrom)}, "n": {n}, '
            f'"kept": {kept}, "removed": {n - kept}, "mincov": {mincov}, '
            f'"maxcov_before": {maxcov_before}, "maxcov_after": {maxcov_after}, '
            f'"method": {_string(method)}, "feasible": {"true" if feasible else "false"}, '
            f'"work": {{{counters}}}, "wall_time_s": {round(wall_time, 6)!r}}}')


def _coverage_line(chrom, n, mincov, maxcov, span_start, span_end) -> str:
    """A span bound of None, an empty set's, as null."""
    return (f'{{"schema": "{COVERAGE_SCHEMA}", "chrom": {_string(chrom)}, "n": {n}, '
            f'"mincov": {mincov}, "maxcov": {maxcov}, '
            f'"span_start": {"null" if span_start is None else span_start}, '
            f'"span_end": {"null" if span_end is None else span_end}}}')


def _stats_file(args, default):
    """Where a run writes its JSON lines: the --stats file, or `default`."""
    return (open(args.stats, "w", encoding="utf-8") if args.stats
            else contextlib.nullcontext(default))


def _groups(instance: io.InstanceFile):
    """(chrom, (intervals, record indices)) in name order, each freed
    after its turn; a file without records makes one empty instance."""
    groups = instance.chromosomes() or {None: (IntervalSet(), array("q"))}
    for chrom in list(groups):  # in name order already, as the reader sorts the names
        yield chrom, groups.pop(chrom)


def _solve_instance(instance: io.InstanceFile, solver, out) -> tuple[array, bool]:
    """Run `solver(intervals, work)` per chromosome, in name order,
    writing and flushing each chromosome's stats line to `out` as soon
    as it finishes, so a later failure keeps the lines already written.
    An infeasible chromosome's line carries the counters the solver left
    in `work`, a new dict per chromosome.

    Returns the uint8 mask of kept records (file order) and whether every
    chromosome was feasible.
    """
    from ._native import load_library  # loaded already by the read
    kept_records = array("B", [0]) * len(instance.starts)
    all_feasible = True
    for chrom, (ivs, record_indices) in _groups(instance):
        before = ivs.compressed.maxcov
        work = {}
        t0 = time.perf_counter()
        sol = solver(ivs, work)
        wall = time.perf_counter() - t0
        if sol is None:
            all_feasible = False
            line = _stats_line(chrom, len(ivs), 0, 0, before, 0, "infeasible", False, work, wall)
        else:
            load_library().covprune_scatter(sol.num_kept, sol.kept, len(record_indices),
                                            record_indices, len(kept_records), kept_records)
            line = _stats_line(chrom, len(ivs), sol.num_kept, sol.achieved_mincov, before,
                               sol.achieved_maxcov, sol.method, True, sol.work, wall)
        out.write(line + "\n")
        out.flush()
    return kept_records, all_feasible


def _run(args, solver) -> int:
    """Parse the input, solve it per chromosome and print the kept lines
    when every chromosome was feasible.  The --stats file is opened only
    once the input has parsed, so a parse error writes no file."""
    instance = io.read_instance(args.input)
    with _stats_file(args, sys.stderr) as out:
        kept, feasible = _solve_instance(instance, solver, out)
    if feasible:
        lines = instance.kept_lines(kept)
        if hasattr(sys.stdout, "buffer"):  # the bytes as read, after what the text layer holds
            sys.stdout.flush()
            sys.stdout.buffer.write(lines)
        else:  # an in-process caller's text stream; the input is UTF-8
            sys.stdout.write(lines.decode())
    return 0 if feasible else 1


# each subcommand imports only its own solver, which a run of another never loads
def cmd_decide(args) -> int:
    from .flow import decide
    return _run(args, lambda ivs, work: decide(ivs, args.k, args.t, work))


def cmd_solve(args) -> int:
    from .search import solve_exact
    return _run(args, lambda ivs, work: solve_exact(ivs, args.k))


def cmd_approx(args) -> int:
    from .approx import approx_prune
    return _run(args, lambda ivs, work: approx_prune(ivs, args.k))


def cmd_stats(args) -> int:
    instance = io.read_instance(args.input)
    with _stats_file(args, sys.stdout) as out:
        for chrom, (ivs, _) in _groups(instance):
            span = ivs.span or (None, None)
            out.write(_coverage_line(chrom, len(ivs), ivs.compressed.mincov,
                                     ivs.compressed.maxcov, *span) + "\n")
    return 0


class UsageError(ValueError):
    """A command line outside the grammar; the CLI exits 2."""


REQUIRED = object()  # the default of an option that must be given
# each option: the name of its value in the help, its type, its default and its help
OPTIONS = {
    "stats": ("FILE", str, None, "write the JSONL statistics here, not to stderr "
                                 "(stdout for stats)"),
    "k": ("K", int, REQUIRED, "coverage cap (>= 1)"),
    "t": ("T", int, REQUIRED, "coverage floor (>= 0)"),
}
# each subcommand: its runner, its summary and its options besides --stats
COMMANDS = {
    "decide": (cmd_decide, "is there a subset with maxcov <= k and mincov >= t?", ("k", "t")),
    "solve": (cmd_solve, "maximize mincov subject to maxcov <= k (exact)", ("k",)),
    "approx": (cmd_approx, "fast approximate pruning (ratio k/floor(k/2))", ("k",)),
    "stats": (cmd_stats, "coverage summary, no solving", ()),
}
HELP = ("-h", "--help")


def _help(command: str | None) -> str:
    """The usage of covprune, or of one subcommand, from the tables."""
    if command is None:
        return "\n".join([f"usage: covprune {{{','.join(COMMANDS)}}} INPUT [options]\n",
                          "Prune intervals so coverage never exceeds k while keeping the minimum",
                          "coverage as high as possible.  COMMAND --help lists its options.\n",
                          *(f"  {name:<9}{summary}" for name, (_, summary, _) in COMMANDS.items())])
    usage = [f"usage: covprune {command} INPUT"]
    rows = [("INPUT", "instance file (plain 'start end' pairs or BED3)"),
            ("-h, --help", "show this help and exit")]
    for name in ("stats", *COMMANDS[command][2]):
        metavar, _, default, text = OPTIONS[name]
        form = f"--{name} {metavar}"
        usage.append(form if default is REQUIRED else f"[{form}]")
        rows.append((form, text))
    return "\n".join([" ".join(usage), "", COMMANDS[command][1], "",
                      *(f"  {form:<24}{text}" for form, text in rows)])


def _is_option(token: str, known) -> bool:
    """Whether `token` reads as an option, as argparse reads it: one of
    `known`, alone or with `=VALUE`, or else a token that starts with '-'
    and is not '-' alone, a negative number or a token with a space."""
    whole, dot, fraction = token[1:].partition(".")
    number = fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return (token.partition("=")[0] in known
            or token[:1] == "-" and token != "-" and not number and " " not in token)


def _value(flag: str, kind, text: str):
    """The value `text` of option `flag`, read by the type `kind`."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None


def parse_args(argv: list[str]):
    """Read `argv` by the grammar of COMMANDS and OPTIONS: `COMMAND INPUT` and
    the command's options in any order, as `--name VALUE` or `--name=VALUE`,
    every token after `--` positional.  Returns a namespace of `command`,
    `input` and every option (None where the command has none), or the help
    text when -h or --help comes before any error.  Raises UsageError with
    argparse's message otherwise; no option may be abbreviated."""
    command = argv[0] if argv else None
    if command in HELP:
        return _help(None)
    if command not in COMMANDS:
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from "
                         f"{', '.join(map(repr, COMMANDS))})" if argv else
                         "the following arguments are required: command")
    names = ("stats", *COMMANDS[command][2])
    known = {*HELP, *(f"--{name}" for name in names)}
    values = {name: OPTIONS[name][2] if name in names else None for name in OPTIONS}
    rest, at, positional, extras = argv[1:], 0, [], []
    cut = rest.index("--") if "--" in rest else len(rest)
    while at < cut:
        token, at = rest[at], at + 1
        flag, eq, text = token.partition("=")
        if not _is_option(token, known):
            positional.append(at - 1)
        elif flag not in known:
            extras.append(token)
        elif flag in HELP:  # the one option that takes no value
            if eq:
                raise UsageError(f"argument -h/--help: ignored explicit argument {text!r}")
            return _help(command)
        else:
            if not eq:
                if at == cut or _is_option(rest[at], known):
                    raise UsageError(f"argument {flag}: expected one argument")
                text, at = rest[at], at + 1
            values[flag[2:]] = _value(flag, OPTIONS[flag[2:]][1], text)
    # argparse drops the "--" before INPUT or just after it
    if positional and cut < len(rest) and positional[0] != cut - 1:
        extras.append("--")
    inputs = [rest[i] for i in positional] + rest[cut + 1:]
    missing = ["input"] * (not inputs) + [f"--{n}" for n in names if values[n] is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras or inputs[1:]:
        raise UsageError(f"unrecognized arguments: {' '.join(extras + inputs[1:])}")
    return SimpleNamespace(command=command, input=inputs[0], **values)


def main(argv=None) -> int:
    if argv is None:
        # run as the program: the start-up heap lives until exit, so spare it the collections
        gc.freeze()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"covprune: error: {exc}", file=sys.stderr)
        return 2
    if isinstance(args, str):
        print(args)
        return 0
    for name, low in (("k", 1), ("t", 0)):
        if (value := getattr(args, name)) is not None and value < low:
            print(f"covprune: {name} must be >= {low}, got {value}", file=sys.stderr)
            return 2
    try:
        return COMMANDS[args.command][0](args)
    except Exception as exc:
        from ._native import CompilerError  # loaded already by the call that raised it
        code = (2 if isinstance(exc, (io.ParseError, UnicodeDecodeError, OSError))
                else 4 if isinstance(exc, CompilerError) else 3)
        # a failed self-check, a kernel's refusal or a bug reads neither as
        # exit 1, "infeasible", nor as exit 2, bad input
        print(f"covprune: internal error: {type(exc).__name__}: {exc}" if code == 3
              else f"covprune: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import json
from array import array
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covprune import _native, approx, cli, parse_instance
from covprune.cli import main

from conftest import DEMO_PAIRS
from reference_parser import build_parser

DEMO_TEXT = "# six reads\n" + "".join(f"{s} {e}\n" for s, e in DEMO_PAIRS)


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "reads.txt"
    path.write_text(DEMO_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_feasible(demo_file, capsys):
    code, out, _ = run(capsys, "decide", demo_file, "--k", "3", "--t", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines  # some witness is printed
    kept = [tuple(map(int, ln.split())) for ln in lines]
    assert set(kept) <= set(DEMO_PAIRS)
    # kept intervals appear in input order
    assert kept == sorted(kept, key=lambda p: DEMO_PAIRS.index(p))


def test_decide_infeasible(demo_file, capsys):
    code, out, _ = run(capsys, "decide", demo_file, "--k", "3", "--t", "3")
    assert code == 1
    assert out == ""


def test_decide_usage_errors(demo_file, capsys):
    code, _, err = run(capsys, "decide", demo_file, "--k", "0", "--t", "1")
    assert code == 2 and "k must be" in err
    code, _, err = run(capsys, "decide", demo_file, "--k", "3", "--t", "-1")
    assert code == 2 and "t must be" in err
    code, _, _ = run(capsys, "decide", demo_file, "--k", "3")  # missing --t
    assert code == 2


@pytest.mark.parametrize("k", [2**63, 10**20], ids=["2^63", "10^20"])
def test_k_beyond_int64(tmp_path, capsys, k):
    # maxcov 4, mincov 3: every k >= 4 keeps every read
    text = "0\t10\n" * 3 + "5\t8\n"
    path = tmp_path / "reads.txt"
    path.write_text(text)
    for argv, code in ((["solve"], 0), (["approx"], 0), (["decide", "--t", "1"], 0),
                       (["decide", "--t", "3"], 0), (["decide", "--t", "4"], 1)):
        got, out, err = run(capsys, argv[0], str(path), "--k", str(k), *argv[1:])
        assert got == code, err
        record = json.loads(err)
        if code == 0:
            assert out == text
            assert (record["kept"], record["mincov"], record["maxcov_after"]) == (4, 3, 4)
        else:
            assert out == "" and record["feasible"] is False


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 5\n5 5\n")
    stats = tmp_path / "stats.jsonl"
    code, _, err = run(capsys, "solve", str(bad), "--k", "2", "--stats", str(stats))
    assert code == 2
    assert "line 2" in err
    assert not stats.exists()  # a parse error writes no stats file


def test_missing_file(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/reads.txt", "--k", "2")
    assert code == 2


def test_solve_reports_opt(demo_file, tmp_path, capsys):
    stats = tmp_path / "stats.jsonl"
    code, out, err = run(capsys, "solve", demo_file, "--k", "3",
                         "--stats", str(stats))
    assert code == 0
    record = json.loads(stats.read_text().strip())
    assert record["schema"] == "covprune.stats/1"
    assert record["n"] == 6
    assert record["mincov"] == 2
    assert record["maxcov_before"] == 4
    assert record["maxcov_after"] <= 3
    assert record["kept"] + record["removed"] == 6
    assert err == ""  # stats went to the file, not stderr


def test_solve_stats_to_stderr_by_default(demo_file, capsys):
    code, _, err = run(capsys, "solve", demo_file, "--k", "3")
    assert code == 0
    assert json.loads(err.strip())["mincov"] == 2


def test_solve_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, out, err = run(capsys, "solve", str(empty), "--k", "5")
    assert code == 0
    assert out == ""
    assert json.loads(err.strip())["mincov"] == 0


def test_decide_empty_file_reports_flow_work(tmp_path, capsys):
    # an empty set holds every floor, even one above the cap
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, out, err = run(capsys, "decide", str(empty), "--k", "2", "--t", "5")
    assert code == 0 and out == ""
    record = json.loads(err.strip())
    assert (record["n"], record["feasible"], record["method"]) == (0, True, "exact-tailored")
    assert record["work"] == {"flow_solves": 0, "augmentations": 0, "native_flow": 0}


@pytest.mark.parametrize("text, k, kept", [
    # a gap makes mincov 0; maxcov 3 > k forces pruning
    ("0 10\n0 10\n0 10\n20 30\n20 30\n", 2, 4),
    # no gap, but t = 1 is infeasible under k = 1
    ("0 10\n5 15\n", 1, 1),
], ids=["gap", "no-gap"])
def test_solve_keeps_reads_when_opt_is_zero(tmp_path, capsys, text, k, kept):
    path = tmp_path / "reads.txt"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path), "--k", str(k))
    assert code == 0
    record = json.loads(err.strip())
    assert len(out.splitlines()) == record["kept"] == kept
    assert record["mincov"] == 0
    assert record["maxcov_after"] <= k
    assert record["method"] == "exact-tailored"


def test_decide_at_t0_keeps_a_capped_subset(tmp_path, capsys):
    # every subset under the cap has mincov >= 0; the warm-started flow's
    # own witness at t = 0 would keep no read
    path = tmp_path / "reads.txt"
    path.write_text("0 10\n0 10\n0 10\n5 8\n")
    code, out, err = run(capsys, "decide", str(path), "--k", "2", "--t", "0")
    assert code == 0
    record = json.loads(err.strip())
    assert out == "0 10\n5 8\n"
    assert record["kept"] == 2 and record["maxcov_after"] <= 2
    assert record["method"] == "exact-tailored"
    assert record["work"]["flow_solves"] == 0
    _, approx_out, _ = run(capsys, "approx", str(path), "--k", "2")
    assert out == approx_out


def test_approx_subcommand(demo_file, capsys):
    code, out, err = run(capsys, "approx", demo_file, "--k", "3")
    assert code == 0
    kept = [tuple(map(int, ln.split())) for ln in out.strip().splitlines()]
    # A, B, C, D and F in input order: the sweep keeps A, C and F, and the
    # refill re-adds B and D (test_approx.test_demo_trace)
    assert kept == [(0, 8), (0, 2), (2, 6), (1, 3), (4, 10)]
    assert json.loads(err.strip())["method"] == "approx"


def test_stats_subcommand(demo_file, capsys):
    code, out, _ = run(capsys, "stats", demo_file)
    assert code == 0
    record = json.loads(out.strip())
    assert record["schema"] == "covprune.coverage/1"
    assert record == {"schema": "covprune.coverage/1", "chrom": None, "n": 6,
                      "mincov": 2, "maxcov": 4, "span_start": 0, "span_end": 10}


def test_stats_subcommand_writes_to_the_stats_file(demo_file, tmp_path, capsys):
    stats = tmp_path / "coverage.jsonl"
    code, out, err = run(capsys, "stats", demo_file, "--stats", str(stats))
    assert (code, out, err) == (0, "", "")
    assert stats.read_text() == ('{"schema": "covprune.coverage/1", "chrom": null, "n": 6, '
                                 '"mincov": 2, "maxcov": 4, "span_start": 0, "span_end": 10}\n')


# names as a chromosome may hold them, and lone surrogates, which json escapes too
NAMES = (st.none() | st.text(st.characters(exclude_categories=()))
         | st.text(st.sampled_from('"\\\x00\x1f\x7f\x80\u00e9\u2028\U0001f600 az')))
UINT64 = st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None)
@given(NAMES, UINT64, UINT64, st.booleans(), st.dictionaries(st.text(), UINT64, max_size=6),
       st.floats(0, 1e4), NAMES, st.none() | UINT64)
def test_the_stats_lines_are_what_json_dumps_writes(chrom, n, mincov, feasible, work, wall,
                                                    method, span_start):
    """Both fixed schemas, as the CLI writes them, against `json.dumps`
    with its default separators and `ensure_ascii`."""
    line = cli._stats_line(chrom, n, 0, mincov, n, mincov, method, feasible, work, wall)
    assert line == json.dumps({"schema": cli.STATS_SCHEMA, "chrom": chrom, "n": n, "kept": 0,
                               "removed": n, "mincov": mincov, "maxcov_before": n,
                               "maxcov_after": mincov, "method": method, "feasible": feasible,
                               "work": work, "wall_time_s": round(wall, 6)})
    coverage = {"schema": cli.COVERAGE_SCHEMA, "chrom": chrom, "n": n, "mincov": mincov,
                "maxcov": n, "span_start": span_start, "span_end": span_start}
    assert cli._json(coverage) == json.dumps(coverage)


def test_bed3_per_chromosome_independence(tmp_path, capsys):
    mixed = tmp_path / "mixed.bed"
    # chrA is the demo instance, chrB a disjoint pile of 4 identical reads
    lines = [f"chrA\t{s}\t{e}" for s, e in DEMO_PAIRS]
    lines += ["chrB\t100\t110"] * 4
    mixed.write_text("".join(ln + "\n" for ln in lines))

    solo = tmp_path / "solo.bed"
    solo.write_text("".join(f"chrB\t100\t110\n" for _ in range(4)))

    stats_mixed = tmp_path / "sm.jsonl"
    stats_solo = tmp_path / "ss.jsonl"
    code, out_mixed, _ = run(capsys, "solve", str(mixed), "--k", "3",
                             "--stats", str(stats_mixed))
    assert code == 0
    code, out_solo, _ = run(capsys, "solve", str(solo), "--k", "3",
                            "--stats", str(stats_solo))
    assert code == 0

    mixed_records = {json.loads(ln)["chrom"]: json.loads(ln)
                     for ln in stats_mixed.read_text().splitlines()}
    solo_record = json.loads(stats_solo.read_text().splitlines()[0])
    assert mixed_records["chrB"]["mincov"] == solo_record["mincov"] == 3
    assert mixed_records["chrB"]["kept"] == solo_record["kept"]
    assert mixed_records["chrA"]["mincov"] == 2
    # chrB output lines of the mixed run equal the solo run's
    chrb_lines = [ln for ln in out_mixed.splitlines() if ln.startswith("chrB")]
    assert chrb_lines == out_solo.strip().splitlines()


def test_keep_everything_round_trips(demo_file, capsys):
    # k above maxcov: output reproduces the input data lines
    code, out, _ = run(capsys, "solve", demo_file, "--k", "10")
    assert code == 0
    got = [tuple(map(int, ln.split())) for ln in out.strip().splitlines()]
    assert got == list(DEMO_PAIRS)


def test_engine_option_is_gone(demo_file, capsys):
    code, _, err = run(capsys, "solve", demo_file, "--k", "3", "--engine", "tailored")
    assert code == 2 and "--engine" in err


def test_internal_error_exits_3_and_keeps_finished_stats(tmp_path, capsys, monkeypatch):
    bed = tmp_path / "reads.bed"
    bed.write_text("".join(f"chrA\t{s}\t{e}\n" for s, e in DEMO_PAIRS)
                   + "chrB\t0\t10\n" * 4)
    stats = tmp_path / "stats.jsonl"
    real = approx.approx_prune
    calls = []

    def failing(ivs, k):
        calls.append(k)
        if len(calls) == 2:
            raise AssertionError("self-check failed")
        return real(ivs, k)

    monkeypatch.setattr(approx, "approx_prune", failing)
    code, out, err = run(capsys, "approx", str(bed), "--k", "3", "--stats", str(stats))
    assert code == 3
    assert out == ""
    assert err == "covprune: internal error: AssertionError: self-check failed\n"
    records = [json.loads(ln) for ln in stats.read_text().splitlines()]
    assert [r["chrom"] for r in records] == ["chrA"]
    assert records[0]["method"] == "approx"


def test_a_kernel_refusal_exits_3(demo_file, capsys, monkeypatch):
    """A kernel's ValueError is the program's fault, not the input's: with
    one read's span past the last segment, approx exits 3, not 2."""
    lib = _native.load_library()
    sweep = lib.covprune_sweep

    def corrupt(n, lo, hi, nseg, *rest):
        past = array("q", hi)
        past[0] = nseg + 1
        return sweep(n, lo, past, nseg, *rest)

    monkeypatch.setattr(lib, "covprune_sweep", corrupt)
    code, out, err = run(capsys, "approx", demo_file, "--k", "3")
    assert (code, out) == (3, "")
    assert err == ("covprune: internal error: ValueError: covprune_sweep: "
                   "an index or a value out of bounds\n")


@pytest.mark.parametrize("argv", [["solve"], ["decide", "--t", "1"]], ids=["solve", "decide"])
def test_an_exact_witness_over_the_cap_exits_3(demo_file, capsys, monkeypatch, argv):
    """The scorer recounts every exact witness: one that breaks the cap,
    here every read, is never printed."""
    from covprune import flow
    every = property(lambda fa: _native.select(_native.zeros("q", len(fa.interval_flow)), 0))
    monkeypatch.setattr(flow.FlowAssignment, "kept", every)
    code, out, err = run(capsys, argv[0], demo_file, "--k", "3", *argv[1:])
    assert (code, out) == (3, "")
    assert err.startswith("covprune: internal error: AssertionError: ")
    assert "maxcov 4 > k=3" in err


@pytest.mark.parametrize("end, code", [(2**64 - 1, 0), (2**64, 2)], ids=["max", "over-max"])
def test_coordinate_cap(tmp_path, capsys, end, code):
    path = tmp_path / "reads.txt"
    path.write_text(f"0 {end}\n")
    got, out, err = run(capsys, "approx", str(path), "--k", "1")
    assert got == code
    if code == 0:
        assert out == f"0 {end}\n"
    else:
        assert out == "" and "line 1" in err


ECHO_INPUTS = {
    # CRLF, blank lines, spaces and tabs, 007 and an unterminated last line
    "plain-bulk": "0 10\r\n0  10\r\n\r\n007\t10\r\n2 8\r\n100 110",
    "bed3-bulk": "chr2\t5\t9\n\nchr1 0  4\r\nchr2\t005\t12\nchr2\t5\t9\nchr1\t0\t4\n"
                 "chr2 6 12\nchr1 100 110",
    # comments and a non-ASCII name as well
    "plain-lines": "# reads\n0 10\n00 10\n\n 0 010  \n2 8\r\n#0 10\n100 110",
    "bed3-lines": "#c\nchr\u00e9\t0\t10\nchr\u00e9 0 10\r\nchr1\t05\t9\n\nchr\u00e9\t00\t10\n"
                  "chr1 5 9\nchr1\t05\t9\nchr1 100 110",
}


@pytest.mark.parametrize("name", sorted(ECHO_INPUTS))
def test_kept_lines_echo_the_input(tmp_path, capsys, name):
    text = ECHO_INPUTS[name]
    path = tmp_path / "reads"
    path.write_bytes(text.encode())
    code, out, _ = run(capsys, "approx", str(path), "--k", "1")
    assert code == 0
    # the data lines as written, and the records approx keeps of them
    lines = [ln for ln in text.splitlines(keepends=True)
             if ln.strip() and not ln.strip().startswith("#")]
    kept = sorted(i for ivs, idx in parse_instance(text).chromosomes().values()
                  for i in np.asarray(idx)[approx.approx_prune(ivs, 1).kept].tolist())
    assert 0 < len(kept) < len(lines) and kept[-1] == len(lines) - 1
    assert out == "".join(lines[i] for i in kept) + "\n"


def test_interleaved_names_split_as_a_grouped_file(tmp_path, capsys, monkeypatch):
    """10^4 reads whose name changes on every line keep the lines and
    give the stats of the same reads written grouped by name; one
    compiled counting sort groups the records of each run."""
    rng = np.random.default_rng(11)
    n = 10_000
    starts = rng.integers(0, 20_000, n)
    ends = starts + rng.integers(100, 400, n)
    lines = [f"{('chrB', 'chrA', 'chrC')[i % 3]}\t{s}\t{e}\n"
             for i, (s, e) in enumerate(zip(starts.tolist(), ends.tolist()))]
    mixed, grouped, stats = tmp_path / "mixed.bed", tmp_path / "grouped.bed", tmp_path / "stats"
    mixed.write_text("".join(lines))
    name = lambda line: line.split("\t")[0]  # noqa: E731
    grouped.write_text("".join(sorted(lines, key=name)))  # stable: each name's reads in order
    spy = mock.Mock(wraps=_native.load_library())
    monkeypatch.setattr(_native, "load_library", lambda: spy)
    for command in ("approx", "solve", "stats"):
        results = []
        for path in (mixed, grouped):
            code, out, _ = run(capsys, command, str(path), *(("--k", "20", "--stats", str(stats))
                                                          if command != "stats" else ()))
            records = [json.loads(line) for line in
                       (stats.read_text() if command != "stats" else out).splitlines()]
            for record in records:
                record.pop("wall_time_s", None)
            results.append((code, sorted(out.splitlines(keepends=True), key=name), records))
        assert results[0] == results[1]
        assert results[0][0] == 0 and len(results[0][2]) == 3
    assert spy.covprune_group.call_count == 6  # once per run
    assert spy.covprune_runs.call_args_list[0].args[0] == n  # a run of one name per line


def _segment_cov(delims, starts, ends):
    """Coverage of each segment between consecutive `delims` by a plain
    NumPy sweep; every start and end must be one of the delims."""
    delta = (np.bincount(np.searchsorted(delims, starts), minlength=len(delims))
             - np.bincount(np.searchsorted(delims, ends), minlength=len(delims)))
    return np.cumsum(delta)[:-1]


def test_full_scale_solve_invariants(tmp_path, capsys):
    # n = 10^5 edge-clipped reads of up to 400 bp at depth about 40, k = 30
    n, length, k = 100_000, 500_000, 30
    rng = np.random.default_rng(5)
    size = rng.integers(1, 401, n)
    raw = rng.integers(1 - size, length)
    starts, ends = np.maximum(raw, 0), np.minimum(raw + size, length)
    lines = [f"chr1\t{s}\t{e}" for s, e in zip(starts.tolist(), ends.tolist())]
    path, stats = tmp_path / "reads.bed", tmp_path / "stats.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "solve", str(path), "--k", str(k), "--stats", str(stats))
    assert code == 0
    record = json.loads(stats.read_text())

    kept = out.splitlines()
    rest = iter(lines)
    assert all(line in rest for line in kept)  # an in-order subsequence of the input
    kept_starts, kept_ends = np.array([line.split("\t")[1:] for line in kept], np.int64).T
    delims = np.unique(np.concatenate((starts, ends)))
    before = _segment_cov(delims, starts, ends)
    after = _segment_cov(delims, kept_starts, kept_ends)
    assert (record["n"], record["kept"]) == (n, len(kept))
    assert record["maxcov_before"] == before.max() > k
    assert record["maxcov_after"] == after.max() <= k
    assert record["mincov"] == after.min() > 1  # over the input's span


FIELDS = ("command", "input", "format", "stats", "k", "t")
REFERENCE = build_parser()


def reference_reading(argv):
    """The fields argparse's parser reads from `argv` (None for an option
    the command lacks), or its exit code."""
    try:
        with contextlib.redirect_stderr(StringIO()):
            args = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return tuple(getattr(args, field, None) for field in FIELDS)


def reading(argv):
    """The fields the CLI's parser reads from `argv`, or 2 on a usage error."""
    try:
        args = cli.parse_args(argv)
    except cli.UsageError:
        return 2
    return tuple(getattr(args, field) for field in FIELDS)


# values of every kind: integers, choices, text, negative numbers, tokens that
# read as options and tokens with a space; none starts with "-h", which
# argparse reads as -h with a value attached
VALUES = st.one_of(
    st.sampled_from(["3", "0", "-1", "-2.5", "-.5", "-5.", "007", " 4 ", "1_0", "+5", "1e3",
                     "\u0663", "x", "", "-", "--", "plain", "bed3", "BED3", "reads.txt", "a b",
                     "-x", "-1 x", "--k", "--stats", "--k=3", "--stats=a b", "--engine",
                     "--t=-1", "--force"]),
    st.text(alphabet="0123456789-.=_ ab", max_size=4))
# with --limit and --force, which no command takes
OPTION_NAMES = ["--format", "--stats", "--k", "--t", "--limit", "--force"]
TOKEN_GROUPS = st.one_of(
    st.tuples(st.sampled_from(OPTION_NAMES), VALUES),  # --name VALUE
    # argparse reads "--name=--" as an empty list, not as "--"
    st.builds("{}={}".format, st.sampled_from(OPTION_NAMES),
              VALUES.filter(lambda v: v != "--")).map(lambda t: (t,)),
    st.sampled_from(OPTION_NAMES).map(lambda t: (t,)),  # a flag, or a missing value
    VALUES.map(lambda t: (t,)),  # an input, or a stray positional
    st.just(("--",)))


# options with values a command takes; every command takes --format and --stats
GOOD = {"--format": ("plain", "bed3"), "--stats": ("s.jsonl", "-"), "--k": ("5", "2"),
        "--t": ("0", "-1")}
OWN = {"decide": ("--k", "--t"), "solve": ("--k",), "approx": ("--k",)}


@st.composite
def command_lines(draw):
    """A subcommand, or no valid one, then a shuffle of what each command
    requires, each part mostly there, of options the command takes, with
    values it takes, and of random tokens."""
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["solv", "-1", "--k"]))
    own = OWN.get(command, ())
    required = [g for g in (("reads.txt",), ("--k", "3"), ("--t", "1"))
                if g[0] in ("reads.txt", *own) and draw(st.integers(0, 4))]
    for name in draw(st.lists(st.sampled_from(["--format", "--stats", *own]), max_size=3)):
        value = draw(st.sampled_from(GOOD[name]))
        required.append(draw(st.sampled_from([(name, value), (f"{name}={value}",)])))
    noise = draw(st.lists(TOKEN_GROUPS, max_size=2)) if draw(st.booleans()) else []
    groups = draw(st.permutations(required + noise))
    return [command, *(token for group in groups for token in group)]


@given(command_lines())
@settings(max_examples=400, deadline=None)
@example(["solve", "--k", "3", "--", "-reads"])
@example(["solve", "--k", "3", "in", "--"])
@example(["solve", "in", "--k", "3", "--"])
@example(["solve", "--k", "3", "--", "--"])
@example(["decide", "in", "--k", "3", "--t", "-1"])
@example(["solve", "in", "--k=3", "--force", "--limit", "-4", "--force"])
def test_the_parser_reads_what_argparse_read(argv):
    """On any command line of full option names the table-driven parser
    and the argparse one it replaced both refuse it or read the same
    values from it."""
    got, want = reading(argv), reference_reading(argv)
    assert got == want, argv


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["prune", "in"], "argument command: invalid choice: 'prune' (choose from 'decide', "
                      "'solve', 'approx', 'stats')"),
    (["solve", "--k", "3"], "the following arguments are required: input"),
    (["decide", "in"], "the following arguments are required: --k, --t"),
    (["solve", "in", "--k", "x"], "argument --k: invalid int value: 'x'"),
    (["solve", "in", "--k=3", "--format", "bed"],
     "argument --format: invalid choice: 'bed' (choose from 'plain', 'bed3')"),
    (["solve", "in", "--k"], "argument --k: expected one argument"),
    (["solve", "in", "out", "--k", "3"], "unrecognized arguments: out"),
    (["solve", "in", "--k", "3", "--help=yes"],
     "argument -h/--help: ignored explicit argument 'yes'"),
    (["solve", "in", "--sta", "s.jsonl", "--k", "3"], "unrecognized arguments: --sta s.jsonl"),
    # the oracle subcommand and its two options are gone
    (["oracle", "in", "--k", "3"], "argument command: invalid choice: 'oracle' (choose from "
                                   "'decide', 'solve', 'approx', 'stats')"),
    (["solve", "in", "--k", "3", "--limit", "4"], "unrecognized arguments: --limit 4"),
    (["solve", "in", "--k", "3", "--force"], "unrecognized arguments: --force"),
], ids=["no-command", "bad-command", "no-input", "no-k-t", "not-int", "bad-format",
        "no-value", "two-inputs", "flag-value", "abbreviation", "oracle", "limit", "force"])
def test_a_usage_error_exits_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"covprune: error: {message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["solve", "--help"],
                                  ["decide", "in", "-h", "--k", "x"]])
def test_help_goes_to_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "" and out.startswith("usage: covprune ")
    if argv[0] == "decide":
        assert "--k K --t T" in out.splitlines()[0]

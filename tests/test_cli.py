import json

import numpy as np
import pytest

from covprune import _native, approx, parse_instance
from covprune.cli import main

from conftest import DEMO_PAIRS

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
    assert kept == [(0, 8), (2, 6), (4, 10)]
    assert json.loads(err.strip())["method"] == "approx"


def test_stats_subcommand(demo_file, capsys):
    code, out, _ = run(capsys, "stats", demo_file)
    assert code == 0
    record = json.loads(out.strip())
    assert record["schema"] == "covprune.coverage/1"
    assert record == {"schema": "covprune.coverage/1", "chrom": None, "n": 6,
                      "mincov": 2, "maxcov": 4, "span_start": 0, "span_end": 10}


def test_oracle_subcommand(demo_file, capsys):
    code, out, err = run(capsys, "oracle", demo_file, "--k", "3")
    assert code == 0
    kept = [tuple(map(int, ln.split())) for ln in out.strip().splitlines()]
    assert kept == [(0, 8), (0, 2), (1, 10), (4, 10)]
    assert json.loads(err.strip())["mincov"] == 2


def test_oracle_size_guard(demo_file, capsys):
    code, _, err = run(capsys, "oracle", demo_file, "--k", "3", "--limit", "4")
    assert code == 2 and "limit" in err
    code, _, _ = run(capsys, "oracle", demo_file, "--k", "3", "--limit", "4", "--force")
    assert code == 0


def test_oracle_default_limit(tmp_path, capsys):
    from covprune import oracle
    code, out, _ = run(capsys, "oracle", "--help")
    assert code == 0 and f"(default {oracle.DEFAULT_LIMIT})" in " ".join(out.split())
    path = tmp_path / "reads.txt"
    path.write_text("0 1\n" * (oracle.DEFAULT_LIMIT + 1))
    code, _, err = run(capsys, "oracle", str(path), "--k", "1")
    assert code == 2 and "limit" in err


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
    # regular files, which the bulk parsers read: CRLF, blank lines, spaces
    # and tabs, 007 and an unterminated last line
    "plain-bulk": "0 10\r\n0  10\r\n\r\n007\t10\r\n2 8\r\n100 110",
    "bed3-bulk": "chr2\t5\t9\n\nchr1 0  4\r\nchr2\t005\t12\nchr2\t5\t9\nchr1\t0\t4\n"
                 "chr2 6 12\nchr1 100 110",
    # the line parser's: comments, +5 and a non-ASCII name as well
    "plain-lines": "# reads\n0 10\n+0 10\n\n 0 +10  \n2 8\r\n#0 10\n100 110",
    "bed3-lines": "#c\nchr\u00e9\t0\t10\nchr\u00e9 0 10\r\nchr1\t+5\t9\n\nchr\u00e9\t00\t10\n"
                  "chr1 5 9\nchr1\t+5\t9\nchr1 100 110",
}


@pytest.mark.parametrize("backend", ["native", "python"])
@pytest.mark.parametrize("name", sorted(ECHO_INPUTS))
def test_kept_lines_echo_the_input(tmp_path, capsys, monkeypatch, backend, name):
    if backend == "python":
        monkeypatch.setattr(_native, "load_library", lambda: None)
    elif _native.load_library() is None:
        pytest.skip("no working C compiler")
    text = ECHO_INPUTS[name]
    path = tmp_path / "reads"
    path.write_bytes(text.encode())
    code, out, _ = run(capsys, "approx", str(path), "--k", "1")
    assert code == 0
    # the data lines as written, and the records approx keeps of them
    lines = [ln for ln in text.splitlines(keepends=True)
             if ln.strip() and not ln.strip().startswith("#")]
    kept = sorted(i for ivs, idx in parse_instance(text).chromosomes().values()
                  for i in idx[list(approx.approx_prune(ivs, 1).kept)].tolist())
    assert 0 < len(kept) < len(lines) and kept[-1] == len(lines) - 1
    assert out == "".join(lines[i] for i in kept) + "\n"


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

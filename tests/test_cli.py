import json
import re

import pytest

from covprune.cli import main, pick_engine

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


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 5\n5 5\n")
    code, _, err = run(capsys, "solve", str(bad), "--k", "2")
    assert code == 2
    assert "line 2" in err


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


@pytest.mark.parametrize("engine", ["generic", "tailored"])
@pytest.mark.parametrize("text, k, kept", [
    # a gap makes mincov 0; maxcov 3 > k forces pruning
    ("0 10\n0 10\n0 10\n20 30\n20 30\n", 2, 4),
    # no gap, but t = 1 is infeasible under k = 1
    ("0 10\n5 15\n", 1, 1),
], ids=["gap", "no-gap"])
def test_solve_keeps_reads_when_opt_is_zero(tmp_path, capsys, engine, text, k, kept):
    path = tmp_path / "reads.txt"
    path.write_text(text)
    code, out, err = run(capsys, "solve", str(path), "--k", str(k), "--engine", engine)
    assert code == 0
    record = json.loads(err.strip())
    assert len(out.splitlines()) == record["kept"] == kept
    assert record["mincov"] == 0
    assert record["maxcov_after"] <= k
    assert record["method"] == f"exact-{engine}"


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


def test_bench_deterministic(capsys):
    code, out1, _ = run(capsys, "bench", "--n", "40", "--k", "3", "--seed", "5",
                        "--span", "200")
    assert code == 0
    code, out2, _ = run(capsys, "bench", "--n", "40", "--k", "3", "--seed", "5",
                        "--span", "200")
    assert code == 0

    def strip_times(text):
        return [[t for t in ln.split() if not re.fullmatch(r"\d+\.\d+", t)]
                for ln in text.splitlines()]

    # wall times differ between runs; everything else must not
    assert strip_times(out1) == strip_times(out2)
    assert "exact-generic" in out1 and "exact-tailored" in out1 and "approx" in out1


def test_bench_rejects_unknown_engine(capsys):
    code, _, err = run(capsys, "bench", "--n", "10", "--k", "2",
                       "--engines", "quantum")
    assert code == 2 and "unknown engines" in err


def test_pick_engine_regimes():
    assert pick_engine("generic", 10, 2) == "generic"
    assert pick_engine("tailored", 10, 9) == "tailored"
    # k well under n/log2(n) favors the warm start
    assert pick_engine("auto", 1024, 5) == "tailored"
    assert pick_engine("auto", 1024, 500) == "generic"

"""The benchmark's tracer, `bench/tracing.py`, wraps covprune functions
by name and reads counts off their results.  A traced run must still
work, and the coverage profile must be counted once per chromosome."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("covprune_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["approx", "solve"])
def test_traced_run_counts_one_profile_per_chromosome(tmp_path, command):
    bed = tmp_path / "two_chrom.bed"
    bed.write_text("chr1\t0\t10\nchr1\t0\t10\nchr1\t2\t8\nchr1\t4\t12\n"
                   "chr2\t5\t9\nchr2\t5\t9\nchr2\t5\t9\n")
    spans = tmp_path / "SPANS.npz"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(TRACING), str(spans), command, str(bed),
                           "--k", "2"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = load_tracing().layer_metrics(str(spans))
    assert metrics["intervals.profile_calls"] == 2
    assert metrics["intervals.segments"] > 0

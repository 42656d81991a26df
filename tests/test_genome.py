"""`scripts/genome.py`, the genome-scale input's generator, at a small
size: two runs write the same bytes, both orders hold the same
lines, clipped to the chromosome, and `--sorted` sorts each chromosome
by start; and `scripts/compare.py`, which measures two checkouts on such
an input, finds this checkout's outputs identical to its own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def genome(tmp_path, *args) -> list[str]:
    out = tmp_path / f"genome{len(list(tmp_path.iterdir()))}.bed"
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "genome.py"), "--reads", "300",
                           *args, "--out", str(out)],
                          capture_output=True, text=True, env=dict(os.environ), timeout=60)
    assert done.returncode == 0, done.stderr
    return out.read_text().splitlines()


def test_the_genome_input_at_a_small_size(tmp_path):
    drawn, again, ordered = genome(tmp_path), genome(tmp_path), genome(tmp_path, "--sorted")
    assert drawn == again and sorted(drawn) == sorted(ordered) and drawn != ordered
    length = 300 * 200 // 60
    rows = [(name, int(start), int(end)) for name, start, end in map(str.split, drawn)]
    assert [name for name, _, _ in rows] == [f"chr{c}" for c in range(1, 5) for _ in range(300)]
    assert all(0 <= start < end <= length and end - start <= 300 for _, start, end in rows)
    assert max(end - start for _, start, end in rows) == 300  # the longest length is drawn
    starts = [int(line.split()[1]) for line in ordered]
    assert all(starts[i:i + 300] == sorted(starts[i:i + 300]) for i in range(0, 1200, 300))


def test_a_checkout_compared_with_itself(tmp_path):
    genome(tmp_path)
    path = tmp_path / "genome0.bed"  # the file that first call writes
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare.py"), str(ROOT),
                           str(ROOT), str(path), "--pairs", "2"],
                          capture_output=True, text=True, env=dict(os.environ), timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()
    assert rows[0] == f"solve --k 30 on {path}, 2 pairs"
    assert [row.split()[0] for row in rows[2:4]] == ["parent", "change"]
    assert rows[-1].startswith("outputs identical: yes")

"""`scripts/demo.py`, the runnable walkthrough, runs to the end and its
exact optimum agrees with its brute-force line."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demo_runs_and_matches_brute_force():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "demo.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    exact = re.search(r"^exact optimum for k=3: mincov (\d+) keeping", done.stdout, re.M)
    brute = re.search(r"^brute force agrees: (\d+)$", done.stdout, re.M)
    assert exact and brute, done.stdout
    assert exact.group(1) == brute.group(1) == "2"

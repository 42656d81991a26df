"""What a covprune run imports and what it leaves for the collector.

The import checks run in fresh interpreters, because this one has
imported every module already.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covprune import _native
from covprune.cli import main

ROOT = Path(__file__).resolve().parents[1]


def child(code: str) -> list[str]:
    """The stdout lines of `code` run by a fresh interpreter that can
    import this checkout's covprune."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_by(code: str) -> set[str]:
    """The modules `code` adds to an interpreter that has already imported
    numpy, argparse and json, so that what those and this site's `.pth`
    files load does not count."""
    return set(child("import sys, numpy, argparse, json\n"
                     "before = set(sys.modules)\n"
                     f"{code}\n"
                     "print(*sorted(set(sys.modules) - before))")[-1].split())


def test_cli_import_loads_no_unused_module():
    loaded = loaded_by("import covprune.cli")
    assert {"covprune.cli", "covprune.io", "covprune.intervals"} <= loaded
    # each subcommand imports its own solver when it runs
    assert not loaded & {"covprune.approx", "covprune.flow", "covprune.search",
                         "covprune.oracle", "covprune.coverage_tree", "subprocess", "hashlib",
                         "dataclasses"}


def test_approx_run_loads_no_exact_solver(tmp_path):
    path = tmp_path / "reads.txt"
    path.write_text("0 4\n2 6\n1 5\n")
    loaded = loaded_by("from covprune.cli import main\n"
                       f"assert main(['approx', {str(path)!r}, '--k', '1']) == 0")
    assert "covprune.approx" in loaded
    assert not loaded & {"covprune.flow", "covprune.search", "dataclasses"}


def test_solve_run_loads_no_approx_when_opt_is_positive(tmp_path):
    # OPT = 1 under k = 1: only an optimum of 0 falls back to approx's kept set
    path = tmp_path / "reads.txt"
    path.write_text("0 4\n0 4\n4 6\n")
    loaded = loaded_by("from covprune.cli import main\n"
                       f"assert main(['solve', {str(path)!r}, '--k', '1']) == 0")
    assert "covprune.search" in loaded
    assert not loaded & {"covprune.approx", "dataclasses"}


def test_cached_library_loads_without_compiler_modules(compiler):
    # the fixture has loaded the library, so it is cached unless the cache
    # directory cannot be written
    if not (_native.cache_dir() / _native.library_name(compiler)).exists():
        pytest.skip("no writable library cache")
    loaded = loaded_by("from covprune._native import load_library\n"
                       "assert load_library() is not None")
    assert "covprune._native" in loaded
    assert not loaded & {"subprocess", "hashlib", "shlex"}


def test_only_the_program_freezes_its_heap(tmp_path, capsys):
    path = tmp_path / "reads.txt"
    path.write_text("0 4\n2 6\n")
    frozen = gc.get_freeze_count()
    assert main(["solve", str(path), "--k", "1"]) == 0
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()
    # without argv, main() is the program and freezes what start-up built
    lines = child("import gc, sys\n"
                  "from covprune.cli import main\n"
                  f"sys.argv = ['covprune', 'solve', {str(path)!r}, '--k', '1']\n"
                  "assert main() == 0\n"
                  "print(gc.get_freeze_count())")
    assert int(lines[-1]) > 1000

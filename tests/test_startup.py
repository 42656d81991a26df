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
from covprune.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parents[1]


# what only a build of the compiled module may import
COMPILER_MODULES = {"ctypes", "sysconfig", "subprocess", "tempfile"}
# what argparse, pathlib and typing.NamedTuple imported into every run,
# and json, which brings re, once the stats writer
UNUSED_BY_A_RUN = {"argparse", "gettext", "locale", "shutil", "pathlib", "typing", "json", "re"}


def child(code: str, *flags: str) -> list[str]:
    """The stdout lines of `code` run by a fresh interpreter, started
    with `flags`, that can import this checkout's covprune."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                      env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_by(code: str) -> set[str]:
    """The modules `code` adds to an interpreter that has already imported
    json, so that what it and this site's `.pth` files load does not
    count.  It has not imported numpy, which imports ctypes."""
    return set(child("import sys, json\n"
                     "before = set(sys.modules)\n"
                     f"{code}\n"
                     "print(*sorted(set(sys.modules) - before))")[-1].split())


def test_cli_import_loads_no_unused_module():
    loaded = loaded_by("import covprune.cli")
    assert {"covprune.cli", "covprune.io", "covprune.intervals"} <= loaded
    # each subcommand imports its own solver when it runs
    assert not loaded & {"covprune.approx", "covprune.flow", "covprune.search",
                         "covprune.oracle", "covprune.coverage_tree", "subprocess", "hashlib",
                         "dataclasses", "argparse"}


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


@pytest.fixture
def cached():
    """Skip unless the session start left the compiled module in the
    cache, which it does unless the cache directory cannot be written."""
    if not os.path.exists(os.path.join(_native.cache_dir(), _native.library_name())):
        pytest.skip("no writable library cache")


def test_cached_library_loads_without_compiler_modules(cached):
    loaded = loaded_by("from covprune._native import load_library\n"
                       "load_library()")
    assert "covprune._native" in loaded
    assert not loaded & (COMPILER_MODULES | {"hashlib", "shlex"})


def test_a_cached_run_imports_no_compiler_module(cached, tmp_path):
    """`approx` and `solve` on the cached module, in an interpreter without
    numpy, which imports ctypes, or the site's `.pth` files, which may
    import tempfile: neither run imports what only a build needs."""
    path = tmp_path / "reads.bed"
    path.write_text("chr1\t0\t4\nchr1\t0\t4\nchr2\t4\t6\nchr1\t4\t6\n")
    runs = [["approx", str(path), "--k", "1"], ["solve", str(path), "--k", "1"]]
    lines = child("import sys\nfrom covprune.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  f"print(codes, sorted({COMPILER_MODULES!r} & set(sys.modules)))",
                  "-S")
    assert lines[-1] == "[0, 0] []"


def test_a_cached_run_imports_only_what_it_uses(cached, tmp_path):
    """Every subcommand on the cached module, in an interpreter without
    the site's `.pth` files, which import pathlib and typing here: no run
    imports a module that the argument parser, the library's paths, the
    result tuples or the stats lines' `json` once pulled in."""
    path = tmp_path / "reads.bed"
    path.write_text("chr1\t0\t4\nchr1\t0\t4\nchr2\t4\t6\nchr1\t4\t6\n")
    runs = [[command, "--format", "bed3", str(path), *(f"--{name}=1" for name in names),
             "--stats", os.devnull] for command, (_, _, names) in COMMANDS.items()]
    lines = child("import sys\nfrom covprune.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  f"print(codes, sorted({UNUSED_BY_A_RUN!r} & set(sys.modules)))",
                  "-S")
    assert lines[-1] == f"{[0] * len(runs)} []"


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


def test_no_run_loads_numpy(tmp_path):
    """A run needs only the standard library and the compiled kernels:
    a fresh interpreter that has not imported numpy never does, neither
    on `import covprune.cli` nor in any subcommand, each run with every
    option it requires at 1, and `solve` once more where OPT = 0."""
    reads, zero = tmp_path / "reads.bed", tmp_path / "zero.txt"
    reads.write_text("chr1\t0\t4\nchr1\t0\t4\nchr2\t4\t6\nchr1\t4\t6\n")  # OPT = 1 under k = 1
    zero.write_text("0 4\n2 6\n1 5\n")  # OPT = 0 under k = 1, which falls back to approx
    assert child("import sys\nimport covprune.cli\nprint('numpy' in sys.modules)")[-1] == "False"
    runs = [[command, str(reads), *(arg for name in names for arg in (f"--{name}", "1")),
             "--stats", os.devnull] for command, (_, _, names) in COMMANDS.items()]
    runs.append(["solve", str(zero), "--k", "1", "--stats", os.devnull])
    lines = child("import sys\nfrom covprune.cli import main\n"
                  f"codes = [main(argv) for argv in {runs!r}]\n"
                  "print(codes, 'numpy' in sys.modules)")
    assert lines[-1] == f"{[0] * len(runs)} False"

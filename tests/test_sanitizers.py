"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

A child interpreter, with the ASan runtime preloaded and pymalloc off, so
that ASan sees every small array too, builds the module with both
sanitizers into its own cache, where `load_library` finds it.  It then
makes one small run of each subcommand and the kernel calls at the edges
of their buffers.  Any sanitizer report stops the child."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-g")

CHILD = """
import os, sys
from array import array
from covprune import _native
from covprune.cli import main

cc, plain, bed, empty = sys.argv[1:5]
cache = _native.cache_dir()
assert _native.build(cache, cc.split()) is not None, "the sanitized build failed"
# under the interpreter's own name, which load_library opens
os.replace(os.path.join(cache, _native.library_name(cc.split())),
           os.path.join(cache, _native.library_name()))
runs = [(["approx", bed, "--k", "1"], 0), (["solve", bed, "--k", "1"], 0),
        (["solve", plain, "--k", "1"], 0), (["decide", bed, "--k", "1", "--t", "1"], 0),
        (["decide", plain, "--k", "1", "--t", "1"], 1), (["stats", bed], 0),
        (["approx", empty, "--k", "2"], 0)]
for argv, code in runs:
    assert main(argv + ["--stats", os.devnull] * (argv[0] != "stats")) == code, argv

lib = _native.load_library()


# data in a repeated array, which is allocated at its size, so that its
# items, unlike those of bytes, end where the data does
def exact(data):
    items = array("B", [0]) * len(data)
    items[:] = array("B", data)
    return items


# covprune_parse's count and info on data, detecting the format
def parse(data, slots=4):
    columns = [array("Q", [0]) * slots, array("Q", [0]) * slots, array("q", [0]) * (3 * slots),
               array("q", [0]) * 6, array("q", [0]) * slots, array("q", [0]) * slots]
    n = lib.covprune_parse(exact(data), len(data), 0, slots, slots, *columns)
    return n, columns[3].tolist()


assert parse(b"") == (0, [0] * 6)
assert parse(b"# a\\n  # b\\r\\n\\n#") == (0, [0] * 6)
assert parse(b"# h\\nchr1 0 5\\n") == (1, [1, 3, 0, 0, 0, 0])
assert parse(b"0 5\\r1 6\\r\\r2 7") == (3, [0, 2, 0, 0, 0, 0])
assert parse(b"chr1 0 5\\nchr1 9 2") == (-1, [1, 3, 5, 2, 9, 8])  # start >= end, no terminator
assert parse(bytes(range(0x80, 0x100)) + b" 0 5") == (1, [1, 3, 0, 0, 0, 0])
assert parse(b"#\\xe2\\x80") == (0, [0] * 6) and parse(b"#\\xc2") == (0, [0] * 6)
# 64 data lines into record columns of exactly one slot each
data, one = b"0 1\\n" * 64, lambda code: array(code, [0])
try:
    lib.covprune_parse(exact(data), len(data), 2, 1, 1, one("Q"), one("Q"), array("q", [0]) * 3,
                       array("q", [0]) * 6, one("q"), one("q"))
    raise AssertionError("the reader wrote past its record columns")
except ValueError:
    pass
# the kept-line gather at n = 0 and n = 1, an unterminated line
assert lib.covprune_lines(0, array("B"), array("q"), array("q"), 0, exact(b"")) == b""
assert lib.covprune_lines(1, array("B", [1]), one("q"), array("q", [3]), 3,
                          exact(b"0 1")) == b"0 1\\n"
print("clean")
"""


def sanitizer_runtime(compiler, tmp_path) -> str:
    """The ASan runtime's path; skips, giving the reason, when a shared
    object built with both sanitizers cannot be linked."""
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int *p) { return *p; }\n")
    linked = subprocess.run([*compiler, *SANITIZE, "-shared", "-fPIC", "-o",
                             str(tmp_path / "probe.so"), str(probe)],
                            stdin=subprocess.DEVNULL, capture_output=True, text=True)
    runtime = subprocess.run([*compiler, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if linked.returncode != 0 or not os.path.isabs(runtime):
        pytest.skip(f"the sanitizer runtime cannot be linked: {linked.stderr.strip()[-300:]}"
                    if linked.returncode else "the compiler knows no libasan.so")
    return runtime


def test_the_kernels_run_clean_under_the_sanitizers(compiler, tmp_path):
    runtime = sanitizer_runtime(compiler, tmp_path)
    plain, bed, empty = tmp_path / "reads.txt", tmp_path / "reads.bed", tmp_path / "empty.txt"
    plain.write_text("0 4\n2 6\n1 5")  # OPT 0 under k = 1, an unterminated last line
    bed.write_text("chr1\t0\t4\nchr1\t0\t4\nchr2\t4\t6\nchr1\t4\t6\n")
    empty.write_text("")
    env = dict(os.environ, LD_PRELOAD=runtime, PYTHONMALLOC="malloc",
               ASAN_OPTIONS="detect_leaks=0", XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    cc = " ".join([*compiler, *SANITIZE])
    done = subprocess.run([sys.executable, "-c", CHILD, cc, str(plain), str(bed), str(empty)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert "Sanitizer" not in done.stderr and "runtime error" not in done.stderr, done.stderr
    assert (done.returncode, done.stdout.splitlines()[-1:]) == (0, ["clean"]), done.stderr

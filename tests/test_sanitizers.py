"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

A child interpreter, with the ASan runtime preloaded and pymalloc off, so
that ASan sees every small array too, builds the module with both
sanitizers into its own cache, where `load_library` finds it.  It then
makes one small run of each subcommand and the kernel calls at the edges
of their buffers: the reading kernels' and the approx sweep's, under
either store.  Any sanitizer report stops the child."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-fno-omit-frame-pointer", "-g")

CHILD = """
import os, random, sys
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


# int64 items at exactly their number
def ints(values):
    items = array("q", [0]) * len(values)
    items[:] = array("q", values)
    return items


# the kept reads and (candidates, blocked, refilled) of the sweep's rule
# by a list scan, visiting the reads by (lo, hi, i): the reference
def reference(cov, lo, hi, k):
    cur, gone, decided = list(cov), [], [0, 0, 0]
    for i in sorted(range(len(lo)), key=lambda i: (lo[i], hi[i], i)):
        cells = cur[lo[i]:hi[i]]
        if max(cells) <= k:
            continue
        decided[0] += 1
        if min(cells) <= k // 2:
            decided[1] += 1
            continue
        cur[lo[i]:hi[i]] = [c - 1 for c in cells]
        gone.append(i)
    for i in list(gone):
        if max(cur[lo[i]:hi[i]]) < k:
            cur[lo[i]:hi[i]] = [c + 1 for c in cur[lo[i]:hi[i]]]
            gone.remove(i)
            decided[2] += 1
    return [i for i in range(len(lo)) if i not in gone], decided


# the sweep, refill included, under both stores over segment coverage cov
# at cap k, every buffer at exactly its size and kept coming in dirty:
# the kept reads and the decision counts, which must match the reference
def sweep(cov, lo, hi, k):
    n, got = len(lo), []
    for flat in (1, 0):
        kept, counts = ints([7] * n), ints([-1] * 4)
        m = lib.covprune_sweep(n, ints(lo), ints(hi), len(cov), ints(cov), k, flat, kept, counts)
        got.append((kept.tolist()[:m], counts.tolist()[1:]))
    assert got[0] == got[1] == reference(cov, lo, hi, k), (got, reference(cov, lo, hi, k))
    return got[0]


top = 2**31 - 1  # the largest count an int32 cell holds
assert sweep([3], [], [], 1) == ([], [0, 0, 0])  # n = 0
assert sweep([5], [0], [1], 3) == ([], [1, 0, 0])  # n = 1, nseg = 1
assert sweep([5], [0], [1], 4) == ([], [1, 0, 0])  # left at k: the refill refuses
assert sweep([3, 3], [0], [2], 3) == ([0], [0, 0, 0])  # coverage exactly k
assert sweep([4], [0, 0], [1, 1], 2) == ([], [2, 0, 0])  # nseg = 1, a pile
# every read deleted, then every one but the last refilled: the last
# deletion leaves its span at k or more, and the refill only raises;
# given out of order, so that a radix pass runs
assert sweep([4, 4, 4], [0, 0, 0], [3, 1, 2], 3) == ([1, 2], [3, 0, 2])
# int32 cells at the top: deleted down and refilled up near 2**31 - 1
assert sweep([top - 1, top], [0, 0], [1, 2], top - 2) == ([0], [2, 0, 1])
assert sweep([top, top], [0, 0], [2, 1], top - 2) == ([], [2, 0, 0])
assert sweep([top], [0], [1], 2**62) == ([0], [0, 0, 0])
try:
    lib.covprune_sweep(1, ints([0]), ints([1]), 1, ints([top + 1]), 1, 1, ints([0]),
                       ints([0] * 4))
    raise AssertionError("the flat store took a count beyond its int32 cells")
except ValueError:
    pass
# nseg at a power of 2, the tree's leaves filled up to its last, and one
# past it; reads out of order, one over every segment and one over the
# last, and at nseg 65 keys past one radix digit, so that two passes run
rng = random.Random(7)
for nseg in sorted({2**j + d for j in range(7) for d in (0, 1)}):
    for k in (1, 2, 3, 5):
        reads = [(0, nseg), (nseg - 1, nseg)]
        for _ in range(rng.randint(0, 40)):
            start = rng.randrange(nseg)
            reads.append((start, rng.randint(start + 1, nseg)))
        rng.shuffle(reads)
        sweep([rng.randint(0, 2 * k + 2) for _ in range(nseg)], [a for a, _ in reads],
              [b for _, b in reads], k)
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

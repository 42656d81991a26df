"""The compiled approx sweep, under either store, against its Python
references, the tree and flat stores against each other, the build of
the compiled library itself, and what a run does when it cannot be
built."""

import random
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covprune import _native, approx_prune
from covprune.cli import main

from conftest import iset, maxcov, pairs_of, random_instance, subset, sweeps
from reference_kernels import flat_python, sweep_python

MAX_COORD = 2**64 - 1


def seeded_instances():
    rng = random.Random(3001)
    for _ in range(620):
        s = random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60)),
                            max_len=15)
        yield s, rng.randint(1, 6)
    for _ in range(50):  # piles of duplicates
        base = pairs_of(random_instance(rng, rng.randint(1, 5), max_coord=20, max_len=8))
        yield iset([rng.choice(base) for _ in range(rng.randint(2, 30))]), rng.randint(1, 6)
    for _ in range(30):  # one segment
        start = rng.randrange(100)
        yield iset([(start, start + rng.randint(1, 5))] * rng.randint(1, 20)), \
            rng.randint(1, 6)
    for _ in range(20):  # coordinates beyond int64
        pairs = []
        for _ in range(rng.randint(1, 30)):
            start = MAX_COORD - rng.randint(1, 200)
            pairs.append((start, min(MAX_COORD, start + rng.randint(1, 60))))
        yield iset(pairs), rng.randint(1, 6)
    yield random_instance(rng, 20_000, max_coord=100_000, max_len=400), 30


def sweep_args(s, k):
    """(order, lo, hi, cov, k) of `approx_prune`'s sweep, the reads
    sorted by (start, end, index) in numpy, apart from the order the
    kernel computes for itself and the references take from here."""
    _, lo, hi, cov = map(np.asarray, s.compressed)
    return np.argsort(lo * (len(cov) + 1) + hi, kind="stable"), lo, hi, cov, k


def test_native_matches_reference():
    """`approx_prune` keeps what the Python tree sweep keeps, and counts
    the work of the reference of the sweep that ran."""
    swept = 0
    for s, k in seeded_instances():
        sol = approx_prune(s, k)
        if maxcov(s) <= k:
            assert sol.kept.tolist() == list(range(len(s))) and not any(sol.work.values())
            continue
        args = sweep_args(s, k)
        deleted, tree = sweep_python(*args)
        flat = flat_python(*args)[1]
        assert sol.kept.tolist() == np.flatnonzero(~deleted).tolist()
        assert sol.achieved_maxcov == maxcov(subset(s, sol.kept)) <= k
        scanned = sol.work["segments_scanned"]
        assert sol.work == {"tree_nodes_touched": 0 if scanned else tree[0],
                            "segments_scanned": flat[0] if scanned else 0,
                            "candidates": tree[1], "blocked_crucial": tree[2],
                            "refilled": tree[3], "native_sweep": 1}
        swept += 1
    assert swept >= 500


def assert_sweeps_agree(s, k):
    """Run every sweep on one (order, lo, hi, cov, k), approx_prune's
    arguments: the same deletions and counts, the same tree nodes touched
    by both tree sweeps and the same segments scanned by both flat ones."""
    results = {name: sweep(*sweep_args(s, k)) for name, sweep in sweeps().items()}
    deleted, (_, *decisions) = results["tree-python"]
    for name, (other, counts) in results.items():
        assert np.array_equal(other, deleted), name
        assert list(counts[1:]) == decisions, name
    for kind in ("tree", "flat"):
        assert results[f"{kind}-c"][1][0] == results[f"{kind}-python"][1][0], kind


def test_sweeps_agree_on_seeded_instances():
    for s, k in seeded_instances():
        assert_sweeps_agree(s, k)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 12)), min_size=1, max_size=30),
       st.integers(1, 4), st.booleans(), st.sampled_from((1, 2, 3, 5)))
def test_sweeps_agree_on_generated_instances(pairs, copies, at_top, k):
    # copies pile up duplicates, one distinct pair makes one segment, and
    # at_top moves the reads up against 2**64 - 1, far beyond int64
    base = MAX_COORD - 42 if at_top else 0
    assert_sweeps_agree(iset([(base + a, base + a + b) for a, b in pairs] * copies), k)


def test_cache_location(monkeypatch, tmp_path):
    # a string path: pathlib stays off a run's imports
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.cache_dir() == str(tmp_path / "covprune")
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _native.cache_dir() == str(tmp_path / ".cache" / "covprune")


def test_build_caches_one_library_by_hash(compiler, tmp_path):
    assert _native.build(tmp_path, compiler) is not None
    cached = tmp_path / _native.library_name(compiler)
    assert [p.name for p in tmp_path.iterdir()] == [cached.name]
    mtime = cached.stat().st_mtime_ns
    assert _native.build(tmp_path, compiler) is not None
    assert cached.stat().st_mtime_ns == mtime  # loaded, not rebuilt
    assert _native.library_name([*compiler, "-g"]) != cached.name


def test_a_fresh_build_removes_stale_libraries(compiler, tmp_path):
    """A fresh build removes the older builds of its own package directory
    and the one-hash builds of earlier versions only, so that checkouts
    sharing one cache do not rebuild in turn."""
    own = _native.library_name(compiler)
    stale = tmp_path / f"{_native._prefix()}0.so"  # this directory's, of older sources
    old = tmp_path / "covprune-0123456789abcdef.so"  # an earlier version's, one hash
    other = tmp_path / "covprune-00000000-0.so"  # another checkout's
    partial = tmp_path / "covprune-1.so.tmp"  # another process's build in progress
    for path in (stale, old, other, partial):
        path.write_bytes(b"")
    assert _native.build(tmp_path, compiler) is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([own, other.name, partial.name])
    stale.write_bytes(b"")
    assert _native.build(tmp_path, compiler) is not None  # cached: removes nothing
    assert stale.exists()


def test_build_falls_back_to_a_private_directory(compiler, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    assert _native.build(blocker / "covprune", compiler) is not None
    assert blocker.read_text() == ""


def test_build_without_a_working_compiler(tmp_path):
    assert _native.build(tmp_path, [str(tmp_path / "no-such-cc")]) is None
    assert _native.build(tmp_path, ["false"]) is None
    assert list(tmp_path.iterdir()) == []


def test_sources_compile_without_warnings(compiler, tmp_path):
    """The module compiles as one unit, its Python wrapper including the
    kernel files, so a call that disagrees with a kernel's definition
    fails here.  Every C file of the package is a source, which the cache
    key hashes and `pyproject.toml`'s package data ships as `*.c`."""
    assert {str(path) for path in Path(_native.HERE).glob("*.c")} == set(_native.SOURCES)
    warnings = ("-Wall", "-Wextra", "-Werror")
    done = subprocess.run([*compiler, *_native.FLAGS, *warnings, f"-I{_native.headers()}",
                           "-o", str(tmp_path / "kernels.so"), _native.MODULE],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A compiler command that does not exist and an empty library cache,
    so that no library loads or builds."""
    cc = [str(tmp_path / "no-such-cc")]
    monkeypatch.setattr(_native, "compiler", lambda: cc)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _native.load_library.cache_clear()
    yield " ".join(cc)
    _native.load_library.cache_clear()


def test_load_library_raises_without_a_compiler(no_compiler):
    with pytest.raises(_native.CompilerError, match=no_compiler) as raised:
        _native.load_library()
    assert not isinstance(raised.value, (ValueError, OSError))  # exits 2 in the CLI


@pytest.mark.parametrize("command", [["approx", "--k", "2"], ["solve", "--k", "2"], ["stats"]],
                         ids=["approx", "solve", "stats"])
def test_no_compiler_exits_4(no_compiler, tmp_path, capsys, command):
    reads, stats = tmp_path / "reads.bed", tmp_path / "stats.jsonl"
    reads.write_text("chr1\t0\t10\nchr1\t0\t10\nchr1\t2\t8\nchr1\t4\t12\n")
    argv = [command[0], str(reads), *command[1:], "--stats", str(stats)]
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("covprune: ") and no_compiler in err
    assert not stats.exists()


def test_no_python_headers_exits_4(monkeypatch, tmp_path, capsys):
    """The module needs `Python.h` as well as a compiler: without the
    headers every subcommand exits 4 with the loader's one line."""
    missing = str(tmp_path / "no-headers")
    monkeypatch.setattr(_native, "headers", lambda: missing)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    reads = tmp_path / "reads.txt"
    reads.write_text("0 10\n2 8\n")
    _native.load_library.cache_clear()
    try:
        assert main(["stats", str(reads)]) == 4
    finally:
        _native.load_library.cache_clear()
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and missing in err
    assert not any((tmp_path / "cache" / "covprune").iterdir())  # no partial build left

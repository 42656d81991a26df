"""The compiled approx sweeps against their Python twins, the tree and
flat sweeps against each other, the fallback to the twins when no
library can be built, and the build of the compiled library itself."""

import json
import random
import subprocess

import numpy as np
from hypothesis import given, settings, strategies as st

from covprune import IntervalSet, _native, approx_prune
from covprune.cli import main

from conftest import iset, maxcov, random_instance, sweeps

MAX_COORD = 2**64 - 1


def reference_prune(monkeypatch, s, k):
    with monkeypatch.context() as m:
        m.setattr(_native, "load_library", lambda: None)
        return approx_prune(s, k)


def seeded_instances():
    rng = random.Random(3001)
    for _ in range(620):
        s = random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60)),
                            max_len=15)
        yield s, rng.randint(1, 6)
    for _ in range(50):  # piles of duplicates
        base = random_instance(rng, rng.randint(1, 5), max_coord=20, max_len=8).items
        yield IntervalSet(tuple(rng.choice(base) for _ in range(rng.randint(2, 30)))), \
            rng.randint(1, 6)
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


def test_native_matches_reference(compiler, monkeypatch):
    swept = 0
    for s, k in seeded_instances():
        native = approx_prune(s, k)
        reference = reference_prune(monkeypatch, s, k)
        ran = maxcov(s) > k
        assert native.work.pop("native_sweep") == int(ran)
        assert reference.work.pop("native_sweep") == 0
        assert native == reference
        swept += ran
    assert swept >= 500


def assert_sweeps_agree(s, k):
    """Run every sweep on one (order, lo, hi, cov, k), approx_prune's
    arguments: the same deletions and counts, the same tree nodes touched
    by both tree sweeps and the same segments scanned by both flat ones."""
    _, lo, hi, cov = s.compressed
    order = np.argsort(lo * (len(cov) + 1) + hi, kind="stable")
    results = {name: sweep(order, lo, hi, cov, k) for name, sweep in sweeps().items()}
    deleted, (_, candidates, blocked) = results["tree-python"]
    for name, (other, counts) in results.items():
        assert np.array_equal(other, deleted), name
        assert counts[1:] == (candidates, blocked), name
    for kind in ("tree", "flat"):
        if f"{kind}-c" in results:
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


def test_fallback_gives_the_same_solution(monkeypatch):
    rng = random.Random(3002)
    for _ in range(50):
        s = random_instance(rng, rng.randint(1, 60), max_coord=80, max_len=20)
        k = rng.randint(1, 6)
        loaded = approx_prune(s, k)
        reference = reference_prune(monkeypatch, s, k)
        loaded.work.pop("native_sweep")
        reference.work.pop("native_sweep")
        assert loaded == reference


def test_fallback_cli_output_is_byte_identical(tmp_path, monkeypatch, capsysbinary):
    rng = random.Random(3003)
    reads = tmp_path / "reads.bed"
    with reads.open("w") as fh:
        for chrom in ("chr1", "chr2", "chr3"):
            for iv in random_instance(rng, 3000, max_coord=20_000, max_len=300):
                fh.write(f"{chrom}\t{iv.start}\t{iv.end}\n")

    def run(stats):
        assert main(["approx", str(reads), "--k", "12", "--stats", str(stats)]) == 0
        records = [json.loads(line) for line in stats.read_text().splitlines()]
        for record in records:
            del record["wall_time_s"]
            del record["work"]["native_sweep"]
        return capsysbinary.readouterr().out, records

    loaded = run(tmp_path / "loaded.jsonl")
    monkeypatch.setattr(_native, "load_library", lambda: None)
    reference = run(tmp_path / "reference.jsonl")
    assert loaded == reference
    assert all(r["work"]["candidates"] > 0 for r in reference[1])


def test_cache_location(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _native.cache_dir() == tmp_path / "covprune"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _native.cache_dir() == tmp_path / ".cache" / "covprune"


def test_build_caches_one_library_by_hash(compiler, tmp_path):
    assert _native.build(tmp_path, compiler) is not None
    cached = tmp_path / _native.library_name(compiler)
    assert [p.name for p in tmp_path.iterdir()] == [cached.name]
    mtime = cached.stat().st_mtime_ns
    assert _native.build(tmp_path, compiler) is not None
    assert cached.stat().st_mtime_ns == mtime  # loaded, not rebuilt
    assert _native.library_name([*compiler, "-g"]) != cached.name


def test_a_fresh_build_removes_stale_libraries(compiler, tmp_path):
    stale, partial = tmp_path / "covprune-0.so", tmp_path / "covprune-1.so.tmp"
    stale.write_bytes(b"")
    partial.write_bytes(b"")  # another process's build in progress
    assert _native.build(tmp_path, compiler) is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [_native.library_name(compiler), partial.name])
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
    warnings = ("-Wall", "-Wextra", "-Werror")
    done = subprocess.run([*compiler, *_native.FLAGS, *warnings, "-o", str(tmp_path / "lib.so"),
                           *map(str, _native.SOURCES)],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

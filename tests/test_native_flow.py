"""The compiled max-flow on a `Chain` against its Python twin
`_augment_python` on the same arrays, probe by probe from the warm start
and along a descent that keeps its flow, and the fallback to that twin
when no library can be built."""

import json
import random

import pytest

from covprune import IntervalSet, _native
from covprune.cli import main
from covprune.flow import Chain

from conftest import clipped_instance, iset, random_instance

MAX_COORD = 2**64 - 1


def seeded_instances():
    rng = random.Random(3101)
    for _ in range(300):
        s = random_instance(rng, rng.randint(1, 40), max_coord=rng.choice((12, 60)),
                            max_len=15)
        yield s, rng.randint(1, 6)
    for _ in range(30):  # deep everywhere, so high floors stay feasible
        yield clipped_instance(rng, rng.randint(20, 300), 200, 40), rng.randint(2, 30)
    for _ in range(50):  # piles of duplicates: parallel arcs
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


def python_flow(monkeypatch, chain, t):
    """`chain.max_flow(t)` run by `_augment_python`, as without a library."""
    with monkeypatch.context() as m:
        m.setattr(_native, "load_library", lambda: None)
        return chain.max_flow(t)


def test_native_flow_matches_reference(compiler, monkeypatch):
    probes = augmented = 0
    for s, k in seeded_instances():
        for t in range(k + 1):
            chain = Chain(s, k)
            assert chain.native == 1
            reference = python_flow(monkeypatch, Chain(s, k), t)
            assert chain.max_flow(t) == reference
            probes += 1
            augmented += reference.augmentations > 1
        # one descent k -> 0 per backend, each carrying its own flow
        chain, reference = Chain(s, k), Chain(s, k)
        for t in range(k, -1, -1):
            assert chain.max_flow(t) == python_flow(monkeypatch, reference, t)
            assert (chain.res == reference.res).all()
    assert probes > 2000 and augmented > 300


def test_chain_rejects_bad_probes(compiler):
    s = iset([(0, 5), (2, 8)])
    chain = Chain(s, 3)
    for t in (-1, 4):
        with pytest.raises(ValueError):
            chain.max_flow(t)
    chain.max_flow(1)
    with pytest.raises(ValueError):
        chain.max_flow(2)  # the floor may only fall
    for k in (0, -1):
        with pytest.raises(ValueError):
            Chain(s, k)
    with pytest.raises(ValueError):
        Chain(IntervalSet(()), 3)


@pytest.mark.parametrize("argv", [["solve", "--k", "24"], ["decide", "--k", "24", "--t", "12"]],
                         ids=["solve", "decide"])
def test_fallback_cli_output_is_byte_identical(argv, tmp_path, monkeypatch, capsysbinary):
    rng = random.Random(3102)
    reads = tmp_path / "reads.bed"
    with reads.open("w") as fh:
        for chrom in ("chr1", "chr2", "chr3"):
            for iv in clipped_instance(rng, 1500, 6000, 300):
                fh.write(f"{chrom}\t{iv.start}\t{iv.end}\n")

    def run(stats):
        assert main([argv[0], str(reads), *argv[1:], "--stats", str(stats)]) == 0
        records = [json.loads(line) for line in stats.read_text().splitlines()]
        for record in records:
            del record["wall_time_s"]
        return capsysbinary.readouterr().out, records

    loaded_out, loaded = run(tmp_path / "loaded.jsonl")
    compiled = int(_native.load_library() is not None)
    monkeypatch.setattr(_native, "load_library", lambda: None)
    reference_out, reference = run(tmp_path / "reference.jsonl")
    assert loaded_out == reference_out
    assert {r["work"].pop("native_flow") for r in loaded} == {compiled}
    assert {r["work"].pop("native_flow") for r in reference} == {0}
    assert loaded == reference
    assert all(r["work"]["augmentations"] > 0 for r in reference)

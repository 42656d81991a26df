#!/usr/bin/env python3
"""Seeded BED3 inputs for the covprune benchmark.

The benchmark owns this generator so that a change to
`covprune.io.generate_instance` cannot change what is measured.  Every
workload is a multi-chromosome BED3 file built from two kinds of reads:

* tilings: back-to-back reads of random length that cover their
  chromosome exactly once, so `d` tilings give coverage exactly `d`;
* random reads: uniform starts with edge clipping (a read may start
  before 0 or run past the end and is cut to the chromosome), so the
  ends of a chromosome are as deep as its middle.

Regenerate an input with
    python3 bench/workloads.py --workload solve-deep --seed 1 --out deep.bed
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

K = 30
READ_LEN = (100, 300)  # inclusive bounds of the read length
LONG_READ_LEN = (1000, 3000)


@dataclass(frozen=True)
class Chrom:
    name: str
    starts: np.ndarray  # int64, half-open [start, end)
    ends: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the covprune subcommand: "approx" or "solve"
    k: int
    chroms: tuple[Chrom, ...]

    def lines(self) -> list[str]:
        """BED3 lines in file order: chromosome by chromosome, by start."""
        out = []
        for c in self.chroms:
            order = np.lexsort((c.ends, c.starts))
            out.extend(f"{c.name}\t{s}\t{e}"
                       for s, e in zip(c.starts[order].tolist(), c.ends[order].tolist()))
        return out

    def write(self, path) -> list[str]:
        """Write the BED3 file; returns its lines."""
        lines = self.lines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return lines


def tilings(rng: np.random.Generator, d: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """`d` independent tilings of [0, length); coverage is exactly d."""
    lo, hi = READ_LEN
    starts, ends = [], []
    for _ in range(d):
        cuts = np.cumsum(rng.integers(lo, hi + 1, (length + hi) // lo + 2)) - rng.integers(0, hi)
        cuts = np.concatenate(([0], cuts[(cuts > 0) & (cuts < length)], [length]))
        starts.append(cuts[:-1])
        ends.append(cuts[1:])
    return np.concatenate(starts), np.concatenate(ends)


def random_reads(rng: np.random.Generator, depth: float, lo: int, hi: int,
                 read_len: tuple[int, int] = READ_LEN,
                 distinct: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Edge-clipped uniform reads over [lo, hi) at the given mean depth.

    With `distinct`, no two reads share a start or an end inside (lo, hi):
    coverage then changes at every inner endpoint, so no subset has
    coverage exactly k everywhere and the optimum stays below k.
    """
    rl, rh = read_len
    n = round(depth * (hi - lo) / ((rl + rh) / 2))
    lens = rng.integers(rl, rh + 1, n)
    raw = rng.integers(lo - lens + 1, hi)
    while True:
        starts = np.maximum(raw, lo)
        ends = np.minimum(raw + lens, hi)
        if not distinct:
            return starts, ends
        coords = np.concatenate((starts, ends))
        inner = (coords > lo) & (coords < hi)
        _, first = np.unique(coords[inner], return_index=True)
        clash = np.ones(int(inner.sum()), dtype=bool)
        clash[first] = False
        redo = np.unique(np.tile(np.arange(n), 2)[inner][clash])
        if redo.size == 0:
            return starts, ends
        raw[redo] = rng.integers(lo - lens[redo] + 1, hi)


def make_chrom(name: str, *parts: tuple[np.ndarray, np.ndarray]) -> Chrom:
    return Chrom(name, np.concatenate([p[0] for p in parts]).astype(np.int64),
                 np.concatenate([p[1] for p in parts]).astype(np.int64))


def approx_genome(rng: np.random.Generator) -> Workload:
    # (name, length, tilings, random depth); chr4 stays under the cap
    table = (("chr1", 100_000, 6, 44), ("chr2", 70_000, 10, 56),
             ("chr3", 55_000, 4, 36), ("chr4", 40_000, 8, 6))
    chroms = tuple(make_chrom(name, tilings(rng, d, length), random_reads(rng, depth, 0, length))
                   for name, length, d, depth in table)
    return Workload("approx-genome", "approx", K, chroms)


def solve_deep(rng: np.random.Generator) -> Workload:
    # long reads keep inner endpoints sparse enough to be made distinct
    chroms = tuple(make_chrom(f"chr{i + 1}", random_reads(rng, 2.4 * K, 0, length,
                                                          LONG_READ_LEN, distinct=True))
                   for i, length in enumerate((100_000, 90_000, 80_000)))
    return Workload("solve-deep", "solve", K, chroms)


def solve_shallow(rng: np.random.Generator) -> Workload:
    # d exact tilings set mincov (and so the optimum) to d; deep random
    # reads over the middle of the chromosome push maxcov above k
    chroms = []
    for i, (length, d) in enumerate(((80_000, 7), (68_000, 5), (56_000, 9))):
        chroms.append(make_chrom(f"chr{i + 1}", tilings(rng, d, length),
                                 random_reads(rng, 1.6 * K, length // 5, length - length // 5)))
    return Workload("solve-shallow", "solve", K, tuple(chroms))


WORKLOADS = {"approx-genome": approx_genome, "solve-deep": solve_deep,
             "solve-shallow": solve_shallow}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng([seed, list(WORKLOADS).index(name)]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="BED3 file to write")
    args = parser.parse_args()
    wl = make(args.workload, args.seed)
    wl.write(args.out)
    print(f"{args.out}: covprune {wl.command} --k {wl.k}, "
          f"{sum(len(c.starts) for c in wl.chroms)} reads")


if __name__ == "__main__":
    main()

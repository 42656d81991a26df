#!/usr/bin/env python3
"""Write the genome-scale BED3 input that the ROADMAP's Baseline measures.

Four chromosomes, chr1..chr4, of n reads each (250,000 by default) of
100-300 bp, drawn by numpy's `default_rng(1)`: per chromosome the
lengths, then the starts uniform in [1 - length, L) with L = n * 200 // 60
(depth about 60), both ends clipped to [0, L).  The lines come in
generation order, chromosome by chromosome, or with `--sorted` sorted by
start within each chromosome (a stable sort, so equal starts keep their
generation order).  At the defaults the file is 18.7 MB, and
`covprune solve --k 30` reaches OPT 27/26/27/25.

    python3 scripts/genome.py --out genome.bed
    python3 scripts/genome.py --sorted --out genome-sorted.bed
"""

import argparse

import numpy as np

CHROMS = 4
READ_LEN = (100, 300)  # inclusive bounds of the read length


def genome_lines(n: int, sort: bool) -> list[str]:
    """The BED3 lines of the genome input, in file order."""
    rng = np.random.default_rng(1)
    length = n * 200 // 60
    lines = []
    for c in range(1, CHROMS + 1):
        lens = rng.integers(READ_LEN[0], READ_LEN[1] + 1, n)
        starts = rng.integers(1 - lens, length)
        ends = np.minimum(starts + lens, length)
        starts = np.maximum(starts, 0)
        order = np.argsort(starts, kind="stable") if sort else np.arange(n)
        lines += [f"chr{c}\t{s}\t{e}\n"
                  for s, e in zip(starts[order].tolist(), ends[order].tolist())]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reads", type=int, default=250_000, help="reads per chromosome")
    parser.add_argument("--sorted", action="store_true", help="sort each chromosome by start")
    parser.add_argument("--out", required=True, help="BED3 file to write")
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(genome_lines(args.reads, args.sorted))


if __name__ == "__main__":
    main()

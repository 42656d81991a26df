"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

A child interpreter, with the ASan runtime preloaded and pymalloc off, so
that ASan sees every small array too, builds the module with both
sanitizers into its own cache, where `load_library` finds it.  It then
makes one small run of each subcommand, the reading kernels handed
exact-size copies of the input, and the kernel calls at the edges of
their buffers: the reading kernels', the approx sweep's, under either
store, and those of the profile, the network layout, the max-flow, the
score of a keep column, the split per chromosome and the small loops of
`_arrays.c`, each checked against a list scan, and calls whose counts
exceed a buffer by one, which the module refuses, the profile on a read
with start >= end, the network on reads out of chain order, the score
on a keep value outside {0, 1}, an order holding a read out of range or
at two places and a span at fewer than two delimiters, and the
max-flow's search on indices that hold no network, chain columns that
put a head off the chain, or a flow outside its capacities, which they
refuse.
Every kernel's scratch is the module's, allocated at exactly its size,
so a search that fills its stack is checked too.  Any sanitizer report
stops the child."""

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
lib = _native.load_library()


# data in a repeated array, which is allocated at its size, so that its
# items, unlike those of bytes, end where the data does
def exact(data):
    items = array("B", [0]) * len(data)
    items[:] = array("B", data)
    return items


# the reading kernels, which the runs below reach through the module, take
# the input as exact-size copies, so that a read past its end is reported
parse_kernel, lines_kernel = lib.covprune_parse, lib.covprune_lines


def exact_parse(data, *rest):
    return parse_kernel(exact(data), *rest)


def exact_lines(n, mask, line_at, line_len, size, data):
    return lines_kernel(n, mask, line_at, line_len, size, exact(data))


lib.covprune_parse, lib.covprune_lines = exact_parse, exact_lines
runs = [(["approx", bed, "--k", "1"], 0), (["solve", bed, "--k", "1"], 0),
        (["solve", plain, "--k", "1"], 0), (["decide", bed, "--k", "1", "--t", "1"], 0),
        (["decide", plain, "--k", "1", "--t", "1"], 1), (["stats", bed], 0),
        (["approx", empty, "--k", "2"], 0),
        (["approx", plain, "--k", "3"], 0)]  # every read kept, the unterminated last line too
for argv, code in runs:
    assert main(argv + ["--stats", os.devnull] * (argv[0] != "stats")) == code, argv


# covprune_parse's count and info on data
def parse(data, slots=4):
    columns = [array("Q", [0]) * slots, array("Q", [0]) * slots, array("q", [0]) * (3 * slots),
               array("q", [0]) * 6, array("q", [0]) * slots, array("q", [0]) * slots]
    n = lib.covprune_parse(data, len(data), slots, slots, *columns)
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
    lib.covprune_parse(data, len(data), 1, 1, one("Q"), one("Q"), array("q", [0]) * 3,
                       array("q", [0]) * 6, one("q"), one("q"))
    raise AssertionError("the reader wrote past its record columns")
except ValueError:
    pass
# the kept-line gather at n = 0 and n = 1, an unterminated line
assert lib.covprune_lines(0, array("B"), array("q"), array("q"), 0, b"") == b""
assert lib.covprune_lines(1, array("B", [1]), one("q"), array("q", [3]), 3, b"0 1") == b"0 1\\n"
# a kept line of the most negative length, whose end would overflow
try:
    lib.covprune_lines(2, array("B", [1, 1]), array("q", [0, 1]), array("q", [3, -2**63]), 3,
                       b"0 1")
    raise AssertionError("the gather took a line outside the data")
except ValueError:
    pass


# int64 items at exactly their number
def ints(values):
    items = array("q", [0]) * len(values)
    items[:] = array("q", values)
    return items


# a call the module or the kernel refuses, raising ValueError, before the
# kernel writes anything: every buffer is left as it was
def refused(kernel, *args):
    before = [bytes(a) for a in args if isinstance(a, array)]
    try:
        kernel(*args)
        raise AssertionError(f"{kernel.__name__} took {args}")
    except ValueError:
        pass
    assert [bytes(a) for a in args if isinstance(a, array)] == before, kernel.__name__


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
# at cap k, every buffer at exactly its size and keep coming in dirty, the
# reads handed over in their chain order, by (lo, hi, i): the reads its
# keep column marks and the decision counts, which must match the reference
def sweep(cov, lo, hi, k):
    n, got = len(lo), []
    chain = sorted(range(n), key=lambda i: (lo[i], hi[i], i))
    for flat in (1, 0):
        keep, counts = ints([7] * n), ints([-1] * 4)
        assert lib.covprune_sweep(n, ints([lo[i] for i in chain]), ints([hi[i] for i in chain]),
                                  len(cov), ints(cov), k, flat, keep, counts) == 0
        assert set(keep.tolist()) <= {0, 1}, keep
        got.append((sorted(chain[p] for p in range(n) if keep[p]), counts.tolist()[1:]))
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
# given out of order, so that the chain is not the read order
assert sweep([4, 4, 4], [0, 0, 0], [3, 1, 2], 3) == ([1, 2], [3, 0, 2])
# int32 cells at the top: deleted down and refilled up near 2**31 - 1
assert sweep([top - 1, top], [0, 0], [1, 2], top - 2) == ([0], [2, 0, 1])
assert sweep([top, top], [0, 0], [2, 1], top - 2) == ([], [2, 0, 0])
assert sweep([top], [0], [1], 2**62) == ([0], [0, 0, 0])
# a count beyond the flat store's int32 cells
refused(lib.covprune_sweep, 1, ints([0]), ints([1]), 1, ints([top + 1]), 1, 1, ints([0]),
        ints([0] * 4))
# nseg at a power of 2, the tree's leaves filled up to its last, and one
# past it; reads out of order, one over every segment and one over the
# last
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


def u64(values):
    items = array("Q", [0]) * len(values)
    items[:] = array("Q", values)
    return items


# the profile: its delimiters, chain order, each place's lo and hi,
# coverage and (mincov, maxcov, spanned), from exact-size buffers, against
# a sort of the reads and a count per segment
def profile(starts, ends):
    n = len(starts)
    delims, cov, summary = u64([7] * 2 * n), ints([7] * 2 * n), ints([7] * 3)
    lo, hi, order = ints([7] * n), ints([7] * n), ints([7] * n)
    m = lib.covprune_profile(n, u64(starts), u64(ends), delims, lo, hi, order, cov, summary)
    d = sorted({*starts, *ends})
    want_lo, want_hi = [d.index(x) for x in starts], [d.index(x) for x in ends]
    want = [sum(a <= j < b for a, b in zip(want_lo, want_hi)) for j in range(len(d) - 1)]
    chain = sorted(range(n), key=lambda i: (starts[i], ends[i], i))
    assert (delims.tolist()[:m], order.tolist(), lo.tolist(), hi.tolist(), cov.tolist()[:m]) == \
        (d, chain, [want_lo[i] for i in chain], [want_hi[i] for i in chain], want + [0])
    assert summary.tolist() == [min(want), max(want), sum(want)], summary


profile([5], [9])  # n = 1
profile([0], [2**64 - 1])
# unsorted keys, past one radix digit and with a shared one
profile([7, 0, 2**40 + 3, 0, 4096], [9, 4, 2**40 + 12, 2, 2**64 - 1])
profile([2**64 - 3, 1, 1], [2**64 - 1, 3, 2**64 - 2])
# sorted starts and ends, and piles of one start with ends out of order
profile([0, 1, 2], [3, 4, 5])
profile([4, 4, 0, 4, 0, 4], [9, 6, 2, 9, 1, 5])
# a read with start >= end, alone or in last place: -1 before any write
for starts, ends in (([1], [1]), ([0, 5, 9], [1, 6, 8]), ([0, 5, 2**64 - 1], [1, 6, 2**64 - 1])):
    n = len(starts)
    outputs = [u64([7] * 2 * n), ints([7] * n), ints([7] * n), ints([7] * n), ints([7] * 2 * n),
               ints([7] * 3)]
    assert lib.covprune_profile(n, u64(starts), u64(ends), *outputs) == -1, (starts, ends)
    assert [a.tolist() for a in outputs] == [[7] * len(a) for a in outputs], outputs


# the vertices each residual arc of the chain network on nv vertices
# leaves and enters, from the reads' places lo and hi: backbone arc j
# joins j and j + 1, a read's arc lo + 1 and hi + 1, and arc 2a + 1 runs
# back along arc 2a
def arc_ends(nv, lo, hi):
    tails, heads = [*range(nv - 1), *(a + 1 for a in lo)], [*range(1, nv), *(b + 1 for b in hi)]
    return ([u for pair in zip(tails, heads) for u in pair],
            [u for pair in zip(heads, tails) for u in pair])


# the chain network's first and adj, against one stable sort of the arcs
# by the vertex they leave, then by falling head, the reads given in
# chain order
def network(m, lo, hi):
    n, nv = len(lo), m + 2
    first, adj = ints([-9] * (nv + 1)), ints([-9] * 2 * (m + 1 + n))
    assert lib.covprune_network(n, m, ints(lo), ints(hi), first, adj) == 0
    origin, reach = arc_ends(nv, lo, hi)
    want_adj = sorted(range(len(origin)), key=lambda a: (origin[a], -reach[a]))
    want_first = [sum(o < u for o in origin) for u in range(nv + 1)]
    assert (first.tolist(), adj.tolist()) == (want_first, want_adj)


network(2, [0], [1])  # n = 1, m = 2: one read over the one segment
network(2, [], [])
network(5, [0, 0, 1, 2, 3], [1, 4, 4, 3, 4])
network(4, [0, 0, 0, 1, 1, 1, 2], [1, 3, 3, 2, 2, 3, 3])  # runs of parallel arcs
# reads off the chain or out of chain order, refused before any write
for m, lo, hi in ((2, [0], [2]), (2, [-1], [1]), (3, [1], [1]), (4, [0, 2], [3, 4]),
                  (3, [0, 0], [2, 1]), (3, [1, 0], [2, 2])):
    n = len(lo)
    sizes = (m + 3, 2 * (m + 1 + n))  # first, adj
    refused(lib.covprune_network, n, m, ints(lo), ints(hi), *(ints([-9] * k) for k in sizes))


# the score of the keep column keep, place p holding read n - 1 - p: its
# kept reads against a list scan, and the coverage and its extremes
# against a count per segment
def score(keep, lo, hi, m):
    n = len(lo)
    reads, cov, extremes = ints([7] * n), ints([7] * m), ints([7, 7])
    count = lib.covprune_score(n, ints(keep), ints(range(n - 1, -1, -1)), ints(lo), ints(hi), m,
                               reads, cov, extremes)
    assert reads.tolist()[:count] == sorted(n - 1 - p for p in range(n) if keep[p]), reads
    want = [sum(keep[p] for p in range(n) if lo[p] <= j < hi[p]) for j in range(m - 1)]
    assert cov.tolist() == want + [0] * (m > 0), (cov, want)
    assert extremes.tolist() == ([min(want), max(want)] if want else [0, 0]), extremes


score([], [], [], 0)  # the empty set: no delimiter
score([], [], [], 1)  # m = 1: no segment
score([0, 0], [0, 0], [1, 1], 2)  # all 0
score([1, 1], [0, 0], [1, 1], 2)  # all 1
score([0, 1], [0, 0], [1, 1], 2)
score([1, 1, 1], [0, 2, 1], [3, 3, 2], 4)
score([1, 0, 1, 0], [0, 2, 1, 0], [1, 3, 3, 3], 4)  # a gap at segment 1
# a keep value of 2 or -1, an order that holds a read out of range or one
# read at two places, and a span at m < 2, refused before any write
for keep, order, lo, hi, m in (([2, 0], [1, 0], [0, 0], [1, 1], 2),
                               ([1, -1], [1, 0], [0, 0], [1, 1], 2),
                               ([1, 1], [0, 2], [0, 0], [1, 1], 2),
                               ([1, 1], [-1, 0], [0, 0], [1, 1], 2),
                               ([0, 0], [1, 1], [0, 0], [1, 1], 2),
                               ([1], [0], [0], [1], 1), ([1], [0], [0], [0], 0)):
    refused(lib.covprune_score, len(keep), ints(keep), ints(order), ints(lo), ints(hi), m,
            ints([7] * len(keep)), ints([7] * m), ints([7, 7]))
# the keep column, then the reads and cov, one item short of the counts
one = (ints([1, 1]), ints([1, 0]), ints([0, 0]), ints([1, 1]), 2, ints([7, 7]), ints([7, 7]))
refused(lib.covprune_score, 2, ints([1]), *one[1:], ints([7, 7]))
refused(lib.covprune_score, 2, *one[:5], ints([7]), one[6], ints([7, 7]))
refused(lib.covprune_score, 2, *one[:6], ints([7]), ints([7, 7]))


# the split of n records by their runs, against a stable sort of each
# record's run code
def group(run_at, run_code, n, ngroups):
    starts, ends = u64(range(n)), u64(range(1, n + 1))
    first, order, gs, ge = ints([-9] * (ngroups + 1)), ints([-9] * n), u64([9] * n), u64([9] * n)
    assert lib.covprune_group(len(run_at), ints(run_at), ints(run_code), n, ngroups, starts, ends,
                              first, order, gs, ge) == 0
    bounds = [*run_at, n]
    code = [c for r, c in enumerate(run_code) for _ in range(bounds[r], bounds[r + 1])]
    want = sorted(range(n), key=code.__getitem__)
    assert order.tolist() == want and gs.tolist() == want and ge.tolist() == [i + 1 for i in want]
    assert first.tolist() == [sum(c < g for c in code) for g in range(ngroups + 1)]


group([0, 1, 2, 3], [1, 0, 1, 0], 4, 2)  # runs of length 1
group([], [], 0, 1)  # nruns = 0 at n = 0
group([0, 2, 3], [2, 0, 2], 5, 3)  # group 1 holds no record
for run_at, run_code, n in (([0, 2], [0, 0], 2), ([0, 3], [0, 0], 2), ([1], [0], 2),
                            ([], [], 1), ([0], [1], 1)):
    order = ints([-9] * n)
    try:
        lib.covprune_group(len(run_at), ints(run_at), ints(run_code), n, 1, u64([0] * n),
                           u64([1] * n), ints([0, 0]), order, u64([0] * n), u64([0] * n))
        raise AssertionError(f"the split took runs {run_at} of codes {run_code} for {n} records")
    except ValueError:
        pass
    assert order.tolist() == [-9] * n


# the mask of map[idx[j]] for each j, against a list scan, the mask
# coming in with a 2 that stays
def scatter(idx, mapping, m):
    mask = array("B", [0]) * m
    mask[:] = array("B", [2] * (m > 0) + [0] * (m - 1))
    assert lib.covprune_scatter(len(idx), ints(idx), len(mapping), ints(mapping), m, mask) == 0
    want = [2] * (m > 0) + [0] * (m - 1)
    for i in idx:
        want[mapping[i]] = 1
    assert mask.tolist() == want, mask


scatter([], [], 0)
scatter([0], [0], 1)
scatter([0, 2], [3, 0, 4], 5)  # the last slot of each buffer
scatter([1, 0, 1], [2, 0], 3)
refused(lib.covprune_scatter, 2, ints([0]), 1, ints([0]), 1, array("B", [0]))
refused(lib.covprune_scatter, 1, ints([1]), 2, ints([0]), 1, array("B", [0]))
refused(lib.covprune_scatter, 1, ints([0]), 1, ints([1]), 2, array("B", [0]))
refused(lib.covprune_scatter, 1, ints([1]), 1, ints([0]), 1, array("B", [0]))  # idx past map
refused(lib.covprune_scatter, 1, ints([0]), 1, ints([1]), 1, array("B", [0]))  # map past mask


# the max-flow from vertex 0 to vertex nv - 1 of the (k, t) network from
# the feasible flow given, every buffer at its exact size: its value
# against augmenting paths found by breadth-first search on the
# residuals, each arc's capacity and ends written out (k on the end
# backbone arcs, k - t inside, 1 on a read's), and the last search's
# marks against the vertices the source reaches in the residual it
# leaves; returns the path count
def max_flow(nv, first, adj, lo, hi, k, t, flow):
    after, parent_arc = ints(flow), ints([-9] * nv)
    count = lib.covprune_max_flow(nv, ints(first), ints(adj), ints(lo), ints(hi), k, t, after,
                                  parent_arc)
    tail, to = (ends[:len(adj)] for ends in arc_ends(nv, lo, hi))
    cap = [1 if a >= nv - 1 else k if a in (0, nv - 2) else k - t for a in range(len(flow))]

    def residuals(f):
        return [f[a // 2] if a % 2 else cap[a // 2] - f[a // 2] for a in range(len(to))]

    def search(r):
        parent, queue = {0: None}, [0]
        for u in queue:
            for a in adj[first[u]:first[u + 1]]:
                if r[a] > 0 and to[a] not in parent:
                    parent[to[a]] = a
                    queue.append(to[a])
        return parent

    r, value = residuals(flow), 0
    while nv - 1 in (parent := search(r)):
        path, v = [], nv - 1
        while v:
            path.append(parent[v])
            v = tail[parent[v]]
        pushed = min(r[a] for a in path)
        for a in path:
            r[a] -= pushed
            r[a ^ 1] += pushed
        value += pushed
    got = residuals(after.tolist())
    start = residuals(flow)
    assert sum(start[a] - got[a] for a in range(len(to)) if tail[a] == 0) == value, (got, value)
    marks = {v for v, arc in enumerate(parent_arc) if arc != -1}
    assert marks == set(search(got)) and nv - 1 not in marks, (marks, got)
    assert (count > 0) == (value > 0)
    return count


assert max_flow(2, [0, 0, 0], [], [], [], 1, 0, []) == 0  # no arc
assert max_flow(2, [0, 1, 2], [0, 1], [], [], 3, 0, [0]) == 1  # one arc, pushed whole
# a chain 0 -> 1 -> ... -> nv - 1, every arc a backbone arc of capacity
# k = 2: the one path runs through every vertex
for nv in (3, 9):
    arcs = [(u, u + 1) for u in range(nv - 1)]
    out = {u: [] for u in range(nv)}
    for a, (u, v) in enumerate(arcs):
        out[u].append(2 * a)
        out[v].append(2 * a + 1)
    adj = [a for u in range(nv) for a in sorted(out[u], key=lambda a: -(a % 2 == 0))]
    first = [sum(len(out[w]) for w in range(u)) for u in range(nv + 1)]
    assert max_flow(nv, first, adj, [], [], 2, 0, [0] * (nv - 1)) == 1
# chain networks, the reads in chain order, at every floor from the warm
# start: failing searches that mark every vertex but those past a
# saturated cut
for m, lo, hi in ((2, [0], [1]), (5, [0, 0, 1, 2, 3], [1, 4, 4, 3, 4]),
                  (4, [0, 0, 1, 1, 2, 2], [1, 2, 2, 3, 3, 3])):
    n, nv = len(lo), m + 2
    first, adj = ints([0] * (nv + 1)), ints([0] * 2 * (m + 1 + n))
    assert lib.covprune_network(n, m, ints(lo), ints(hi), first, adj) == 0
    for k in (1, 2, 3):
        for t in range(k + 1):
            max_flow(nv, first.tolist(), adj.tolist(), lo, hi, k, t, [k - t] * (m + 1) + [0] * n)
# each count exceeding its buffer by one: first, then adj and flow on a
# search that reads every arc, lo and hi on a network with one read's
# arc, then parent_arc on one that marks the sink; k and t out of range;
# an odd arc count, whose last arc would read the flow's missing item;
# and one vertex, a source that is the sink
scan = ([0, 2, 2], [0, 1], [], [], [0])
read = ([0, 2, 4], [2, 0, 3, 1], [-1], [0], [0, 0])
path = ([0, 1, 2], [0, 1], [], [], [0])
for nv, (first, adj, lo, hi, flow), short in ((2, scan, 0), (2, scan, 1), (2, read, 2),
                                              (2, read, 3), (2, scan, 4), (2, path, 5)):
    args = [first, adj, lo, hi, flow, [-9] * nv]
    args[short] = args[short][:-1]
    refused(lib.covprune_max_flow, nv, *map(ints, args[:4]), 1, 0, *map(ints, args[4:]))
for k, t in ((0, 0), (-2**63, 0), (1, -1), (1, 2), (3, -2**63)):
    refused(lib.covprune_max_flow, 2, *map(ints, scan[:4]), k, t, ints([0]), ints([-9] * 2))
refused(lib.covprune_max_flow, 2, ints([0, 3, 3]), ints([2, 0, 1]), ints([]), ints([]), 1, 0,
        ints([0]), ints([-9] * 2))
# a flow item far below 0, whose residual capacity - flow would overflow
refused(lib.covprune_max_flow, 2, ints([0, 1, 2]), ints([0, 1]), ints([]), ints([]), 3, 0,
        ints([-2**63]), ints([-9] * 2))
behind = ints([5, 0])
refused(lib.covprune_max_flow, 1, ints([0, 0]), ints([]), ints([]), ints([]), 9, 0,
        memoryview(behind)[1:], ints([-9]))
# indices that hold no network, on buffers of the sizes the rule asks: a
# read's place whose hi or lo puts its head at or past nv or below 0 (the
# lo ones list the reverse arc under the source), or whose hi or lo is
# the largest int64, where hi + 1 would overflow, a first that falls, a
# negative first, an arc range past the arcs, an arc past them and a
# negative arc, each refused by the search before it follows the index;
# and an adj that lists a backbone arc's reverse under the source, whose
# paths push nothing: refused after k = 2 paths
for nv, first, adj, lo, hi, flow in (
        (2, [0, 2, 4], [2, 0, 3, 1], [-1], [1], [0, 0]),
        (2, [0, 2, 4], [2, 0, 3, 1], [-1], [-2], [0, 0]),
        (2, [0, 2, 4], [3, 0, 2, 1], [1], [0], [0, 0]),
        (2, [0, 2, 4], [3, 0, 2, 1], [-2], [0], [0, 0]),
        (2, [0, 2, 4], [2, 0, 3, 1], [-1], [2**63 - 1], [0, 0]),
        (2, [0, 2, 4], [3, 0, 2, 1], [2**63 - 1], [0], [0, 0]),
        (2, [2, 0, 2], [0, 1], [], [], [0]), (2, [-1, 2, 2], [0, 1], [], [], [0]),
        (2, [0, 3, 2], [1, 1], [], [], [0]), (2, [0, 2, 2], [2, 0], [], [], [0]),
        (2, [0, 2, 2], [-1, 0], [], [], [0]), (3, [0, 1, 4, 4], [3, 2, 0, 1], [], [], [0, 1])):
    try:
        lib.covprune_max_flow(nv, ints(first), ints(adj), ints(lo), ints(hi), 2, 0, ints(flow),
                              ints([-9] * nv))
        raise AssertionError(f"the max-flow followed {first}, {adj}, {lo}, {hi}")
    except ValueError:
        pass

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

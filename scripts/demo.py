#!/usr/bin/env python3
"""Walk through the solver stack on a small six-read instance.

Prints the coverage profile, the flow network, the exact optimum found
by descending from the bound min(k, mincov), and the approximate pruning
result, so the whole pipeline can be eyeballed in one screen.
"""

from covprune import (IntervalSet, build_network, decide, solve_exact, approx_prune,
                      brute_force_opt)
from covprune.flow import Chain

READS = [(0, 8), (0, 2), (2, 6), (1, 3), (1, 10), (4, 10)]
K = 3


def main():
    s = IntervalSet.from_pairs(READS)
    names = "ABCDEF"
    print(f"instance: {', '.join(f'{names[i]}=[{a},{b})' for i, (a, b) in enumerate(READS))}")

    delims, cov = s.compressed.delimiters.tolist(), s.compressed.segment_cov.tolist()
    print(f"\ncoverage profile over delimiters {tuple(delims)}:")
    for j, c in enumerate(cov):
        print(f"  [{delims[j]:>2},{delims[j + 1]:>2})  cov={c}")
    print(f"mincov over span = {min(cov)}, maxcov = {max(cov)}")

    net = build_network(s)
    print(f"\nflow network: {net.nv} vertices, source 0, sink {net.nv - 1}, "
          f"{net.num_backbone_arcs} backbone arcs")
    print(f"  interval arcs (start, end vertex): {net.interval_arcs.tolist()}")
    # residual arc 2a runs along logical arc a, 2a + 1 against it
    print("  residual arcs leaving vertex u: adj[first[u]:first[u + 1]], with")
    print(f"    first = {net.first.tolist()}")
    print(f"    adj   = {net.adj.tolist()}")

    t = 1
    print(f"\nat k={K}, t={t} the residual gives the end arcs capacity {K}, "
          f"the interior {K - t}, each interval 1")
    cold = Chain(s, K, warm_start=False).max_flow(t)
    warm = Chain(s, K).max_flow(t)
    print(f"  max-flow value {cold.value} "
          f"(cold: {cold.augmentations} augmentations, warm: {warm.augmentations})")

    sol = decide(s, K, t)
    kept = "".join(names[i] for i in sol.kept)
    print(f"  decide(k={K}, t={t}): keep {{{kept}}} "
          f"-> mincov {sol.achieved_mincov}, maxcov {sol.achieved_maxcov}")

    exact = solve_exact(s, K)
    kept = "".join(names[i] for i in exact.kept)
    print(f"\nexact optimum for k={K}: mincov {exact.achieved_mincov} "
          f"keeping {{{kept}}} ({exact.work['probes']} probes, "
          f"{exact.work['flow_solves']} flow solves)")
    print(f"brute force agrees: {brute_force_opt(s, K).achieved_mincov}")

    ap = approx_prune(s, K)
    kept = "".join(names[i] for i in ap.kept)
    print(f"approximation:      mincov {ap.achieved_mincov} keeping {{{kept}}} "
          f"(guarantee: >= {K // 2}/{K} of optimum)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Walk through the solver stack on a small six-read instance.

Prints the coverage profile, the flow network, the exact optimum found
by descending from the bound min(k, mincov), and the approximate pruning
result, so the whole pipeline can be eyeballed in one screen.
"""

from covprune import (IntervalSet, coverage_profile, mincov_span, maxcov,
                      build_network, backbone_initial_flow, zero_flow,
                      max_flow_augmenting, decide, solve_exact, approx_prune,
                      brute_force_opt)

READS = [(0, 8), (0, 2), (2, 6), (1, 3), (1, 10), (4, 10)]
K = 3


def main():
    s = IntervalSet.from_pairs(READS)
    names = "ABCDEF"
    print(f"instance: {', '.join(f'{names[i]}=[{a},{b})' for i, (a, b) in enumerate(READS))}")

    prof = coverage_profile(s)
    print(f"\ncoverage profile over delimiters {prof.delimiters}:")
    for j, c in enumerate(prof.segment_cov):
        print(f"  [{prof.delimiters[j]:>2},{prof.delimiters[j + 1]:>2})  cov={c}")
    print(f"mincov over span = {mincov_span(s)}, maxcov = {maxcov(s)}")

    t = 1
    net = build_network(s, K, t)
    print(f"\nflow network for k={K}, t={t}: {net.num_vertices} vertices")
    print(f"  backbone capacities: {net.backbone_caps}")
    print(f"  interval arcs:       {net.interval_arcs}")

    cold = max_flow_augmenting(net, zero_flow(net))
    warm = max_flow_augmenting(net, backbone_initial_flow(net))
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

#!/usr/bin/env python3
"""Per-layer timing of covprune, taken from outside the program.

Run as a script, this file stands in for the `covprune` command:

    python3 bench/tracing.py SPANS.npz approx reads.bed --k 30

It wraps the public functions of each covprune module in timing spans,
replacing every reference a module took by name, runs `covprune.cli.main`
on the remaining arguments, and writes the spans and counters to
SPANS.npz when the run ends.  `layer_metrics` turns that file into the
per-layer metrics.  Counts come from the wrapped calls' return values
and from `Solution.work`.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    """Spans kept in memory: label, parent span, start and end times."""

    def __init__(self):
        self.label: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.counts: Counter = Counter()

    def wrap(self, label, fn, after=None):
        """Time every call of `fn` as a span; `after(result, args, seconds)`
        runs once the span has ended."""
        labels, parents, starts, ends, stack = (self.label, self.parent, self.start,
                                                self.end, self.stack)

        def traced(*args, **kwargs):
            i = len(starts)
            labels.append(label)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, ends[i] - starts[i])
            return result

        return traced

    def save(self, path: str) -> None:
        names, code = np.unique(np.array(self.label, dtype=str), return_inverse=True)
        keys = sorted(self.counts)
        np.savez(path, names=names, code=code, parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 count_keys=np.array(keys, dtype=str),
                 count_values=np.array([self.counts[x] for x in keys], dtype=float))


def instrument(tracer: Tracer):
    """Wrap covprune's public functions; returns the traced `cli.main`."""
    from covprune import approx, cli, coverage_tree, flow, intervals, io, search, solution

    modules = [m for name, m in sys.modules.items()
               if name == "covprune" or name.startswith("covprune.")]
    counts = tracer.counts
    current_k = [0]

    def replace(owner, attr, new):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            setattr(owner, attr, new)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, new)

    def install(owner, attr, label, after=None):
        replace(owner, attr, tracer.wrap(label, getattr(owner, attr), after))

    def on_read(result, args, _):
        counts["io.records"] += len(result.records)
        counts["io.input_bytes"] += os.path.getsize(args[0])

    def on_query(result, args, _):
        if result[1] > current_k[0]:
            counts["approx.candidates"] += 1

    def on_prune(result, args, _):
        counts["coverage_tree.nodes_touched"] += result.work.get("tree_nodes_touched", 0)
        counts["approx.deletions"] += len(args[0]) - result.num_kept

    def on_decide(result, args, seconds):
        if result is None:
            counts["flow.infeasible_calls"] += 1
            counts["flow.infeasible_s"] += seconds

    install(io, "read_instance", "io.read", on_read)
    install(io.InstanceFile, "chromosomes", "io.split")
    install(intervals, "coverage_profile", "intervals.profile",
            lambda r, a, s: counts.update({"intervals.segments": r.num_segments}))
    install(coverage_tree, "build_tree", "coverage_tree.build")
    install(coverage_tree.CoverageTree, "range_query", "coverage_tree.query", on_query)
    install(coverage_tree.CoverageTree, "range_decrement", "coverage_tree.decrement")
    traced_prune = tracer.wrap("approx.prune", approx.approx_prune, on_prune)

    def prune(intervals_, k, *args, **kwargs):
        current_k[0] = k
        return traced_prune(intervals_, k, *args, **kwargs)

    replace(approx, "approx_prune", prune)
    install(search, "solve_exact", "search.solve",
            lambda r, a, s: counts.update({"search.probes": r.work.get("probes", 0)}))
    install(flow, "decide", "flow.decide", on_decide)
    install(flow, "build_network", "flow.build_network",
            lambda r, a, s: counts.update({"flow.arcs": r.num_backbone_arcs + len(r.interval_arcs)}))
    install(flow, "max_flow_augmenting", "flow.max_flow",
            lambda r, a, s: counts.update({"flow.augmentations": r.augmentations}))
    install(solution, "score_subset", "solution.score")
    return tracer.wrap("cli.main", cli.main)


def layer_metrics(path: str) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    A span's self time is its duration minus the time its child spans
    cover; spans nest, so that is the sum of its children's durations.
    """
    with np.load(path) as z:
        names, code, parent = z["names"].tolist(), z["code"], z["parent"]
        dur = z["end"] - z["start"]
        counts = dict(zip(z["count_keys"].tolist(), z["count_values"].tolist()))
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

    def of(label):
        return code == names.index(label) if label in names else np.zeros(len(code), bool)

    def seconds(label, times=dur):
        return float(times[of(label)].sum())

    def calls(label):
        return int(of(label).sum())

    def count(key):
        return counts.get(key, 0)

    candidates = count("approx.candidates")
    return {
        "cli.self_s": seconds("cli.main", self_time),
        "io.read_s": seconds("io.read"),
        "io.split_s": seconds("io.split"),
        "io.records": count("io.records"),
        "io.input_bytes": count("io.input_bytes"),
        "intervals.profile_calls": calls("intervals.profile"),
        "intervals.profile_s": seconds("intervals.profile"),
        "intervals.segments": count("intervals.segments"),
        "coverage_tree.build_s": seconds("coverage_tree.build"),
        "coverage_tree.query_calls": calls("coverage_tree.query"),
        "coverage_tree.query_s": seconds("coverage_tree.query"),
        "coverage_tree.decrement_calls": calls("coverage_tree.decrement"),
        "coverage_tree.decrement_s": seconds("coverage_tree.decrement"),
        "coverage_tree.nodes_touched": count("coverage_tree.nodes_touched"),
        "approx.prune_s": seconds("approx.prune"),
        "approx.self_s": seconds("approx.prune", self_time),
        "approx.candidates": candidates,
        "approx.delete_ratio": count("approx.deletions") / candidates if candidates else 0.0,
        "search.solve_s": seconds("search.solve"),
        "search.self_s": seconds("search.solve", self_time),
        "search.probes": count("search.probes"),
        "flow.decide_calls": calls("flow.decide"),
        "flow.infeasible_calls": count("flow.infeasible_calls"),
        "flow.build_network_s": seconds("flow.build_network"),
        "flow.max_flow_s": seconds("flow.max_flow"),
        "flow.infeasible_s": count("flow.infeasible_s"),
        "flow.augmentations": count("flow.augmentations"),
        "flow.arcs": count("flow.arcs"),
        "solution.score_calls": calls("solution.score"),
        "solution.score_s": seconds("solution.score"),
        "trace.spans": len(dur),
    }


def main(argv: list[str]) -> int:
    tracer = Tracer()
    traced_main = instrument(tracer)
    try:
        return traced_main(argv[1:])
    finally:
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

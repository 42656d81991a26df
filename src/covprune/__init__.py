"""covprune: cap interval coverage at k while keeping minimum coverage high.

Exact solving goes through a max-flow reduction, descending the coverage
floor from the bound min(k, mincov) on one flow kept between floors;
a coverage tree with lazy balance counters gives an O(n log n)
approximation with ratio k / floor(k/2); a brute-force oracle validates
both at small sizes.

The names below resolve on first access (PEP 562), so importing one
module, such as `covprune.cli`, loads only the modules it uses.
"""

import importlib

_EXPORTS = {
    "intervals": ("Interval", "IntervalSet", "CoverageProfile", "coverage_profile",
                  "cov_at", "maxcov", "mincov_span", "mincov_over"),
    "solution": ("Solution", "score_subset"),
    "flow": ("FlowNetwork", "FlowAssignment", "build_network",
             "backbone_initial_flow", "zero_flow", "max_flow_augmenting", "decide"),
    "search": ("solve_exact",),
    "coverage_tree": ("CoverageTree", "build_tree"),
    "approx": ("approx_prune", "is_expendable"),
    "oracle": ("brute_force_opt", "naive_range_min_max"),
    "io": ("InstanceFile", "ParseError", "Record", "parse_instance",
           "read_instance", "generate_instance"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)

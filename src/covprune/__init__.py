"""covprune: cap interval coverage at k while keeping minimum coverage high.

Exact solving goes through a max-flow reduction, descending the coverage
floor from the bound min(k, mincov) on one flow kept between floors;
a coverage tree with lazy balance counters gives an O(n log n)
approximation with ratio k / floor(k/2); a brute-force oracle validates
both at small sizes.
"""

from .intervals import (Interval, IntervalSet, CoverageProfile,
                        coverage_profile, cov_at, maxcov, mincov_span,
                        mincov_over)
from .solution import Solution, score_subset
from .flow import (FlowNetwork, FlowAssignment, build_network,
                   backbone_initial_flow, zero_flow, max_flow_augmenting,
                   decide)
from .search import solve_exact
from .coverage_tree import CoverageTree, build_tree
from .approx import approx_prune, is_expendable
from .oracle import brute_force_opt, naive_range_min_max
from .io import InstanceFile, ParseError, Record, parse_instance, read_instance, generate_instance

__all__ = [
    "Interval", "IntervalSet", "CoverageProfile", "coverage_profile",
    "cov_at", "maxcov", "mincov_span", "mincov_over",
    "Solution", "score_subset",
    "FlowNetwork", "FlowAssignment", "build_network",
    "backbone_initial_flow", "zero_flow", "max_flow_augmenting", "decide",
    "solve_exact",
    "CoverageTree", "build_tree", "approx_prune", "is_expendable",
    "brute_force_opt", "naive_range_min_max",
    "InstanceFile", "ParseError", "Record", "parse_instance",
    "read_instance", "generate_instance",
]

__version__ = "0.1.0"

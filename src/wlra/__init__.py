"""Weighted low-rank approximation for matrices with repeated row/column patterns.

Minimizes || W o (U V^T - A) ||_F^2 by alternating sketched least squares
that solves one regression per distinct pattern group instead of one per
row.  After group detection the problem lives on a small grid of groups,
so a sweep's work depends on the group counts, not on n.
"""

from .generator import (GenSpec, WEIGHT_STYLES, generate, generate_attention_mask,
                        generate_compressed, generate_with_factors)
from .grouped_als import (Factorization, SolveOptions, SolveReport, col_certificates,
                          min_norm_solve, row_certificates, solve, update_cols,
                          update_rows)
from .opt_bounds import (BoundParams, default_gamma, iteration_budget,
                         lower_bound_log2, upper_bound)
from .pattern_index import (PatternIndex, StructuredInstance, build_instance,
                            detect_groups, refine)
from .sketch import (gaussian_sketch, keyed_generator, keyed_normals, sketch_dim,
                     sketched_design)
from .weighted_cost import (GroupedFactor, compress_factor, cost_dense, cost_grouped,
                            cost_grouped_cols)

__version__ = "0.1.0"

__all__ = [
    "BoundParams", "Factorization", "GenSpec",
    "GroupedFactor", "PatternIndex", "SolveOptions",
    "SolveReport", "StructuredInstance", "WEIGHT_STYLES",
    "build_instance", "col_certificates", "compress_factor",
    "cost_dense", "cost_grouped", "cost_grouped_cols", "default_gamma",
    "detect_groups", "gaussian_sketch", "generate", "generate_attention_mask",
    "generate_compressed", "generate_with_factors",
    "iteration_budget", "keyed_generator", "keyed_normals",
    "lower_bound_log2", "min_norm_solve", "refine", "row_certificates",
    "sketch_dim", "sketched_design", "solve", "update_cols", "update_rows",
    "upper_bound",
]

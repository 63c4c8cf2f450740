"""Weighted Frobenius objective: dense oracle and grouped fast path.

The objective is sum_ij W_ij^2 (U V^T - A)_ij^2.  The grouped evaluator
works on the group grid of a StructuredInstance: with both factors
constant on the refined groups, each (row group, column group) block of
the residual is one number counted size_g * size_h times, so the work
does not grow with n.  Every evaluator adds its per-row or per-group terms
with math.fsum, which rounds the sum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pattern_index import PatternIndex


@dataclass(eq=False)
class GroupedFactor:
    """A factor that is constant on the groups of a PatternIndex.

    rows[g] is the shared factor row of every member of group g;
    expand() broadcasts it back to full (n, k) shape.
    """

    index: PatternIndex
    rows: np.ndarray  # (G, k)

    @property
    def k(self) -> int:
        return int(self.rows.shape[1])

    def expand(self) -> np.ndarray:
        return self.rows[self.index.group_of]

    def check_groups(self, index: PatternIndex, side: str) -> None:
        """Raise ValueError unless this factor lives on the groups of index."""
        # Identity first: the solver's factors share the instance's label
        # arrays, so the sweep loop never compares n-wide labels.
        if self.index.group_of is not index.group_of and not np.array_equal(
                self.index.group_of, index.group_of):
            raise ValueError(f"grouped factor does not match the instance {side} groups")


def compress_factor(X: np.ndarray, index: PatternIndex) -> GroupedFactor:
    """Compress an (n, k) factor that is constant on the index groups."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != index.n:
        raise ValueError("factor shape does not match the partition")
    rows = np.ascontiguousarray(X[index.representatives])
    gf = GroupedFactor(index=index, rows=rows)
    if not np.array_equal(gf.expand(), X):
        raise ValueError("factor is not constant on the groups")
    return gf


def _row_residual_sq(V: np.ndarray, u_row: np.ndarray, w_row: np.ndarray,
                     wa_row: np.ndarray, counts=1.0) -> float:
    # Single audited kernel: sum_j counts_j (w * (V @ u) - (w * a))_j^2 for
    # one row.  counts are the column-group sizes on the grid, 1 on n columns.
    pred = V @ u_row
    d = w_row * pred - wa_row
    return float(np.dot(d * counts, d))


def cost_dense(A: np.ndarray, W: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """Exact weighted squared error, evaluated row by row over all n rows.

    This is the reference evaluator; use cost_grouped on structured
    instances when n is large.
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    U = np.ascontiguousarray(U, dtype=np.float64)
    V = np.ascontiguousarray(V, dtype=np.float64)
    if A.ndim != 2 or A.shape != W.shape:
        raise ValueError("A and W must have identical shapes")
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise ValueError("U and V must share the inner dimension")
    if U.shape[0] != A.shape[0] or V.shape[0] != A.shape[1]:
        raise ValueError("factor heights must match A")

    return math.fsum(_row_residual_sq(V, U[i], W[i], W[i] * A[i]) for i in range(A.shape[0]))


def cost_grouped(inst, grouped_u: GroupedFactor, V) -> float:
    """Weighted squared error of U = grouped_u.expand() against V.

    grouped_u must be constant on the refined row groups (its index must
    match inst.wa_rows).  A GroupedFactor V on inst.wa_cols is evaluated
    on the group grid: one residual row per refined row group over the Gc
    column groups, weighted by the column group sizes, in O(Gr * Gc * k).
    An (n, k) array V is evaluated exactly over all n columns, in
    O(Gr * n * k).  Each row term is multiplied by its row group size.
    """
    grouped_u.check_groups(inst.wa_rows, "row")
    if isinstance(V, GroupedFactor):
        V.check_groups(inst.wa_cols, "column")
        V, cols, counts = V.rows, slice(None), inst.wa_cols.sizes
    else:
        V = np.ascontiguousarray(V, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] != inst.n or V.shape[1] != grouped_u.k:
            raise ValueError("V shape does not conform to the instance and factor")
        cols, counts = inst.wa_cols.group_of, 1.0
    return math.fsum(
        float(size) * _row_residual_sq(V, u, w[cols], t[cols], counts)
        for size, u, w, t in zip(inst.wa_rows.sizes, grouped_u.rows,
                                 inst.refined_weights(), inst.targets))


def cost_grouped_cols(inst, grouped_v: GroupedFactor, U) -> float:
    """Column-side grouped evaluation, via the transposed instance."""
    return cost_grouped(inst.transposed(), grouped_v, U)

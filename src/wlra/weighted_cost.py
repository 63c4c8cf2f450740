"""Weighted Frobenius objective: dense oracle and grouped fast path.

The objective is sum_ij W_ij^2 (U V^T - A)_ij^2.  The grouped evaluator
works on the group grid of a StructuredInstance: with both factors
constant on the refined groups, each (row group, column group) block of
the residual is one number counted size_g * size_h times, so the work
does not grow with n.  Given an (n, k) array V instead, it first tests
whether V is constant on the column groups; if so it evaluates each
distinct column once on the grid, and otherwise it gathers all n columns.
Every evaluator forms its residual explicitly, a block of about 2^16
entries at a time, in one kernel; a row's term adds its blocks in column
order, and the row terms are added with math.fsum, which rounds their sum
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pattern_index import PatternIndex, RowSystem


@dataclass(eq=False)
class GroupedFactor:
    """A factor that is constant on the groups of a PatternIndex.

    rows[g] is the shared factor row of every member of group g;
    expand() broadcasts it back to full (n, k) shape.  Like a TiledMatrix
    it offers shape and row slicing, so the (n, k) factor can be written a
    row block at a time without ever being formed whole.
    """

    index: PatternIndex
    rows: np.ndarray  # (G, k)

    @property
    def k(self) -> int:
        return int(self.rows.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.index.n, self.k

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Rows of the expanded factor, a fresh C-ordered array."""
        return np.take(self.rows, self.index.group_of[rows], axis=0)

    def expand(self) -> np.ndarray:
        return np.take(self.rows, self.index.group_of, axis=0)

    def check_groups(self, index: PatternIndex, side: str) -> None:
        """Raise ValueError unless this factor lives on the groups of index."""
        # Identity first: the solver's factors share the instance's label
        # arrays, so the sweep loop never compares n-wide labels.
        if self.index.group_of is not index.group_of and not np.array_equal(
                self.index.group_of, index.group_of):
            raise ValueError(f"grouped factor does not match the instance {side} groups")


BLOCK_ENTRIES = 1 << 16  # residual entries one kernel call forms, at most


def _block_shape(rows: int, cols: int) -> tuple[int, int]:
    """(row count, column count) of the blocks that tile a rows x cols residual.

    A residual with few rows (rows^2 <= BLOCK_ENTRIES) is cut into column
    blocks that hold every row: a small grid is one block, and the n-wide
    cost gathers whole rows of the transposed row system's grids.  One
    with more rows is cut into row blocks as wide as fit, so cost_dense
    reads A and W in row order.  On singleton groups the grid is the
    n x n residual, so cost_dense, grid_cost and the n-wide cost_grouped
    all tile it alike.
    """
    if rows * rows <= BLOCK_ENTRIES:
        return rows, min(cols, max(1, BLOCK_ENTRIES // rows))
    cb = min(cols, BLOCK_ENTRIES)
    return min(rows, max(1, BLOCK_ENTRIES // cb)), cb


def _block_residual_sq(V_blk: np.ndarray, Ut: np.ndarray, w: np.ndarray,
                       wa: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Single audited kernel: the residual block w * (V_blk @ Ut) - wa, one
    # column per row of U, formed in out, a buffer of its shape; returns
    # each column's sum of squares.
    R = np.matmul(V_blk, Ut, out=out)
    R *= w
    R -= wa
    return np.einsum("ij,ij->j", R, R)


def _row_terms(V: np.ndarray, U: np.ndarray, block) -> np.ndarray:
    """Each row of U's squared residual against V, over the blocks of _block_shape.

    Walks row blocks in order and, within each, column blocks in order;
    block(rows, cols, w_buf, wa_buf) returns the weight and target blocks,
    each (columns x rows), and may form them in the buffers it is given.
    A row's term adds its blocks' sums in column order.
    """
    m, n = U.shape[0], V.shape[0]
    terms = np.zeros(m)
    if not (m and n):
        return terms  # an empty residual has no blocks
    rb, cb = _block_shape(m, n)
    bufs = np.empty((3, rb * cb))
    for r0 in range(0, m, rb):
        rows = slice(r0, min(m, r0 + rb))
        Ut = U[rows].T
        for c0 in range(0, n, cb):
            cols = slice(c0, min(n, c0 + cb))
            shape = (cols.stop - c0, rows.stop - r0)
            R, w_buf, wa_buf = bufs[:, :shape[0] * shape[1]].reshape(3, *shape)
            terms[rows] += _block_residual_sq(V[cols], Ut, *block(rows, cols, w_buf, wa_buf), R)
    return terms


def cost_dense(A: np.ndarray, W: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """Exact weighted squared error, evaluated in blocks over all n x n entries.

    This is the reference evaluator; use cost_grouped on structured
    instances when n is large.  A and W are read one row block at a time,
    in row order, so a memory-mapped file is read front to back.
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

    def block(rows, cols, w_buf, wa_buf):
        # One transposing pass over each of W and A; the kernel's passes
        # then run on contiguous buffers.
        np.copyto(w_buf, W[rows, cols].T)
        return w_buf, np.multiply(w_buf, A[rows, cols].T, out=wa_buf)

    return math.fsum(_row_terms(V, U, block).tolist())


def grid_cost(system: RowSystem, grouped_u: GroupedFactor, grouped_v: GroupedFactor) -> float:
    """Weighted squared error of grouped_u.expand() against grouped_v.expand().

    system is StructuredInstance.row_system(), whose columns carry sqrt of
    their group sizes; grouped_u must live on system.wa_rows and grouped_v
    on system.wa_cols.  One residual row per refined row group over the Gc
    column groups, in O(Gr * Gc * k); each row term is multiplied by its
    row group size.
    """
    grouped_u.check_groups(system.wa_rows, "row")
    grouped_v.check_groups(system.wa_cols, "column")
    weights, targets, parents = system.weights, system.targets, system.parents
    terms = _row_terms(grouped_v.rows, grouped_u.rows, lambda rows, cols, w_buf, wa_buf: (
        weights[parents[rows], cols].T, targets[rows, cols].T))
    return math.fsum((terms * system.wa_rows.sizes).tolist())


def cost_grouped(inst, grouped_u: GroupedFactor, V) -> float:
    """Weighted squared error of U = grouped_u.expand() against V.

    grouped_u must be constant on the refined row groups (its index must
    match inst.wa_rows).  A GroupedFactor V on inst.wa_cols is evaluated
    by grid_cost on inst.row_system().  So is an (n, k) array V whose
    every row equals the row of its column group's first member (the
    first members' rows are then the GroupedFactor's rows), in
    O(Gr * Gc * k); the test reads V about 2^16 entries at a time and
    stops at the first block that differs.  Any other V (a NaN never equals itself) is
    evaluated exactly over all n columns, in O(Gr * n * k), a column
    block at a time, on inst.transposed().row_system(): each block
    gathers whole rows of its grids by column group labels, and their
    columns carry sqrt of the row group sizes, so each row term already
    counts its group.
    """
    if isinstance(V, GroupedFactor):
        return grid_cost(inst.row_system(), grouped_u, V)
    grouped_u.check_groups(inst.wa_rows, "row")
    V = np.ascontiguousarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != inst.n or V.shape[1] != grouped_u.k:
        raise ValueError("V shape does not conform to the instance and factor")
    w_cols, wa_cols = inst.w_cols.group_of, inst.wa_cols.group_of
    firsts = inst.wa_cols.representatives
    step = max(1, BLOCK_ENTRIES // max(1, V.shape[1]))
    if all(np.array_equal(V[c0:c0 + step], V.take(firsts.take(wa_cols[c0:c0 + step]), axis=0))
           for c0 in range(0, inst.n, step)):
        return grid_cost(inst.row_system(), grouped_u,
                         GroupedFactor(index=inst.wa_cols, rows=V[firsts]))
    # Each column block gathers whole rows of the transposed row system's grids,
    # whose columns carry sqrt of the row group sizes.
    system = inst.transposed().row_system()
    weights, targets = system.weights, system.targets

    def block(rows, cols, w_buf, wa_buf):
        np.take(weights[:, rows], w_cols[cols], axis=0, out=w_buf, mode="clip")
        np.take(targets[:, rows], wa_cols[cols], axis=0, out=wa_buf, mode="clip")
        return w_buf, wa_buf

    return math.fsum(_row_terms(V, grouped_u.rows, block).tolist())


def cost_grouped_cols(inst, grouped_v: GroupedFactor, U) -> float:
    """Column-side grouped evaluation, via the transposed instance."""
    return cost_grouped(inst.transposed(), grouped_v, U)

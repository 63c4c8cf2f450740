"""Synthetic instances with planted pattern structure.

The weight matrix tiles an r x r grid over contiguous index bands, so it
has exactly r distinct rows and columns.  The target tiles an rp x rp
grid whose cells carry a planted low-rank product (plus optional
cell-level noise), and the rp bands refine the weight bands, so the
masked target has at most rp distinct rows and columns.  Collisions are
impossible for generic draws but are detected at grid level and resolved
by redrawing from a derived seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pattern_index import BlockDetector, PatternIndex, StructuredInstance
from .sketch import GEN_STREAM, MASK64, keyed_generator

WEIGHT_STYLES = ("block_random", "block_mask01", "attention_block")

_ATTEMPT_STRIDE = 0x9E3779B97F4A7C15
_MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a planted instance."""

    n: int
    r: int
    p: int
    k_true: int
    noise_sigma: float = 0.0
    weight_style: str = "block_random"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.p < 1:
            raise ValueError("n, r and p must be positive")
        if self.r * self.p > self.n:
            raise ValueError("r * p must not exceed n")
        if not (1 <= self.k_true <= self.n):
            raise ValueError("k_true must lie in [1, n]")
        if not (0 <= self.noise_sigma < math.inf):
            raise ValueError("noise_sigma must be finite and nonnegative")
        if self.weight_style not in WEIGHT_STYLES:
            raise ValueError(f"weight_style must be one of {WEIGHT_STYLES}")


def _band_partitions(n: int, r: int, p: int) -> tuple[PatternIndex, PatternIndex]:
    """The r weight bands of 0..n-1 and their r*p target sub-bands, as partitions.

    Bands are contiguous and near-equal, earlier ones larger; each weight
    band splits into p sub-bands by the same rule.  Bands are numbered in
    order, so each partition is canonical as built from its sizes: group_of
    repeats each id over its band, and a band's representative is its start.
    """
    def split(totals: np.ndarray, parts: int) -> np.ndarray:
        totals = totals[:, None]
        return (totals // parts + (np.arange(parts) < totals % parts)).ravel()

    def partition(sizes: np.ndarray) -> PatternIndex:
        starts = np.zeros_like(sizes)
        np.cumsum(sizes[:-1], out=starts[1:])
        return PatternIndex(group_of=np.repeat(np.arange(sizes.size, dtype=np.int64), sizes),
                            representatives=starts, sizes=sizes)

    wsizes = split(np.array([n], dtype=np.int64), r)
    return partition(wsizes), partition(split(wsizes, p))


def _weight_grid(spec: GenSpec, seed: int) -> np.ndarray:
    r = spec.r
    if spec.weight_style == "attention_block":
        return np.tril(np.ones((r, r)))
    g = keyed_generator(seed, GEN_STREAM)
    if spec.weight_style == "block_mask01":
        grid = g.integers(0, 2, size=(r, r)).astype(np.float64)
        np.fill_diagonal(grid, 1.0)  # keeps every band with a nonzero weight
        return grid
    return 0.5 + g.random((r, r))


def _target_grid(spec: GenSpec, seed: int):
    rp = spec.r * spec.p
    g = keyed_generator(seed, GEN_STREAM + 1)
    u_cells = g.standard_normal((rp, spec.k_true))
    v_cells = g.standard_normal((rp, spec.k_true))
    grid = u_cells @ v_cells.T
    if spec.noise_sigma > 0:
        grid = grid + spec.noise_sigma * g.standard_normal((rp, rp))
    return grid, u_cells, v_cells


def _all_distinct(M: np.ndarray) -> bool:
    """True if no two rows and no two columns of the C-ordered M are equal."""
    det = BlockDetector.of(M)
    return (det.row_partitions()[0].num_groups, det.col_partitions()[0].num_groups) == M.shape


def _grids_valid(spec: GenSpec, gw: np.ndarray, ga: np.ndarray) -> bool:
    if not _all_distinct(gw):
        return False
    cell_w = np.repeat(np.repeat(gw, spec.p, axis=0), spec.p, axis=1)
    return _all_distinct(cell_w * ga)


def _accepted_grids(spec: GenSpec):
    for attempt in range(_MAX_ATTEMPTS):
        seed = (spec.seed ^ (attempt * _ATTEMPT_STRIDE)) & MASK64
        gw = _weight_grid(spec, seed)
        # Huge noise can overflow a grid; its detection then raises ValueError.
        with np.errstate(over="ignore"):
            ga, u_cells, v_cells = _target_grid(spec, seed)
            if _grids_valid(spec, gw, ga):
                return gw, ga, u_cells, v_cells
    raise RuntimeError(f"instance generation failed after {_MAX_ATTEMPTS} attempts")


def generate_with_factors(spec: GenSpec):
    """Dense planted instance and factors (A, W, U, V), U and V tiled from the cells.

    With zero noise the factors reproduce the target exactly, so the
    instance has a known zero-cost rank-k_true solution.
    """
    gw, ga, u_cells, v_cells = _accepted_grids(spec)
    w, wa = _band_partitions(spec.n, spec.r, spec.p)
    wband, aband = w.group_of, wa.group_of
    return ga[aband][:, aband], gw[wband][:, wband], u_cells[aband], v_cells[aband]


def generate(spec: GenSpec):
    """Dense planted instance (A, W) whose detected (r, p) equal the request."""
    A, W, _, _ = generate_with_factors(spec)
    return A, W


@dataclass(frozen=True, eq=False)
class TiledMatrix:
    """grid[row_ids][:, col_ids], expanded a block of rows at a time.

    It offers shape, row slicing and row_blocks: M[lo:hi] is a fresh
    C-ordered array equal to those rows of the expanded matrix, and
    row_blocks(step) yields all its rows in order, expanding a run of equal
    row ids once however many blocks it fills.
    """

    grid: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.row_ids.shape[0], self.col_ids.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Rows of the expanded matrix, each expanded anew; row_blocks expands a band once."""
        return np.take(self.grid[self.row_ids[rows]], self.col_ids, axis=1)

    def row_blocks(self, step: int):
        """The rows of the expanded matrix in order, as <f8 C-ordered blocks of at most step rows.

        A run of equal row ids that fills a block (a planted band) is
        expanded and converted once, into one block of step rows: that same
        array is yielded for every block inside the run, and a leading
        slice of it for the run's tail.  From any other row a block of
        step rows is expanded as M[lo:lo + step] and may cross run edges,
        so a matrix without such runs is expanded as row slicing would.
        A yielded array may be yielded again: use it before the next.
        """
        ids, n = self.row_ids, self.shape[0]
        ends = np.append(np.flatnonzero(ids[1:] != ids[:-1]) + 1, n)  # one past each run
        lo = 0
        while lo < n:
            block = np.ascontiguousarray(self[lo:lo + step], dtype="<f8")
            # block stands for the rest of row lo's run when that fills it, else itself.
            rows = max(len(block), int(ends[np.searchsorted(ends, lo, side="right")]) - lo)
            for _ in range(rows // step):
                yield block
            if rows % step:
                yield block[:rows % step]
            del block  # freed before the next block is made
            lo += rows


def _planted(spec: GenSpec):
    """The accepted grids (gw, ga) and the weight and target band partitions of spec.

    Raises MemoryError if no array can hold the n-long band maps; numpy
    refuses a size past its limit with a ValueError, which a grid that
    overflows raises too.
    """
    gw, ga, _, _ = _accepted_grids(spec)
    try:
        return gw, ga, *_band_partitions(spec.n, spec.r, spec.p)
    except (ValueError, MemoryError) as e:
        raise MemoryError(f"n={spec.n} is too large for its band maps: {e}") from None


def _instance(spec: GenSpec, gw, ga, w: PatternIndex, wa: PatternIndex) -> StructuredInstance:
    parent = np.arange(spec.r * spec.p, dtype=np.int64) // spec.p
    return StructuredInstance(w_rows=w, w_cols=w, wa_rows=wa, wa_cols=wa,
                              weights=gw, targets=gw[np.ix_(parent, parent)] * ga)


def generate_tiled(spec: GenSpec) -> tuple[TiledMatrix, TiledMatrix, StructuredInstance]:
    """The planted (A, W) of generate(spec), expanded a row block at a time, and its instance.

    The rows of A and W equal generate(spec)'s entry for entry, but no
    n x n array is formed, so a writer can stream an instance of any size.
    The instance is generate_compressed(spec), from the same draw of the
    grids.
    """
    gw, ga, w, wa = _planted(spec)
    return (TiledMatrix(ga, wa.group_of, wa.group_of), TiledMatrix(gw, w.group_of, w.group_of),
            _instance(spec, gw, ga, w, wa))


def generate_compressed(spec: GenSpec) -> StructuredInstance:
    """The same planted instance straight from its grids, in O(n) memory.

    The accepted grids have distinct rows and columns, so this equals
    build_instance(*generate(spec)) bitwise: the same four partitions and
    the same two grids.  Each partition is built from its band sizes in
    O(n), with no sort.  Rows and columns share one band map, so they share
    one partition object.
    """
    return _instance(spec, *_planted(spec))


def generate_attention_mask(n: int, block: int) -> np.ndarray:
    """Block-lower-triangular 0/1 mask with n/block distinct rows and columns."""
    if block < 1 or n < 1:
        raise ValueError("n and block must be positive")
    if n % block != 0:
        raise ValueError("block must divide n")
    parts = n // block
    band = np.repeat(np.arange(parts), block)
    grid = np.tril(np.ones((parts, parts)))
    return grid[band][:, band]

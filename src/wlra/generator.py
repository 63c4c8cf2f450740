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

from .pattern_index import COLS, ROWS, PatternIndex, StructuredInstance, detect_groups
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


def _band_ids(n: int, parts: int) -> np.ndarray:
    """Contiguous near-equal bands: ids 0..parts-1, earlier bands larger."""
    sizes = np.full(parts, n // parts, dtype=np.int64)
    sizes[: n % parts] += 1
    return np.repeat(np.arange(parts, dtype=np.int64), sizes)


def _sub_band_ids(n: int, r: int, p: int) -> np.ndarray:
    """Split each of the r weight bands into p sub-bands: ids 0..r*p-1."""
    wband = _band_ids(n, r)
    sizes = np.bincount(wband, minlength=r)
    parts = [i * p + _band_ids(int(sizes[i]), p) for i in range(r)]
    return np.concatenate(parts)


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
    """True if no two rows and no two columns of M are equal."""
    return all(detect_groups(M, axis).num_groups == M.shape[i]
               for i, axis in enumerate((ROWS, COLS)))


def _grids_valid(spec: GenSpec, gw: np.ndarray, ga: np.ndarray) -> bool:
    if not _all_distinct(gw):
        return False
    if not (np.count_nonzero(gw, axis=1).all() and np.count_nonzero(gw, axis=0).all()):
        return False
    cell_w = np.repeat(np.repeat(gw, spec.p, axis=0), spec.p, axis=1)
    return _all_distinct(cell_w * ga)


def _accepted_grids(spec: GenSpec):
    for attempt in range(_MAX_ATTEMPTS):
        seed = (spec.seed ^ (attempt * _ATTEMPT_STRIDE)) & MASK64
        gw = _weight_grid(spec, seed)
        # Huge noise can overflow a grid; detect_groups then raises ValueError.
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
    wband = _band_ids(spec.n, spec.r)
    aband = _sub_band_ids(spec.n, spec.r, spec.p)
    return ga[aband][:, aband], gw[wband][:, wband], u_cells[aband], v_cells[aband]


def generate(spec: GenSpec):
    """Dense planted instance (A, W) whose detected (r, p) equal the request."""
    A, W, _, _ = generate_with_factors(spec)
    return A, W


@dataclass(frozen=True, eq=False)
class TiledMatrix:
    """grid[row_ids][:, col_ids], expanded a block of rows at a time.

    shape and row slicing are all it offers: M[lo:hi] is a fresh C-ordered
    array equal to those rows of the expanded matrix.
    """

    grid: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.row_ids.shape[0], self.col_ids.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.take(self.grid[self.row_ids[rows]], self.col_ids, axis=1)


def generate_tiled(spec: GenSpec) -> tuple[TiledMatrix, TiledMatrix]:
    """The planted (A, W) of generate(spec), as matrices expanded a row block at a time.

    Their rows equal generate(spec)'s entry for entry, but no n x n array
    is formed, so a writer can stream an instance of any size.
    """
    gw, ga, _, _ = _accepted_grids(spec)
    wband = _band_ids(spec.n, spec.r)
    aband = _sub_band_ids(spec.n, spec.r, spec.p)
    return TiledMatrix(ga, aband, aband), TiledMatrix(gw, wband, wband)


def generate_compressed(spec: GenSpec) -> StructuredInstance:
    """The same planted instance straight from its grids, in O(n) memory.

    The accepted grids have distinct rows and columns, so this equals
    build_instance(*generate(spec)) bitwise: the same four partitions and
    the same two grids.  Rows and columns share one band map, so they share
    one partition object.
    """
    gw, ga, _, _ = _accepted_grids(spec)
    w = PatternIndex.from_labels(_band_ids(spec.n, spec.r))
    wa = PatternIndex.from_labels(_sub_band_ids(spec.n, spec.r, spec.p))
    parent = np.arange(spec.r * spec.p, dtype=np.int64) // spec.p
    return StructuredInstance(w_rows=w, w_cols=w, wa_rows=wa, wa_cols=wa,
                              weights=gw, targets=gw[np.ix_(parent, parent)] * ga)


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

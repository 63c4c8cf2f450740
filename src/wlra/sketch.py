"""Seeded Gaussian sketching and sketched design assembly.

All randomness flows through a counter-based keyed generator (Philox) so
that identical (seed, shape) requests give bit-identical output on every
run and at any thread count.  Normals come from Box-Muller applied to the
raw counter stream.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

# Stream tags keep independent uses of the same seed from colliding.
SKETCH_STREAM = 0x5E7C
INIT_STREAM = 0x1217
GEN_STREAM = 0x6E9A
HASH_STREAM = 0x4A5B


def keyed_generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array([seed & MASK64, stream & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def keyed_normals(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` standard normals from the keyed counter stream via Box-Muller."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty(0)
    g = keyed_generator(seed, stream)
    half = (count + 1) // 2
    u1 = g.random(half)
    u2 = g.random(half)
    # 1 - u1 lies in (0, 1], so the log is finite.
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * np.pi) * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:count]


def sketch_dim(k: int, eps: float, sketch_constant: float = 4.0) -> int:
    """Sketch dimension t = ceil(c * k / eps), clamped to at least k + 1.

    eps must lie in (0, 0.5).  The constant is a tunable stand-in for the
    one hidden inside the O(k/eps) guarantee.
    """
    if not (0.0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 0.5)")
    if k < 1:
        raise ValueError("k must be positive")
    if sketch_constant <= 0:
        raise ValueError("sketch_constant must be positive")
    return max(k + 1, math.ceil(sketch_constant * k / eps))


def gaussian_sketch(seed: int, t: int, n: int) -> np.ndarray:
    """Reproducible t x n sketch with i.i.d. N(0, 1/t) entries."""
    if t < 1 or n < 1:
        raise ValueError("t and n must be positive")
    values = keyed_normals(seed, SKETCH_STREAM, t * n).reshape(t, n)
    values *= 1.0 / math.sqrt(t)
    return values


def sketched_design(Z: np.ndarray, w_row: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Assemble the k x t sketched design Z diag(w) S^T for a t x n sketch S.

    Computed as (Z with scaled columns) @ S.T in O(n k t).  One call per
    distinct weight pattern serves every row in its group.
    """
    Z = np.asarray(Z, dtype=np.float64)
    w_row = np.asarray(w_row, dtype=np.float64)
    if Z.ndim != 2 or w_row.ndim != 1 or Z.shape[1] != w_row.shape[0]:
        raise ValueError("Z must be k x n and w_row of length n")
    if S.shape[1] != w_row.shape[0]:
        raise ValueError("sketch width does not match n")
    return (Z * w_row) @ S.T

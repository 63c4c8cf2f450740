"""Detection, refinement and validation of repeated row/column structure.

A weight matrix whose rows (or columns) take only a handful of distinct
values can be summarized by a partition of the index set into groups of
entry-wise identical vectors.  Everything downstream (grouped cost
evaluation, per-group regressions) works off these partitions plus the
small grids of W and W*A values over the groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sketch import HASH_STREAM, keyed_generator

ROWS = "rows"
COLS = "cols"
_AXES = (ROWS, COLS)


@dataclass(frozen=True, eq=False)
class PatternIndex:
    """Partition of row (or column) indices into groups of identical vectors.

    Attributes
    ----------
    axis : str
        "rows" or "cols"; which direction of the keyed matrix was grouped.
    group_of : ndarray of int64, shape (n,)
        Group id for each index.  Ids are assigned by order of first
        appearance, so they are deterministic.
    representatives : ndarray of int64, shape (G,)
        Smallest member index of each group.
    sizes : ndarray of int64, shape (G,)
        Group cardinalities; they sum to n.
    """

    axis: str
    group_of: np.ndarray
    representatives: np.ndarray
    sizes: np.ndarray

    @property
    def n(self) -> int:
        return int(self.group_of.shape[0])

    @property
    def num_groups(self) -> int:
        return int(self.representatives.shape[0])

    def validate(self) -> None:
        """Raise ValueError if the partition invariants are violated."""
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        g = self.num_groups
        if int(self.sizes.sum()) != self.n:
            raise ValueError("group sizes do not sum to n")
        if np.any(self.sizes <= 0):
            raise ValueError("empty group")
        if self.group_of.min(initial=0) < 0 or self.group_of.max(initial=-1) >= g:
            raise ValueError("group id out of range")
        ids, firsts = np.unique(self.group_of, return_index=True)
        if ids.shape[0] != g:
            raise ValueError("group with no members")
        if not np.array_equal(firsts, self.representatives):
            raise ValueError("representatives are not the smallest members")

    def refines(self, outer: "PatternIndex") -> bool:
        """True if every group of self lies inside a single group of outer."""
        if outer.n != self.n:
            return False
        expected = outer.group_of[self.representatives][self.group_of]
        return bool(np.array_equal(expected, outer.group_of))


def _as_vectors(M: np.ndarray, axis: str) -> np.ndarray:
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return M if axis == ROWS else M.T


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix contains non-finite entries")


def _index_from_labels(labels: np.ndarray, axis: str) -> PatternIndex:
    """Canonicalize arbitrary integer labels into a first-appearance PatternIndex."""
    labels = np.asarray(labels, dtype=np.int64)
    _, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    group_of = rank[inverse.ravel()]
    representatives = first_idx[order].astype(np.int64)
    sizes = np.bincount(group_of, minlength=order.shape[0]).astype(np.int64)
    return PatternIndex(axis=axis, group_of=group_of,
                        representatives=representatives, sizes=sizes)


def detect_groups(M: np.ndarray, axis: str = ROWS) -> PatternIndex:
    """Group the rows (or columns) of M into classes of entry-wise equal vectors.

    -0.0 and +0.0 count as equal.  Raises ValueError on a non-finite entry.

    Parameters
    ----------
    M : (n, m) array
    axis : "rows" or "cols"

    Returns
    -------
    PatternIndex with groups ordered by first appearance.
    """
    vecs = _as_vectors(M, axis)
    if vecs.shape[0] == 0:
        raise ValueError("cannot group an empty index set")
    return _index_from_labels(_equality_labels(vecs), axis)


# Grouping: hash every vector in one pass, check every vector
# against the first vector with its hash, and sort exactly only the vectors
# that stand for themselves (one per hash value, plus any that failed the
# check).  The result is the exact equality partition whatever the hash
# returns; the hash only decides how much work the exact sort gets.

_BLOCK_BYTES = 1 << 18  # a quarter MiB of rows at a time stays in cache
_MIX_SHIFT = np.uint64(29)


def _equality_labels(vecs: np.ndarray) -> np.ndarray:
    """Labels of the entry-wise equality classes of the rows of vecs.

    Raises ValueError if vecs has a non-finite entry.
    """
    n = vecs.shape[0]
    mat, across = _in_memory_order(vecs)
    _, first, candidate = np.unique(_vector_hashes(mat, across),
                                    return_index=True, return_inverse=True)
    ref = first[candidate.ravel()]
    if first.shape[0] < n:
        mismatch = ~_matches_ref(mat, across, ref)
        ref[mismatch] = np.flatnonzero(mismatch)
    own = np.flatnonzero(ref == np.arange(n))
    labels = np.empty(n, dtype=np.int64)
    labels[own] = _sorted_labels(vecs, own)
    return labels[ref]


def _in_memory_order(vecs: np.ndarray) -> tuple[np.ndarray, bool]:
    """A C-ordered matrix holding vecs, and whether the vectors are its columns."""
    if vecs.flags.c_contiguous:
        return vecs, False
    if vecs.T.flags.c_contiguous:
        return vecs.T, True
    return np.ascontiguousarray(vecs), False


def _blocks(mat: np.ndarray):
    """(lo, hi) bounds of consecutive row blocks of about _BLOCK_BYTES each."""
    rows = max(1, _BLOCK_BYTES // (mat.itemsize * max(1, mat.shape[1])))
    for lo in range(0, mat.shape[0], rows):
        yield lo, min(lo + rows, mat.shape[0])


def _hash_key(length: int) -> np.ndarray:
    # Odd keys, so a difference in any single entry always changes the hash.
    return keyed_generator(0, HASH_STREAM).bit_generator.random_raw(length) | np.uint64(1)


def _vector_hashes(mat: np.ndarray, across: bool) -> np.ndarray:
    """Keyed hash sum_j mix(bits_j) * key_j mod 2^64 of each vector.

    bits_j are the IEEE bits of entry j with -0.0 folded into +0.0.  Small
    integers and 0/1 values have 52 trailing zero bits; the shift-xor mix
    moves high bits down, so the products keep most of their 64 bits.
    Integer sums wrap, so equal vectors hash equal in any summation order.
    Raises ValueError on a non-finite entry, checked while the block is hot.
    """
    key = _hash_key(mat.shape[0] if across else mat.shape[1])
    hashes = np.zeros(mat.shape[1] if across else mat.shape[0], dtype=np.uint64)
    for lo, hi in _blocks(mat):
        block = mat[lo:hi] + 0.0  # folds -0.0 into +0.0
        _check_finite(block)
        bits = block.view(np.uint64)
        bits ^= bits >> _MIX_SHIFT
        if across:
            hashes += key[lo:hi] @ bits
        else:
            hashes[lo:hi] = bits @ key
    return hashes


def _matches_ref(mat: np.ndarray, across: bool, ref: np.ndarray) -> np.ndarray:
    """True where vector i equals vector ref[i] entry-wise, read in memory order."""
    if across:
        ok = np.ones(mat.shape[1], dtype=bool)
        for lo, hi in _blocks(mat):
            block = mat[lo:hi]
            ok &= (block == block.take(ref, axis=1)).all(axis=0)
        return ok
    ok = np.empty(mat.shape[0], dtype=bool)
    for lo, hi in _blocks(mat):
        ok[lo:hi] = (mat[lo:hi] == mat.take(ref[lo:hi], axis=0)).all(axis=1)
    return ok


def _sorted_labels(vecs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact equality classes of the vectors vecs[idx], by byte-wise sorting.

    Sorts (class so far, next coordinates) keys over a prefix of the
    coordinates that doubles each round, and drops a vector once its class
    is a singleton, so distinct vectors are usually told apart after a few
    coordinates and no coordinate is read twice.
    """
    m = vecs.shape[1]
    labels = np.zeros(idx.shape[0], dtype=np.int64)
    active = np.arange(idx.shape[0])
    next_label, lo, width = 1, 0, 1
    while active.shape[0] > 1 and lo < m:
        hi = min(m, lo + width)
        keys = np.empty((active.shape[0], 1 + hi - lo), dtype=np.uint64)
        keys[:, 0] = labels[active]
        keys[:, 1:] = (vecs[idx[active], lo:hi] + 0.0).view(np.uint64)  # folds -0.0
        byte_rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, inverse, counts = np.unique(byte_rows, return_inverse=True, return_counts=True)
        inverse = inverse.ravel()
        labels[active] = next_label + inverse
        next_label += counts.shape[0]
        active = active[counts[inverse] > 1]
        lo, width = hi, 2 * width
    return labels


def refine(outer: PatternIndex, inner_key: np.ndarray) -> PatternIndex:
    """Intersect an existing partition with the equality classes of a key matrix.

    The result always refines `outer`: two indices share a group iff they
    shared one in `outer` and their key vectors are equal.  Used to split
    the weight-pattern groups by the masked-target pattern.
    """
    inner = detect_groups(inner_key, outer.axis)
    if inner.n != outer.n:
        raise ValueError(f"partition length {outer.n} does not match key length {inner.n}")
    combo = outer.group_of * np.int64(inner.num_groups) + inner.group_of
    return _index_from_labels(combo, outer.axis)


def _flip(idx: PatternIndex) -> PatternIndex:
    return replace(idx, axis=COLS if idx.axis == ROWS else ROWS)


@dataclass(eq=False)
class StructuredInstance:
    """A weighted approximation problem (A, W) reduced to its group grid.

    W is constant on every (weight-row group, weight-column group) block
    and W*A on every (refined row group, refined column group) block, so
    four partitions and two small grids determine the problem exactly:
    `weights` holds one W value per weight block and `targets` one W*A
    value per refined block.  Nothing is n x n or n wide except the
    partitions.  r is the weight-pattern count, p the per-group multiplier
    (refined groups per weight group, rounded up).
    """

    w_rows: PatternIndex
    w_cols: PatternIndex
    wa_rows: PatternIndex
    wa_cols: PatternIndex
    weights: np.ndarray  # (w_rows.num_groups, w_cols.num_groups)
    targets: np.ndarray  # (wa_rows.num_groups, wa_cols.num_groups)
    r: int
    p: int

    @property
    def n(self) -> int:
        return self.w_rows.n

    def row_parents(self) -> np.ndarray:
        """Weight-row group id of each refined row group."""
        return self.w_rows.group_of[self.wa_rows.representatives]

    def col_parents(self) -> np.ndarray:
        """Weight-column group id of each refined column group."""
        return self.w_cols.group_of[self.wa_cols.representatives]

    def refined_weights(self) -> np.ndarray:
        """W on the refined grid, shape (wa_rows.num_groups, wa_cols.num_groups)."""
        return self.weights[np.ix_(self.row_parents(), self.col_parents())]

    def transposed(self) -> "StructuredInstance":
        """The same problem with rows and columns exchanged (views, no copies)."""
        return StructuredInstance(
            w_rows=_flip(self.w_cols), w_cols=_flip(self.w_rows),
            wa_rows=_flip(self.wa_cols), wa_cols=_flip(self.wa_rows),
            weights=self.weights.T, targets=self.targets.T, r=self.r, p=self.p)

    def validate(self) -> None:
        n = self.n
        for idx in (self.w_rows, self.w_cols, self.wa_rows, self.wa_cols):
            if idx.n != n:
                raise ValueError("pattern index length does not match n")
            idx.validate()
        if self.weights.shape != (self.w_rows.num_groups, self.w_cols.num_groups):
            raise ValueError("weight grid shape does not match the weight groups")
        if self.targets.shape != (self.wa_rows.num_groups, self.wa_cols.num_groups):
            raise ValueError("target grid shape does not match the refined groups")
        if not self.wa_rows.refines(self.w_rows):
            raise ValueError("masked row groups do not refine weight row groups")
        if not self.wa_cols.refines(self.w_cols):
            raise ValueError("masked column groups do not refine weight column groups")
        cap = self.r * self.p
        if self.wa_rows.num_groups > cap or self.wa_cols.num_groups > cap:
            raise ValueError("refined group count exceeds r*p")


def build_instance(A: np.ndarray, W: np.ndarray) -> StructuredInstance:
    """Detect the full group structure of a weighted instance and take its grids.

    Runs row and column grouping on W, refines each by the masked target
    W*A, reads one W value per weight block and one W*A value per refined
    block, and records r = max of the weight group counts and
    p = ceil(max refined count / r).
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if W.shape != A.shape:
        raise ValueError("W must match the shape of A")
    WA = W * A
    w_rows = detect_groups(W, ROWS)
    w_cols = detect_groups(W, COLS)
    wa_rows = refine(w_rows, WA)
    wa_cols = refine(w_cols, WA)
    r = max(w_rows.num_groups, w_cols.num_groups)
    p = max(1, math.ceil(max(wa_rows.num_groups, wa_cols.num_groups) / r))
    inst = StructuredInstance(
        w_rows=w_rows, w_cols=w_cols, wa_rows=wa_rows, wa_cols=wa_cols,
        weights=W[np.ix_(w_rows.representatives, w_cols.representatives)],
        targets=WA[np.ix_(wa_rows.representatives, wa_cols.representatives)],
        r=r, p=p)
    inst.validate()
    return inst

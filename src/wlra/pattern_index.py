"""Detection, refinement and validation of repeated row/column structure.

A weight matrix whose rows (or columns) take only a handful of distinct
values can be summarized by a partition of the index set into groups of
entry-wise identical vectors.  Everything downstream (grouped cost
evaluation, per-group regressions) works off these partitions plus the
small grids of W and W*A values over the groups.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sketch import HASH_STREAM, keyed_generator

ROWS = "rows"
COLS = "cols"
_AXES = (ROWS, COLS)


@dataclass(frozen=True, eq=False)
class PatternIndex:
    """Partition of row (or column) indices into groups of identical vectors.

    A partition does not record which direction it groups: the same object
    serves as the row partition of an instance and the column partition of
    its transpose.

    Attributes
    ----------
    group_of : ndarray of int64, shape (n,)
        Group id for each index.  Ids are assigned by order of first
        appearance, so they are deterministic.
    representatives : ndarray of int64, shape (G,)
        Smallest member index of each group.
    sizes : ndarray of int64, shape (G,)
        Group cardinalities; they sum to n.
    """

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

    @classmethod
    def from_labels(cls, labels: np.ndarray) -> "PatternIndex":
        """The canonical partition whose groups are the classes of equal labels.

        Groups are numbered by first appearance, whatever the label values.
        """
        labels = np.asarray(labels, dtype=np.int64)
        _, first_idx, inverse = np.unique(labels, return_index=True, return_inverse=True)
        order = np.argsort(first_idx, kind="stable")
        rank = np.empty(order.shape[0], dtype=np.int64)
        rank[order] = np.arange(order.shape[0], dtype=np.int64)
        group_of = rank[inverse.ravel()]
        representatives = first_idx[order].astype(np.int64)
        sizes = np.bincount(group_of, minlength=order.shape[0]).astype(np.int64)
        return cls(group_of=group_of, representatives=representatives, sizes=sizes)

    def refines(self, outer: "PatternIndex") -> bool:
        """True if every group of self lies inside a single group of outer."""
        if outer.n != self.n:
            return False
        expected = outer.group_of[self.representatives][self.group_of]
        return bool(np.array_equal(expected, outer.group_of))


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix contains non-finite entries")


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
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    (labels,) = _equality_labels(M, None, (axis,))
    return PatternIndex.from_labels(labels)


# Grouping: one blocked pass over the rows of W (and, for build_instance,
# of A, forming W*A a block at a time) hashes every row and column of each
# matrix; a second pass checks every vector against the first vector with
# its hash; then only the vectors that stand for themselves (one per hash
# value, plus any that failed the check) are sorted exactly.  The result is
# the exact equality partition whatever the hash returns; the hash only
# decides how much work the exact sort gets.  A matrix is a tuple of
# factors, (W,) or (W, A), whose entry-wise product it is.

_BLOCK_BYTES = 1 << 18  # a quarter MiB of rows at a time stays in cache
_MIX_SHIFT = np.uint64(29)


def _equality_labels(W: np.ndarray, A: np.ndarray | None, axes) -> list[np.ndarray]:
    """Labels of the entry-wise equality classes of the vectors of W and W*A.

    W*A is grouped only if A is given.  Returns one label array per
    (matrix, axis) pair: W along each of axes, then W*A along each.
    Raises ValueError on an empty index set or a non-finite entry of W or
    W*A.
    """
    mats, flipped = _in_memory_order(W, A)
    across = [(axis == COLS) != flipped for axis in axes]
    if any(mats[0][0].shape[1 if a else 0] == 0 for a in across):
        raise ValueError("cannot group an empty index set")
    refs = [[_first_with_hash(h) for h in per_mat] for per_mat in _hash_pass(mats, across)]
    labels = []
    for factors, per_ref, per_ok in zip(mats, refs, _check_pass(mats, across, refs)):
        for a, ref, ok in zip(across, per_ref, per_ok):
            if ok is not None:
                ref[~ok] = np.flatnonzero(~ok)
            own = np.flatnonzero(ref == np.arange(ref.shape[0]))
            vec_labels = np.empty(ref.shape[0], dtype=np.int64)
            vec_labels[own] = _sorted_labels(tuple(f.T for f in factors) if a else factors, own)
            labels.append(vec_labels[ref])
    return labels


def _in_memory_order(W: np.ndarray, A: np.ndarray | None):
    """The matrices [(W,)] or [(W,), (W, A)] in C order, and whether they are transposed.

    Fortran-ordered inputs (what generate() returns) are read as their
    C-ordered transposes, so their vectors swap axes; any other layout is
    copied once into C order.
    """
    given = (W,) if A is None else (W, A)
    flipped = False
    if not all(m.flags.c_contiguous for m in given):
        flipped = all(m.T.flags.c_contiguous for m in given)
        given = tuple(m.T if flipped else np.ascontiguousarray(m) for m in given)
    return ([given] if A is None else [given[:1], given]), flipped


def _block_rows(mat: np.ndarray) -> int:
    """Rows per block, so a block of mat takes at most about _BLOCK_BYTES."""
    return max(1, min(mat.shape[0], _BLOCK_BYTES // (mat.itemsize * max(1, mat.shape[1]))))


def _buffer(mat: np.ndarray, dtype=np.float64) -> np.ndarray:
    # A block-sized array that every block reuses: a fresh array per block
    # costs page faults that take longer than the arithmetic on it.
    return np.empty((_block_rows(mat), mat.shape[1]), dtype=dtype)


def _product(factors: tuple, index, out: np.ndarray | None = None) -> np.ndarray:
    """The entries at index of the entry-wise product of factors.

    Formed in out if given; a single factor's entries are returned as they
    are (a view for a slice index).
    """
    block = factors[0][index]
    for f in factors[1:]:
        block = np.multiply(block, f[index], out=out)
    return block


def _gathered_rows(factors: tuple, rows: np.ndarray, out: np.ndarray,
                   spare: np.ndarray) -> np.ndarray:
    """Rows `rows` of the entry-wise product of factors, formed in out."""
    # mode="clip" lets take write straight into out (the indices are valid)
    np.take(factors[0], rows, axis=0, out=out, mode="clip")
    for f in factors[1:]:
        out *= np.take(f, rows, axis=0, out=spare, mode="clip")
    return out


def _row_blocks(mats: list):
    """(lo, hi, blocks): rows lo:hi of each matrix, products formed per block."""
    n_rows, step = mats[0][0].shape[0], _block_rows(mats[0][0])
    bufs = [_buffer(factors[0]) if len(factors) > 1 else None for factors in mats]
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        yield lo, hi, [_product(factors, slice(lo, hi), None if buf is None else buf[:hi - lo])
                       for factors, buf in zip(mats, bufs)]


@functools.lru_cache(maxsize=8)
def _hash_key(length: int) -> np.ndarray:
    # Odd keys, so a difference in any single entry always changes the hash.
    # The stream is sequential: a shorter key is a prefix of a longer one.
    # Cached (drawing it costs more than hashing a small grid), so read-only.
    key = keyed_generator(0, HASH_STREAM).bit_generator.random_raw(length) | np.uint64(1)
    key.flags.writeable = False
    return key


def _hash_pass(mats: list, across: list) -> list[list[np.ndarray]]:
    """Pass 1: keyed hash sum_j mix(bits_j) * key_j mod 2^64 of every vector.

    Returns, per matrix, one hash array per axis: the C-ordered rows
    (bits @ key) or, where across, the columns (key[lo:hi] @ bits summed
    over row blocks).  bits_j are the IEEE bits of entry j with -0.0
    folded into +0.0, mixed once per block for both axes.  Small integers
    and 0/1 values have 52 trailing zero bits; the shift-xor mix moves
    high bits down, so the products keep most of their 64 bits.  Integer
    sums wrap, so equal vectors hash equal in any summation order.
    Raises ValueError on a non-finite entry, checked while the block is hot.
    """
    n_rows, n_cols = mats[0][0].shape
    key = _hash_key(max(n_rows, n_cols))
    hashes = [[np.zeros(n_cols if a else n_rows, dtype=np.uint64) for a in across]
              for _ in mats]
    folded, shifted = _buffer(mats[0][0]), _buffer(mats[0][0], np.uint64)
    for lo, hi, blocks in _row_blocks(mats):
        _check_finite(blocks[-1])  # W*A is non-finite wherever W is
        for block, per_mat in zip(blocks, hashes):
            bits = np.add(block, 0.0, out=folded[:hi - lo]).view(np.uint64)  # folds -0.0
            bits ^= np.right_shift(bits, _MIX_SHIFT, out=shifted[:hi - lo])
            for a, out in zip(across, per_mat):
                if a:
                    out += key[lo:hi] @ bits
                else:
                    out[lo:hi] = bits @ key[:n_cols]
    return hashes


def _first_with_hash(hashes: np.ndarray) -> np.ndarray:
    """Index of the first vector with each vector's hash."""
    _, first, candidate = np.unique(hashes, return_index=True, return_inverse=True)
    return first[candidate.ravel()]


def _check_pass(mats: list, across: list, refs: list) -> list[list]:
    """Pass 2: True where vector i equals vector ref[i] entry-wise.

    Per matrix, one result per axis; None where every vector is its own
    reference, and no pass at all if that holds everywhere.  Products are
    formed again block by block; a row is compared with the product row of
    its reference, a column with its reference in the same block.
    """
    ok = [[np.ones(ref.shape[0], dtype=bool) if np.any(ref != np.arange(ref.shape[0])) else None
           for ref in per_ref] for per_ref in refs]
    if all(good is None for per_ok in ok for good in per_ok):
        return ok
    gathered, spare = _buffer(mats[0][0]), _buffer(mats[0][0])
    for lo, hi, blocks in _row_blocks(mats):
        for factors, block, per_ref, per_ok in zip(mats, blocks, refs, ok):
            for a, ref, good in zip(across, per_ref, per_ok):
                if good is None:
                    continue
                if a:
                    other = np.take(block, ref, axis=1, out=gathered[:hi - lo], mode="clip")
                    good &= (block == other).all(axis=0)
                else:
                    other = _gathered_rows(factors, ref[lo:hi], gathered[:hi - lo], spare[:hi - lo])
                    good[lo:hi] = (block == other).all(axis=1)
    return ok


def _sorted_labels(vecs: tuple, idx: np.ndarray) -> np.ndarray:
    """Exact equality classes of the vectors idx of the product of vecs, by sorting.

    vecs are factors whose rows are the vectors.  Sorts (class so far,
    next coordinates) keys over a prefix of the coordinates that doubles
    each round, and drops a vector once its class is a singleton, so
    distinct vectors are usually told apart after a few coordinates and no
    coordinate is read twice.
    """
    m = vecs[0].shape[1]
    labels = np.zeros(idx.shape[0], dtype=np.int64)
    active = np.arange(idx.shape[0])
    next_label, lo, width = 1, 0, 1
    while active.shape[0] > 1 and lo < m:
        hi = min(m, lo + width)
        keys = np.empty((active.shape[0], 1 + hi - lo), dtype=np.uint64)
        keys[:, 0] = labels[active]
        coords = _product(vecs, (idx[active], slice(lo, hi))) + 0.0  # folds -0.0
        keys[:, 1:] = coords.view(np.uint64)
        byte_rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, inverse, counts = np.unique(byte_rows, return_inverse=True, return_counts=True)
        inverse = inverse.ravel()
        labels[active] = next_label + inverse
        next_label += counts.shape[0]
        active = active[counts[inverse] > 1]
        lo, width = hi, 2 * width
    return labels


def _refined(outer: PatternIndex, inner: PatternIndex) -> PatternIndex:
    """The intersection of two partitions of the same index set."""
    combo = outer.group_of * np.int64(inner.num_groups) + inner.group_of
    return PatternIndex.from_labels(combo)


def refine(outer: PatternIndex, inner_key: np.ndarray, axis: str = ROWS) -> PatternIndex:
    """Intersect a partition of the rows (or columns) with the classes of a key matrix.

    outer partitions the index set that axis names in inner_key.  The
    result always refines `outer`: two indices share a group iff they
    shared one in `outer` and their key vectors are equal.  Used to split
    the weight-pattern groups by the masked-target pattern.
    """
    inner = detect_groups(inner_key, axis)
    if inner.n != outer.n:
        raise ValueError(f"partition length {outer.n} does not match key length {inner.n}")
    return _refined(outer, inner)


@dataclass(eq=False)
class StructuredInstance:
    """A weighted approximation problem (A, W) reduced to its group grid.

    W is constant on every (weight-row group, weight-column group) block
    and W*A on every (refined row group, refined column group) block, so
    four partitions and two small grids determine the problem exactly:
    `weights` holds one W value per weight block and `targets` one W*A
    value per refined block.  Nothing is n x n or n wide except the
    partitions; r and p are derived from their group counts.
    """

    w_rows: PatternIndex
    w_cols: PatternIndex
    wa_rows: PatternIndex
    wa_cols: PatternIndex
    weights: np.ndarray  # (w_rows.num_groups, w_cols.num_groups)
    targets: np.ndarray  # (wa_rows.num_groups, wa_cols.num_groups)

    @property
    def n(self) -> int:
        return self.w_rows.n

    @property
    def r(self) -> int:
        """The weight-pattern count: the larger of the weight group counts."""
        return max(self.w_rows.num_groups, self.w_cols.num_groups)

    @property
    def p(self) -> int:
        """Refined groups per weight pattern, rounded up, so r * p bounds both refined counts."""
        return max(1, math.ceil(max(self.wa_rows.num_groups, self.wa_cols.num_groups) / self.r))

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
        """The same problem with rows and columns exchanged: the same partitions, grid views."""
        return StructuredInstance(
            w_rows=self.w_cols, w_cols=self.w_rows, wa_rows=self.wa_cols, wa_cols=self.wa_rows,
            weights=self.weights.T, targets=self.targets.T)

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


def build_instance(A: np.ndarray, W: np.ndarray) -> StructuredInstance:
    """Detect the full group structure of a weighted instance and take its grids.

    Groups the rows and columns of W and of the masked target W*A in one
    pass over (A, W), forming W*A a row block at a time, refines each W
    partition by the W*A one, and reads one W value per weight block and
    one W*A value per refined block.
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if W.shape != A.shape:
        raise ValueError("W must match the shape of A")
    labels = _equality_labels(W, A, (ROWS, COLS))  # W rows, W cols, W*A rows, W*A cols
    w_rows, w_cols = PatternIndex.from_labels(labels[0]), PatternIndex.from_labels(labels[1])
    wa_rows = _refined(w_rows, PatternIndex.from_labels(labels[2]))
    wa_cols = _refined(w_cols, PatternIndex.from_labels(labels[3]))
    cells = np.ix_(wa_rows.representatives, wa_cols.representatives)
    targets = W[cells]
    targets *= A[cells]
    inst = StructuredInstance(
        w_rows=w_rows, w_cols=w_cols, wa_rows=wa_rows, wa_cols=wa_cols,
        weights=W[np.ix_(w_rows.representatives, w_cols.representatives)],
        targets=targets)
    inst.validate()
    return inst

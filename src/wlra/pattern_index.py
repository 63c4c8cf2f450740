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


def _check_finite(values: np.ndarray, scratch: np.ndarray) -> None:
    if not np.isfinite(values, out=scratch).all():
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
    (M,), flipped = _in_memory_order(M)
    rows = (axis == ROWS) != flipped
    det = BlockDetector(*M.shape, masked=False, rows=rows, cols=not rows)
    for lo in range(0, M.shape[0], det.block_rows):
        block = M[lo:lo + det.block_rows]
        det.feed(block.shape[0], lambda out: block)
    return (det.row_partitions() if rows else det.col_partitions())[0]


def _in_memory_order(*mats: np.ndarray):
    """mats in C order, and whether they are transposed.

    Fortran-ordered inputs (what generate() returns) are read as their
    C-ordered transposes, so their rows and columns swap; any other layout
    is copied once into C order.
    """
    flipped = False
    if not all(m.flags.c_contiguous for m in mats):
        flipped = all(m.T.flags.c_contiguous for m in mats)
        mats = tuple(m.T if flipped else np.ascontiguousarray(m) for m in mats)
    return mats, flipped


# Grouping: BlockDetector takes the row blocks of W (and of W*A) in order,
# once each, and keeps the classes of equal rows and of equal columns of
# each matrix seen so far.
# - Rows: a row's keyed hash finds the first class with that hash, and the
#   row is compared entry-wise with the first row of that class, which is
#   stored.  A row that differs (a collision) walks the chain of classes
#   with its hash, and starts a class if none matches.  At the end the
#   stored rows are sorted exactly, so classes of equal rows merge even if
#   the hash kept them apart.
# - Columns: no hash.  Each block compares every column's slice with the
#   slice of its class's first column; only the columns that differ leave
#   their class, split by an exact sort on (class, slice).  Two columns
#   share a class only if they are equal in every block.
# The result is the exact equality partition whatever the hash returns; the
# hash only decides how many comparisons a row takes.  The detector holds
# two block buffers, one stored row per row class and O(n) labels.

_BLOCK_BYTES = 1 << 18  # a quarter MiB of rows at a time stays in cache
_PARENT_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd: spreads parent ids over the hash
_LOW, _HIGH = (0, 1) if np.little_endian else (1, 0)  # 32-bit halves of a float64


def _block_rows(n_rows: int, n_cols: int) -> int:
    """Rows per block, so a block of float64 takes at most about _BLOCK_BYTES."""
    return max(1, min(n_rows, _BLOCK_BYTES // (8 * max(1, n_cols))))


@functools.lru_cache(maxsize=8)
def _hash_key(length: int) -> np.ndarray:
    # Odd keys, so a difference in any single entry always changes the hash.
    # The stream is sequential: a shorter key is a prefix of a longer one.
    # Cached (drawing it costs more than hashing a small grid), so read-only.
    key = keyed_generator(0, HASH_STREAM).bit_generator.random_raw(length) | np.uint64(1)
    key.flags.writeable = False
    return key


def _row_hashes(block: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Keyed hash sum_j mix(bits_j) * key_j mod 2^64 of every row of block.

    bits_j are the IEEE bits of entry j with -0.0 folded into +0.0, formed
    in scratch.  The mix x ^ (x >> 32) xors each entry's high half into its
    low half in place: small integers and 0/1 values have 52 trailing zero
    bits, and moving the high bits down keeps most of the products' 64 bits.
    Integer sums wrap, so equal rows hash equal.
    """
    bits = np.add(block, 0.0, out=scratch)  # folds -0.0
    halves = bits.view(np.uint32).reshape(*bits.shape, 2)
    np.bitwise_xor(halves[..., _LOW], halves[..., _HIGH], out=halves[..., _LOW])
    return bits.view(np.uint64) @ _hash_key(bits.shape[1])


class _RowClasses:
    """Classes of equal rows of one matrix, fed a row block at a time.

    Each class stores its first row.  Rows may come with their parents,
    their classes in a coarser partition; two rows then share a class only
    if their parents are equal too.
    """

    def __init__(self, n_rows: int, n_cols: int):
        self.labels = np.empty(n_rows, dtype=np.int64)
        self.rows = np.empty((min(n_rows, 8), n_cols))
        self.parents = np.empty(self.rows.shape[0], dtype=np.int64)
        self.count = 0
        self._first: dict[int, int] = {}          # hash -> the first class with it
        self._later: dict[int, list[int]] = {}    # hash -> the classes after the first
        self._pending = None  # (hashes, classes) the last block started, not yet in _first:
        #                       a matrix of one block never builds the dict

    def _add(self, block: np.ndarray, rows: np.ndarray, parents: np.ndarray | None) -> np.ndarray:
        """Ids of new classes whose first rows are block[rows]."""
        lo, hi = self.count, self.count + rows.shape[0]
        if hi > self.rows.shape[0]:  # grow by doubling
            grown = np.empty((max(hi, 2 * self.rows.shape[0]), self.rows.shape[1]))
            grown[:lo] = self.rows[:lo]
            self.rows = grown
            self.parents = np.concatenate([self.parents[:lo], np.empty(grown.shape[0] - lo,
                                                                        dtype=np.int64)])
        np.take(block, rows, axis=0, out=self.rows[lo:hi], mode="clip")
        self.parents[lo:hi] = 0 if parents is None else parents[rows]
        self.count = hi
        return np.arange(lo, hi)

    def feed(self, block: np.ndarray, lo: int, parents: np.ndarray | None,
             scratch: np.ndarray, same: np.ndarray) -> None:
        """Label rows lo:lo+len(block); scratch and same are block-shaped buffers."""
        hashes = _row_hashes(block, scratch)
        if parents is not None:
            hashes ^= parents.astype(np.uint64) * _PARENT_MIX
        self._index_pending()
        if self.count:
            labels = np.array([self._first.get(h, -1) for h in hashes.tolist()], dtype=np.int64)
            new = np.flatnonzero(labels < 0)
        else:
            labels, new = np.empty(block.shape[0], dtype=np.int64), np.arange(block.shape[0])
        founders = 0
        if new.shape[0]:
            # Rows whose hash no class has start classes in bulk: one per
            # hash value, its first row.
            keys, first, inverse = np.unique(hashes[new], return_index=True, return_inverse=True)
            ids = self._add(block, new[first], parents)
            labels[new] = ids[inverse.ravel()]
            self._pending = keys, ids  # indexed when a later row needs them
            founders = ids.shape[0]
        if founders < block.shape[0]:
            # Every row is compared with the first class of its hash.
            reps = np.take(self.rows, labels, axis=0, out=scratch, mode="clip")
            ok = np.equal(block, reps, out=same).all(axis=1)
            if parents is not None:
                ok &= self.parents[labels] == parents
            self._index_pending()
            for i in np.flatnonzero(~ok).tolist():
                labels[i] = self._collided(block, i, parents, int(hashes[i]))
        self.labels[lo:lo + block.shape[0]] = labels

    def _index_pending(self) -> None:
        if self._pending is not None:
            self._first.update(zip(*(a.tolist() for a in self._pending)))
            self._pending = None

    def _collided(self, block: np.ndarray, i: int, parents: np.ndarray | None, key: int) -> int:
        """The class of row i of block, which differs from the first class with its hash."""
        later = self._later.setdefault(key, [])
        for c in later:
            if (parents is None or self.parents[c] == parents[i]) and np.array_equal(
                    self.rows[c], block[i]):
                return c
        later.append(int(self._add(block, np.array([i]), parents)[0]))
        return later[-1]

    def class_labels(self, parent_labels: np.ndarray | None = None) -> np.ndarray:
        """One label per class, equal for classes whose rows (and parents' labels) are equal.

        parent_labels labels the parent classes; without it the parents are
        ignored.  Label rows with class_labels()[labels].
        """
        initial = None if parent_labels is None else parent_labels[self.parents[:self.count]]
        return _sorted_labels(self.rows[:self.count], np.arange(self.count), initial)

    def grid(self, rows: PatternIndex, cols: PatternIndex) -> np.ndarray:
        """Entries (first row of each group of rows, first column of each group of cols)."""
        # A group's first row is the first row of the class that holds it.
        return self.rows[np.ix_(self.labels[rows.representatives], cols.representatives)]


class _ColClasses:
    """Classes of equal columns of one matrix, fed a row block at a time.

    Each class is represented by its first column.  Every block compares
    each column with its representative's slice; the columns that differ
    leave their class, split by an exact sort on (class, slice).
    """

    def __init__(self, n_cols: int):
        self.labels = np.zeros(n_cols, dtype=np.int64)
        self.firsts = np.zeros(1, dtype=np.int64)  # first column of each class
        self._reps = self.firsts[self.labels]      # each column's representative

    def feed(self, block: np.ndarray, scratch: np.ndarray, same: np.ndarray) -> None:
        if self.firsts.shape[0] >= self.labels.shape[0]:
            return  # every column is alone in its class
        reps = np.take(block, self._reps, axis=1, out=scratch, mode="clip")
        moved = np.flatnonzero(~np.equal(block, reps, out=same).all(axis=0))
        if moved.shape[0] == 0:
            return
        split = _sorted_labels(block.T, moved, self.labels[moved])
        _, first, inverse = np.unique(split, return_index=True, return_inverse=True)
        self.labels[moved] = self.firsts.shape[0] + inverse.ravel()
        self.firsts = np.concatenate([self.firsts, moved[first]])
        self._reps = self.firsts[self.labels]


class BlockDetector:
    """The group structure of W and W*A, detected from their row blocks.

    feed() takes consecutive row blocks of W and, if masked, of W*A, from
    the first row on, each at most block_rows rows.  After the last block,
    row_partitions(), col_partitions() and instance() give the exact
    equality partitions, as build_instance() defines them.  Raises
    ValueError on a non-finite entry of the last matrix fed (W*A is
    non-finite wherever W is), or on an empty index set.

    Holds two block buffers, one stored row per row class of each matrix
    (n wide) and O(n) labels; the grids are read from the stored rows.
    """

    def __init__(self, n_rows: int, n_cols: int, masked: bool = True,
                 rows: bool = True, cols: bool = True):
        if (rows and n_rows == 0) or (cols and n_cols == 0):
            raise ValueError("cannot group an empty index set")
        self.block_rows = _block_rows(n_rows, n_cols)
        self._buffers = (np.empty((self.block_rows, n_cols)), np.empty((self.block_rows, n_cols)))
        self._same = np.empty((self.block_rows, n_cols), dtype=bool)
        self._lo = 0
        mats = 2 if masked else 1
        self._rows = [_RowClasses(n_rows, n_cols) for _ in range(mats)] if rows else []
        self._cols = [_ColClasses(n_cols) for _ in range(mats)] if cols else []

    def feed(self, rows: int, w_block, wa_block=None) -> None:
        """Take the next `rows` rows: w_block(out) gives W's, wa_block(w, out) W*A's.

        out is a (rows, n_cols) buffer of the detector's.  w_block fills and
        returns it, or returns the caller's own block of W; wa_block fills it
        with W*A given the block of W, and returns it.  The W*A block is
        formed only after W's block has been grouped, so the two buffers
        serve as each other's scratch and no third block is held.
        """
        lo, first, second = self._lo, self._buffers[0][:rows], self._buffers[1][:rows]
        W = w_block(first)
        if wa_block is None:
            _check_finite(W, self._same[:rows])
        self._group(0, W, lo, None, second)
        if wa_block is not None:
            WA = wa_block(W, second)
            _check_finite(WA, self._same[:rows])  # W*A is non-finite wherever W is
            parents = self._rows[0].labels[lo:lo + rows] if self._rows else None
            self._group(1, WA, lo, parents, first)
        self._lo = lo + rows

    def _group(self, mat: int, block: np.ndarray, lo: int, parents, scratch: np.ndarray) -> None:
        same = self._same[:block.shape[0]]
        if self._rows:
            self._rows[mat].feed(block, lo, parents, scratch, same)
        if self._cols:
            self._cols[mat].feed(block, scratch, same)

    def row_partitions(self) -> list[PatternIndex]:
        """The row partitions of W and, if masked, of W*A refined by W."""
        classes = self._rows[0].class_labels()
        parts = [PatternIndex.from_labels(classes[self._rows[0].labels])]
        if len(self._rows) > 1:
            refined = self._rows[1].class_labels(classes)
            parts.append(PatternIndex.from_labels(refined[self._rows[1].labels]))
        return parts

    def col_partitions(self) -> list[PatternIndex]:
        """The column partitions of W and, if masked, of W*A refined by W."""
        parts = [PatternIndex.from_labels(self._cols[0].labels)]
        if len(self._cols) > 1:
            parts.append(_refined(parts[0], PatternIndex.from_labels(self._cols[1].labels)))
        return parts

    def instance(self, transposed: bool = False) -> "StructuredInstance":
        """The validated instance of a masked detection (of its transpose if transposed)."""
        w_rows, wa_rows = self.row_partitions()
        w_cols, wa_cols = self.col_partitions()
        weights = self._rows[0].grid(w_rows, w_cols)
        targets = self._rows[1].grid(wa_rows, wa_cols)
        if transposed:
            w_rows, w_cols, wa_rows, wa_cols = w_cols, w_rows, wa_cols, wa_rows
            weights, targets = np.ascontiguousarray(weights.T), np.ascontiguousarray(targets.T)
        inst = StructuredInstance(w_rows=w_rows, w_cols=w_cols, wa_rows=wa_rows,
                                  wa_cols=wa_cols, weights=weights, targets=targets)
        inst.validate()
        return inst


_SORT_ENTRIES = 1 << 12  # coordinates a round of the exact sort reads, past its first


def _sorted_labels(vecs: np.ndarray, idx: np.ndarray,
                   labels: np.ndarray | None = None) -> np.ndarray:
    """Exact equality classes of the rows idx of vecs, within classes of labels.

    Sorts (class so far, next coordinates) keys over a prefix of the
    coordinates that doubles each round, and drops a vector once its class
    is a singleton, so distinct vectors are usually told apart after a few
    coordinates and no coordinate is read twice.  A round reads at most
    about _SORT_ENTRIES coordinates, which bounds its memory when many
    equal vectors stay in play.  labels (nonnegative, one per idx; all
    equal if None) are the classes to start from.
    """
    m = vecs.shape[1]
    labels = np.zeros(idx.shape[0], dtype=np.int64) if labels is None else labels.copy()
    active = np.arange(idx.shape[0])
    next_label, lo, width = int(labels.max(initial=0)) + 1, 0, 1
    while active.shape[0] > 1 and lo < m:
        hi = min(m, lo + width)
        keys = np.empty((active.shape[0], 1 + hi - lo), dtype=np.uint64)
        keys[:, 0] = labels[active]
        np.add(vecs[idx[active], lo:hi], 0.0, out=keys[:, 1:].view(np.float64))  # folds -0.0
        byte_rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, inverse, counts = np.unique(byte_rows, return_inverse=True, return_counts=True)
        inverse = inverse.ravel()
        labels[active] = next_label + inverse
        next_label += counts.shape[0]
        active = active[counts[inverse] > 1]
        lo, width = hi, max(1, min(2 * width, _SORT_ENTRIES // max(1, active.shape[0])))
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

    Feeds (W, W*A) to one BlockDetector a row block at a time, W*A formed
    in one of its block buffers: it groups the rows and columns of W and of W*A,
    refines each W partition by the W*A one, and reads one W value per
    weight block and one W*A value per refined block.
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if W.shape != A.shape:
        raise ValueError("W must match the shape of A")
    (W, A), flipped = _in_memory_order(W, A)
    det = BlockDetector(*W.shape)
    for lo in range(0, W.shape[0], det.block_rows):
        w, a = W[lo:lo + det.block_rows], A[lo:lo + det.block_rows]
        det.feed(w.shape[0], lambda out: w, lambda w_rows, out: np.multiply(w_rows, a, out=out))
    return det.instance(transposed=flipped)

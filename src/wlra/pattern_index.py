"""Detection, refinement and validation of repeated row/column structure.

A weight matrix whose rows (or columns) take only a handful of distinct
values can be summarized by a partition of the index set into groups of
entry-wise identical vectors.  Everything downstream (grouped cost
evaluation, per-group regressions) works off these partitions plus the
small grids of W and W*A values over the groups.
"""

from __future__ import annotations

import contextlib
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

    -0.0 and +0.0 count as equal.  Raises ValueError on a non-finite entry
    or an empty index set; zero-width vectors form one group.  This is the
    axis's partition of one BlockDetector detection of M, which groups both
    axes and stores each row class as one value per column class; M is
    read through BlockDetector.of() a row block at a time, as views.  A
    Fortran-ordered M, as generate() returns it, is grouped as its
    C-ordered transpose along the other axis; any other layout that is not
    C-ordered is copied once into C order.

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
    if M.flags.f_contiguous and not M.flags.c_contiguous:
        return detect_groups(M.T, COLS if axis == ROWS else ROWS)
    n = M.shape[_AXES.index(axis)]
    if n and not M.size:  # zero-width vectors are all equal
        return PatternIndex.from_labels(np.zeros(n))
    det = BlockDetector.of(np.ascontiguousarray(M))
    return (det.row_partitions() if axis == ROWS else det.col_partitions())[0]


# Grouping: BlockDetector.read takes the row blocks of W (and of A, forming
# W*A) in order, once each, and keeps the classes of equal rows and of
# equal columns of each matrix seen so far.
# - Rows: a row's keyed hash finds the first class with that hash, and the
#   row is compared entry-wise with the first row of that class, which is
#   stored.  A row that differs (a collision) walks the chain of classes
#   with its hash, and starts a class if none matches.  At the end the
#   stored rows are sorted exactly, so classes of equal rows merge even if
#   the hash kept them apart.
# - Columns: no hash.  The column pass compares every column's slice of
#   some rows with the slice of its class's first column; only the columns
#   that differ leave their class, split by an exact sort on (class, slice).
#   Two columns share a class only if they are equal on every row fed.
# Every row read equals a stored row, so the column pass needs to see only
# the stored rows: it runs on the first row of each class as the class is
# founded and stored.  Hence the invariant: every stored row is constant on
# every column class.
# So a stored row is kept as one value per column class of its matrix (the
# value at the class's first column) and its sign bits, n/8 bytes, which
# tell -0.0 from +0.0 inside a class; a column class that splits copies its
# value to the new class in every stored row.  A row is spread back to n
# entries only to be compared, once per run of rows with one class, and the
# first row of the class of the row before a block stays spread out.
# A row equal to a stored row is then constant on the classes too, and with
# class keys K_c = sum of key_j over the columns j of class c (mod 2^64),
# such a row x hashes to sum_c mix(x_{first_c}) * K_c, which is its
# full-width hash.  So a block is first hashed on the first columns of the
# classes alone, and each row compared in full with the first class of its
# hash; a split changes K but never the hash of a stored row.  Only the
# rows that match nothing are hashed in full and go through the founding,
# comparing and collision walk above; in the regime that is a few blocks.
# Before any of that, rows come in bands: a block equal row for row to the
# stored row (and parent) of the class of the row before it joins that
# class after one compare, with no hash, gather or column pass.  A stored
# row is finite, as NaN never compares equal, so non-finite entries are
# looked for only in a block where some row matched no stored row.
# The result is the exact equality partition whatever the hash returns; the
# hash only decides how many comparisons a row takes.  The detector holds
# O(n) labels, one spread-out row per matrix, and per row class one value
# per column class and n/8 bytes of sign bits; read() holds two block
# buffers and a comparison mask besides, and frees them when it returns.

_BLOCK_BYTES = 1 << 18  # a quarter MiB of rows at a time stays in cache
_PARENT_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd: spreads parent ids over the hash
_LOW, _HIGH = (0, 1) if np.little_endian else (1, 0)  # 32-bit halves of a float64
_SIGN_BYTE = 7 if np.little_endian else 0  # the byte of a float64 that holds its sign
_UNSEEN = (-1,)  # the classes of a hash no row has had
_NO_CLASSES = np.empty(0, dtype=np.int64)
_NO_CLASSES.flags.writeable = False


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


def _row_hashes(block: np.ndarray, scratch: np.ndarray,
                key: np.ndarray | None = None) -> np.ndarray:
    """Keyed hash sum_j mix(bits_j) * key_j mod 2^64 of every row of block.

    bits_j are the IEEE bits of entry j with -0.0 folded into +0.0, formed
    in scratch (which may be block itself).  The mix x ^ (x >> 32) xors
    each entry's high half into its low half in place: small integers and
    0/1 values have 52 trailing zero bits, and moving the high bits down
    keeps most of the products' 64 bits.  Integer sums wrap, so equal rows
    hash equal.  key defaults to _hash_key(width).
    """
    bits = np.add(block, 0.0, out=scratch)  # folds -0.0
    halves = bits.view(np.uint32).reshape(*bits.shape, 2)
    np.bitwise_xor(halves[..., _LOW], halves[..., _HIGH], out=halves[..., _LOW])
    return bits.view(np.uint64) @ (_hash_key(bits.shape[1]) if key is None else key)


def _with_parents(hashes: np.ndarray, parents: np.ndarray | None) -> np.ndarray:
    if parents is not None:
        hashes ^= parents.astype(np.uint64) * _PARENT_MIX
    return hashes


def _grown(need: int, capacity: int, limit: int) -> int:
    """A capacity of at least need, doubling, and at most limit."""
    return capacity if need <= capacity else min(limit, max(need, 2 * capacity))


class _RowClasses:
    """Classes of equal rows of one matrix, fed a row block at a time.

    Each class keeps its first row, stored compactly when the class is
    founded.  A stored row is constant on every column class of the matrix
    (see BlockDetector), so it is held as one value per column class, read
    at the class's first column, plus its n/8 bytes of sign bits, which
    tell -0.0 from +0.0 inside a class; a column class that splits copies
    its value to the new class in every stored row.  Rows may come with
    their parents, their classes in a coarser partition; two rows then
    share a class only if their parents are equal too.
    """

    def __init__(self, n_rows: int, n_cols: int):
        self.labels = np.empty(n_rows, dtype=np.int64)
        self.cols = _ColClasses(n_cols)
        self.values = np.empty((min(n_rows, 8), min(n_cols, 8)))  # (class, column class)
        self.signs = np.empty((self.values.shape[0], -(-n_cols // 8)), dtype=np.uint8)
        self.parents = np.empty(self.values.shape[0], dtype=np.int64)
        self.count = 0  # classes founded, each stored
        self._row = np.empty(n_cols)  # the first row of class self._expanded, n wide
        self._expanded = -1
        self._classes: dict[int, list[int]] = {}  # hash -> the classes with it, oldest first

    def _add(self, block: np.ndarray, rows: np.ndarray, parents: np.ndarray | None,
             scratch: np.ndarray, same: np.ndarray) -> np.ndarray:
        """Ids of new classes whose first rows are block[rows], which are stored.

        The column pass runs on them first, so they too are constant on
        every column class.  scratch and same are buffers of at least their
        size.
        """
        lo, hi = self.count, self.count + rows.shape[0]
        firsts = block if hi - lo == block.shape[0] else np.take(block, rows, axis=0)
        width = self.cols.firsts.shape[0]
        old = self.cols.feed(firsts, scratch[:hi - lo], same[:hi - lo])
        wide = width + old.shape[0]
        self._reserve(hi, wide, width)
        self.values[:lo, width:wide] = self.values[:lo, old]  # a split class keeps its value
        np.take(firsts, self.cols.firsts, axis=1, out=self.values[lo:hi, :wide], mode="clip")
        self.signs[lo:hi] = np.packbits(np.signbit(firsts), axis=1)
        self.parents[lo:hi] = 0 if parents is None else parents[rows]
        self.count = hi
        return np.arange(lo, hi)

    def _first_row(self, c: int) -> np.ndarray:
        """The first row of class c, n wide, up to the sign of its zeros.

        Its values are spread over the column classes; it is compared with
        == only, which cannot tell -0.0 from +0.0.
        """
        if c != self._expanded:
            np.take(self.values[c], self.cols.labels, out=self._row, mode="clip")
            self._expanded = c
        return self._row

    def _reserve(self, rows: int, cols: int, width: int) -> None:
        """Room for rows classes and cols column classes; the stored rows keep width values."""
        cap_rows, cap_cols = self.values.shape
        if rows <= cap_rows and cols <= cap_cols:
            return
        shape = (_grown(rows, cap_rows, self.labels.shape[0]),
                 _grown(cols, cap_cols, self.cols.labels.shape[0]))
        values = np.empty(shape)
        values[:self.count, :width] = self.values[:self.count, :width]
        self.values = values
        if shape[0] > cap_rows:
            signs = np.empty((shape[0], self.signs.shape[1]), dtype=np.uint8)
            signs[:self.count] = self.signs[:self.count]
            parents = np.empty(shape[0], dtype=np.int64)
            parents[:self.count] = self.parents[:self.count]
            self.signs, self.parents = signs, parents

    def continued(self, block: np.ndarray, c: int, parents: np.ndarray | None,
                  same: np.ndarray) -> bool:
        """Whether every row of block equals the first row (and parent) of class c.

        On data that is not banded a block seldom does, so the first entry
        and then the first row are compared first: a miss costs about one
        row at most.  same is a block-shaped buffer.
        """
        if block[0, 0] != self.values[c, 0]:  # column 0 is first in column class 0
            return False
        stored = self._first_row(c)
        if not np.equal(block[0], stored, out=same[0]).all():
            return False
        if parents is not None and not (parents == self.parents[c]).all():
            return False
        return bool(np.equal(block[1:], stored, out=same[1:]).all())

    def first_classes(self, hashes: np.ndarray) -> np.ndarray:
        """The first class with each hash, -1 for a hash no class has."""
        return np.array([self._classes.get(h, _UNSEEN)[0] for h in hashes.tolist()],
                        dtype=np.int64)

    def matches(self, block: np.ndarray, labels: np.ndarray, parents: np.ndarray | None,
                same: np.ndarray) -> np.ndarray:
        """Which rows of block equal the first row (and parent) of their class in labels.

        A label -1 never matches.  Each run of rows with one label is
        compared with its class's first row, spread out once.  same is a
        block-shaped buffer.
        """
        ok = labels >= 0
        if parents is not None:
            ok &= self.parents[labels] == parents
        bounds = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
        for lo, hi in zip([0, *bounds], [*bounds, labels.shape[0]]):
            if labels[lo] >= 0:
                ok[lo:hi] &= np.equal(block[lo:hi], self._first_row(int(labels[lo])),
                                      out=same[lo:hi]).all(axis=1)
        return ok

    def assign(self, block: np.ndarray, hashes: np.ndarray, parents: np.ndarray | None,
               scratch: np.ndarray, same: np.ndarray) -> np.ndarray:
        """The classes of the rows of block, given their full-width hashes, founding new ones.

        scratch and same are block-shaped buffers.
        """
        labels = self.first_classes(hashes)
        new = np.flatnonzero(labels < 0)
        founders = 0
        if new.shape[0]:
            # Rows whose hash no class has start classes in bulk: one per
            # hash value, its first row, in row order (so _add need not
            # gather a block whose rows all start classes).
            keys, first, inverse = np.unique(hashes[new], return_index=True, return_inverse=True)
            order = np.argsort(first)
            ids = self._add(block, new[first[order]], parents, scratch, same)
            labels[new] = ids[np.argsort(order)][inverse.ravel()]
            self._classes.update(zip(keys[order].tolist(), [[c] for c in ids.tolist()]))
            founders = ids.shape[0]
        if founders < block.shape[0]:
            # Every row is compared with the first class of its hash.
            ok = self.matches(block, labels, parents, same)
            for i in np.flatnonzero(~ok).tolist():
                labels[i] = self._collided(block, i, parents, int(hashes[i]), scratch, same)
        return labels

    def _collided(self, block: np.ndarray, i: int, parents: np.ndarray | None, key: int,
                  scratch: np.ndarray, same: np.ndarray) -> int:
        """The class of row i of block, which differs from the first class with its hash."""
        classes = self._classes[key]
        for c in classes[1:]:
            if (parents is None or self.parents[c] == parents[i]) and np.array_equal(
                    self._first_row(c), block[i]):
                return c
        classes.append(int(self._add(block, np.array([i]), parents, scratch, same)[0]))
        return classes[-1]

    def class_labels(self, parent_labels: np.ndarray | None = None) -> np.ndarray:
        """One label per class, equal for classes whose rows (and parents' labels) are equal.

        parent_labels labels the parent classes; without it the parents are
        ignored.  Label rows with class_labels()[labels].  Rows constant on
        the column classes are equal if their values are.
        """
        initial = None if parent_labels is None else parent_labels[self.parents[:self.count]]
        return _sorted_labels(self.values[:self.count, :self.cols.firsts.shape[0]],
                              np.arange(self.count), initial)

    def grid(self, rows: PatternIndex, cols: PatternIndex) -> np.ndarray:
        """Entries (first row of each group of rows, first column of each group of cols)."""
        # A group's first row is the first row of the class that holds it.
        classes, reps = self.labels[rows.representatives], cols.representatives
        grid = self.values[np.ix_(classes, self.cols.labels[reps])]
        # Every entry of a class is its value, but for the sign of a zero:
        # each entry gets its own sign bit.
        bits = np.take(np.take(self.signs, classes, axis=0), reps >> 3, axis=1)
        bits <<= (reps & 7).astype(np.uint8)
        bits &= 0x80  # each entry's sign bit, where a float64's top byte holds it
        np.abs(grid, out=grid)
        grid.view(np.uint8)[:, _SIGN_BYTE::8] |= bits
        return grid


class _ColClasses:
    """Classes of equal columns of one matrix, fed a row block at a time.

    Each class is represented by its first column.  Every feed compares
    each column with its representative's slice; the columns that differ
    leave their class, split by an exact sort on (class, slice).  The class
    keys let row_hashes hash a row on the representatives alone.
    """

    def __init__(self, n_cols: int):
        self.labels = np.zeros(n_cols, dtype=np.int64)
        self.firsts = np.zeros(1, dtype=np.int64)  # first column of each class
        self._reps = self.firsts[self.labels]      # each column's representative
        self._keys: np.ndarray | None = None       # class keys, formed when first hashed

    def feed(self, block: np.ndarray, scratch: np.ndarray, same: np.ndarray) -> np.ndarray:
        """Split the classes by the rows of block; scratch and same are block-shaped.

        The new classes take the next ids.  Returns the class each of them
        split off from, in id order.
        """
        if self.firsts.shape[0] >= self.labels.shape[0]:
            return _NO_CLASSES  # every column is alone in its class
        reps = np.take(block, self._reps, axis=1, out=scratch, mode="clip")
        moved = np.flatnonzero(~np.equal(block, reps, out=same).all(axis=0))
        if moved.shape[0] == 0:
            return _NO_CLASSES
        split = _sorted_labels(block.T, moved, self.labels[moved])
        _, first, inverse = np.unique(split, return_index=True, return_inverse=True)
        firsts = moved[first]
        old = self.labels[firsts]
        self.labels[moved] = self.firsts.shape[0] + inverse.ravel()
        self.firsts = np.concatenate([self.firsts, firsts])
        self._reps = self.firsts[self.labels]
        self._keys = None
        return old

    def row_hashes(self, block: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """_row_hashes(block) of the rows of block that are constant on every class.

        Reads one entry per class, the first column's, weighted by the class
        key K_c = sum of _hash_key over the columns of c.  scratch is a
        C-contiguous buffer of at least block's size.
        """
        if self._keys is None:
            self._keys = np.zeros(self.firsts.shape[0], dtype=np.uint64)
            np.add.at(self._keys, self.labels, _hash_key(self.labels.shape[0]))
        firsts = scratch.reshape(-1)[:block.shape[0] * self.firsts.shape[0]]
        firsts = np.take(block, self.firsts, axis=1,
                         out=firsts.reshape(block.shape[0], -1), mode="clip")
        return _row_hashes(firsts, firsts, self._keys)


class BlockDetector:
    """The group structure of W and W*A, detected from their row blocks.

    read() takes W and, if masked, A a row block at a time, from the first
    row on, and forms W*A; of() reads in-memory arrays.  Then
    row_partitions(), col_partitions() and instance() give the exact
    equality partitions of both axes, as build_instance() defines them.
    Raises ValueError on a non-finite entry of the last matrix read (W*A
    is non-finite wherever W is), or if either axis is empty.

    Every stored row is constant on every column class: the column pass
    runs on the first row of each new row class, and every other row
    equals a stored row.  So a row equal to a stored row cannot split a
    column class, and its hash over the first columns of the classes,
    weighted by the class keys (the sums of the column keys of each
    class), is its full-width hash.  A block equal row for row to the class
    of the row before it (parents too) joins it after one compare.  Any
    other block's rows, the first block's too, are hashed on the classes
    and compared in full with the first class of their hash; only the rows
    that match none are hashed in full, and the column pass runs at most
    once per row class founded.  Stored rows are finite, so only a block
    with such a row is checked for non-finite entries.

    Holds O(n) labels and, per row class of each matrix, one value per
    column class and n/8 bytes of sign bits; the grids are read from these
    values, each entry with its own sign bit.  The two block buffers live
    only while read() runs.
    """

    def __init__(self, n_rows: int, n_cols: int, masked: bool = True):
        if n_rows == 0 or n_cols == 0:
            raise ValueError("cannot group an empty index set")
        self.block_rows = _block_rows(n_rows, n_cols)
        self._rows = [_RowClasses(n_rows, n_cols) for _ in range(2 if masked else 1)]

    @classmethod
    def of(cls, W: np.ndarray, A: np.ndarray | None = None) -> "BlockDetector":
        """The detection of a C-ordered W and, if A is given, of W*A; blocks are views."""
        return cls.read(*W.shape, lambda lo, out: W[lo:lo + out.shape[0]],
                        None if A is None else lambda lo, out: A[lo:lo + out.shape[0]])

    @classmethod
    def read(cls, n_rows: int, n_cols: int, w_rows, a_rows=None) -> "BlockDetector":
        """The detection of W and, if a_rows is given, of W*A, read a row block at a time.

        w_rows(lo, out) and a_rows(lo, out) give W's and A's rows from lo
        on, as many as out has: each fills the block buffer out and returns
        it, or returns the caller's own view.  W*A is formed in A's buffer
        once W's block has been grouped, so the two buffers serve as each
        other's scratch and no third block is held.  A product that
        overflows or is inf * 0 is rejected as non-finite, with no warning.
        """
        det = cls(n_rows, n_cols, masked=a_rows is not None)
        step = det.block_rows
        first, second = np.empty((step, n_cols)), np.empty((step, n_cols))
        same = np.empty((step, n_cols), dtype=bool)
        with (contextlib.nullcontext() if a_rows is None
              else np.errstate(over="ignore", invalid="ignore")):
            for lo in range(0, n_rows, step):
                one, two = first[:n_rows - lo], second[:n_rows - lo]  # the last block may be short
                W = w_rows(lo, one)
                det._group(0, W, lo, None, two, same, a_rows is None)
                if a_rows is not None:
                    WA = np.multiply(W, a_rows(lo, two), out=two)
                    det._group(1, WA, lo, det._rows[0].labels[lo:lo + W.shape[0]], one, same, True)
        return det

    def _group(self, mat: int, block: np.ndarray, lo: int, parents, scratch: np.ndarray,
               same: np.ndarray, check: bool) -> None:
        """Group the rows and columns of block in matrix mat; check: reject non-finite entries.

        scratch is a block-shaped buffer and same a boolean one of at least
        block's size.
        """
        rows = self._rows[mat]
        same, hi = same[:block.shape[0]], lo + block.shape[0]
        # A block that continues the class of the row before it needs nothing
        # else: its rows are finite and constant on the column classes.
        if lo and rows.continued(block, int(rows.labels[lo - 1]), parents, same):
            rows.labels[lo:hi] = rows.labels[lo - 1]
            return
        # A row equal to a stored row is constant on the column classes, so
        # its hash over their first columns is its full-width hash.  Before
        # the first class is founded, there is nothing to look up.
        labels = np.full(block.shape[0], -1, dtype=np.int64)
        if rows.count:
            labels = rows.first_classes(
                _with_parents(rows.cols.row_hashes(block, scratch), parents))
        fresh = np.flatnonzero(labels < 0)
        if fresh.shape[0] < block.shape[0]:
            fresh = np.flatnonzero(~rows.matches(block, labels, parents, same))
        if fresh.shape[0]:
            if check:  # only a row that matched no stored row can be non-finite
                _check_finite(block, same)
            if fresh.shape[0] < block.shape[0]:  # an all-fresh block is not copied
                block, parents = block[fresh], None if parents is None else parents[fresh]
            # The fresh rows are hashed and compared in full, founding new
            # classes.  Every row then equals the first row of a class, so
            # only the first rows of the new classes can split a column
            # class: the column pass runs on them alone, as they are stored.
            scratch, same = scratch[:fresh.shape[0]], same[:fresh.shape[0]]
            hashes = _with_parents(_row_hashes(block, scratch), parents)
            labels[fresh] = rows.assign(block, hashes, parents, scratch, same)
        rows.labels[lo:hi] = labels

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
        parts = [PatternIndex.from_labels(self._rows[0].cols.labels)]
        if len(self._rows) > 1:
            parts.append(_refined(parts[0], PatternIndex.from_labels(self._rows[1].cols.labels)))
        return parts

    def instance(self) -> "StructuredInstance":
        """The validated instance of a masked detection, its grids C-ordered."""
        w_rows, wa_rows = self.row_partitions()
        w_cols, wa_cols = self.col_partitions()
        weights = self._rows[0].grid(w_rows, w_cols)
        targets = self._rows[1].grid(wa_rows, wa_cols)
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


@dataclass(frozen=True, eq=False)
class RowSystem:
    """The row regressions of one StructuredInstance on its group grid.

    weights holds W per weight-row group and targets W*A per refined row
    group, both C-ordered over the refined column groups, with column h
    scaled by sqrt(wa_cols.sizes[h]).  The rows of targets are in member
    order: the refined row groups of weight-row group p are the slice
    offsets[p]:offsets[p + 1], in ascending order of their labels, and
    order[i] is the wa_rows label of row i.  parents[i] is the weight-row
    group of row i, so it is ascending.
    """

    wa_rows: PatternIndex
    wa_cols: PatternIndex
    weights: np.ndarray  # (w_rows.num_groups, wa_cols.num_groups)
    targets: np.ndarray  # (wa_rows.num_groups, wa_cols.num_groups), member order
    offsets: np.ndarray  # (w_rows.num_groups + 1,)
    order: np.ndarray  # (wa_rows.num_groups,)
    parents: np.ndarray  # (wa_rows.num_groups,), member order


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

    def row_system(self) -> RowSystem:
        """The rows' regressions on the grid, built anew on every call.

        A row's n-wide regression repeats each grid column's equation
        size_h times, so scaling grid column h by sqrt(wa_cols.sizes[h])
        gives a system with the same normal equations, singular values and
        squared residuals.  Its target rows are gathered into member order,
        each weight-row group's refined rows one slice (see RowSystem).  The
        solver builds one per side per run and drops it with the run; nothing
        keeps it on the instance.
        """
        root = np.sqrt(self.wa_cols.sizes)
        col_parents = self.w_cols.group_of[self.wa_cols.representatives]
        parents = self.w_rows.group_of[self.wa_rows.representatives]
        order = np.argsort(parents, kind="stable")
        # A row gather of the grid is C-ordered on a transposed instance too,
        # and copies only the rows it returns.
        targets = self.targets[order]
        targets *= root
        return RowSystem(
            wa_rows=self.wa_rows, wa_cols=self.wa_cols,
            weights=np.multiply(self.weights[:, col_parents], root, order="C"),
            targets=targets,
            offsets=np.concatenate(([0], np.cumsum(np.bincount(
                parents, minlength=self.w_rows.num_groups)))),
            order=order, parents=parents[order])

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

    BlockDetector.of() reads W and A a row block at a time, as views, and
    forms W*A in one of its block buffers: it groups the rows and columns
    of W and of W*A, refines each W partition by the W*A one, and reads one
    W value per weight block and one W*A value per refined block.  A W*A
    that overflows, or is inf * 0, raises ValueError with no warning, as a
    non-finite entry.  Fortran-ordered A and W, as generate() returns them,
    are the transpose of a C-ordered problem: they are built as
    build_instance(A.T, W.T).transposed(), whose grids are views.  Any
    other layout that is not C-ordered is copied once into C order.
    """
    A = np.asarray(A, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if W.shape != A.shape:
        raise ValueError("W must match the shape of A")
    if (A.flags.f_contiguous and W.flags.f_contiguous
            and not (A.flags.c_contiguous and W.flags.c_contiguous)):
        return build_instance(A.T, W.T).transposed()
    return BlockDetector.of(np.ascontiguousarray(W), np.ascontiguousarray(A)).instance()

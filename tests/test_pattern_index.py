import dataclasses
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from wlra import (GenSpec, build_instance, detect_groups, generate,
                  generate_attention_mask, generate_compressed, refine)
from wlra import cli, pattern_index
from wlra.cli import write_instance
from wlra.pattern_index import PatternIndex, StructuredInstance

from oracles import brute_force_groups


def test_identity_rows_all_distinct():
    idx = detect_groups(np.eye(3), "rows")
    assert idx.num_groups == 3
    assert list(idx.sizes) == [1, 1, 1]
    assert list(idx.group_of) == [0, 1, 2]


def test_all_ones_single_group():
    idx = detect_groups(np.ones((4, 4)), "rows")
    assert idx.num_groups == 1
    assert list(idx.sizes) == [4]


def test_abab_pattern():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    M = np.vstack([a, b, a, b, a])
    idx = detect_groups(M, "rows")
    assert idx.num_groups == 2
    assert list(idx.representatives) == [0, 1]
    assert list(idx.sizes) == [3, 2]
    oracle_groups, oracle_reps = brute_force_groups(M, "rows", 0.0)
    assert np.array_equal(idx.group_of, oracle_groups)
    assert np.array_equal(idx.representatives, oracle_reps)


def test_cols_axis():
    M = np.array([[1.0, 2.0, 1.0],
                  [3.0, 4.0, 3.0]])
    idx = detect_groups(M, "cols")
    assert idx.num_groups == 2
    assert list(idx.group_of) == [0, 1, 0]


def test_non_finite_rejected():
    M = np.ones((2, 2))
    M[0, 1] = np.nan
    with pytest.raises(ValueError):
        detect_groups(M, "rows")
    M[0, 1] = np.inf
    with pytest.raises(ValueError):
        detect_groups(M, "rows")


def test_bad_axis_rejected():
    with pytest.raises(ValueError):
        detect_groups(np.ones((2, 2)), "diag")


def test_negative_zero_equals_positive_zero():
    M = np.array([[0.0, 1.0], [-0.0, 1.0]])
    idx = detect_groups(M, "rows")
    assert idx.num_groups == 1


@pytest.mark.parametrize("seed", range(8))
def test_soundness_at_tol_zero_brute_force(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((5, 6))
    M = base[rng.integers(0, 5, size=64)]
    idx = detect_groups(M, "rows")
    for i in range(M.shape[0]):
        for j in range(M.shape[0]):
            same = idx.group_of[i] == idx.group_of[j]
            assert same == bool(np.array_equal(M[i], M[j]))


def test_partition_property_random():
    rng = np.random.default_rng(7)
    M = rng.integers(0, 3, size=(50, 4)).astype(float)
    idx = detect_groups(M, "rows")
    idx.validate()
    assert int(idx.sizes.sum()) == 50


def test_permutation_equivariance():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 5))
    M = base[rng.integers(0, 4, size=32)]
    idx = detect_groups(M, "rows")
    perm = rng.permutation(32)
    idx_p = detect_groups(M[perm], "rows")
    # permuting rows permutes group_of consistently up to relabeling
    assert sorted(idx.sizes) == sorted(idx_p.sizes)
    for i in range(32):
        for j in range(32):
            same = idx_p.group_of[i] == idx_p.group_of[j]
            assert same == (idx.group_of[perm[i]] == idx.group_of[perm[j]])


def test_refine_trivial_outer():
    key = np.array([[1.0], [2.0], [3.0]])
    outer = detect_groups(np.ones((3, 2)), "rows")
    assert outer.num_groups == 1
    out = refine(outer, key)
    assert out.num_groups == 3


def test_refine_singleton_outer_unchanged():
    M = np.arange(12, dtype=float).reshape(4, 3)
    outer = detect_groups(M, "rows")
    assert outer.num_groups == 4
    out = refine(outer, np.ones((4, 2)))
    assert np.array_equal(out.group_of, outer.group_of)


def test_refine_planted_blocks():
    # Both axes in one test: the cols case is the rows case transposed.
    n = 16
    row_outer = np.repeat(np.array([[1.0, 0.0], [0.0, 1.0]]), n // 2, axis=0)
    row_inner = np.tile(np.repeat(np.array([[2.0], [3.0]]), n // 4, axis=0), (2, 1))
    for axis, outer_key, inner_key in (("rows", row_outer, row_inner),
                                       ("cols", row_outer.T, row_inner.T)):
        outer = detect_groups(outer_key, axis)
        out = refine(outer, inner_key, axis)
        assert out.num_groups == 4
        assert list(out.sizes) == [n // 4] * 4
        assert out.refines(outer)
        # brute force: groups are intersections of outer and key classes
        key_groups, _ = brute_force_groups(inner_key, axis, 0.0)
        for i in range(n):
            for j in range(n):
                same = out.group_of[i] == out.group_of[j]
                expect = (outer.group_of[i] == outer.group_of[j]
                          and key_groups[i] == key_groups[j])
                assert same == expect


def test_refine_length_mismatch():
    outer = detect_groups(np.ones((3, 2)), "rows")
    with pytest.raises(ValueError):
        refine(outer, np.ones((4, 2)))


@pytest.mark.parametrize("seed", range(20))
def test_refinement_property_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    outer_key = rng.integers(0, 4, size=(n, 3)).astype(float)
    inner_key = rng.integers(0, 3, size=(n, 2)).astype(float)
    outer = detect_groups(outer_key, "rows")
    out = refine(outer, inner_key)
    out.validate()
    assert out.refines(outer)


def test_build_instance_all_ones():
    inst = build_instance(np.ones((4, 4)), np.ones((4, 4)))
    assert inst.r == 1 and inst.p == 1
    assert inst.wa_rows.num_groups == 1


def test_build_instance_ones_weight_distinct_target():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5))
    inst = build_instance(A, np.ones((5, 5)))
    assert inst.r == 1
    oracle_groups, _ = brute_force_groups(A, "rows", 0.0)
    assert inst.wa_rows.num_groups == len(np.unique(oracle_groups)) == 5


def test_build_instance_generator_round_trip():
    inst = build_instance(*generate(GenSpec(n=30, r=3, p=2, k_true=2, seed=5)))
    assert inst.r == 3 and inst.p == 2
    assert inst.wa_rows.num_groups == 6
    assert inst.wa_cols.num_groups == 6
    assert inst.wa_rows.refines(inst.w_rows)
    assert inst.wa_cols.refines(inst.w_cols)


def test_r_and_p_derived_from_group_counts():
    W = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    inst = build_instance(np.arange(1.0, 10.0).reshape(3, 3), W)
    counts = [idx.num_groups for idx in (inst.w_rows, inst.w_cols, inst.wa_rows, inst.wa_cols)]
    assert counts == [2, 1, 3, 3]
    assert (inst.r, inst.p) == (2, 2)  # p rounds 3 / 2 up


def test_build_instance_shape_errors():
    with pytest.raises(ValueError):
        build_instance(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        build_instance(np.ones((3, 3)), np.ones((2, 2)))


@pytest.mark.parametrize("group_of, reps, sizes, message", [
    ([0, 0], [0], [3], "group sizes do not sum to n"),
    ([0, 0], [0, 1], [2, 0], "empty group"),
    ([0, 2], [0, 1], [1, 1], "group id out of range"),
    ([0, 0], [0, 1], [1, 1], "group with no members"),
    ([1, 0], [0, 1], [1, 1], "representatives are not the smallest members"),
])
def test_validate_messages(group_of, reps, sizes, message):
    idx = PatternIndex(group_of=np.array(group_of), representatives=np.array(reps),
                       sizes=np.array(sizes))
    with pytest.raises(ValueError, match=message):
        idx.validate()


def test_validate_catches_bad_representatives():
    idx = PatternIndex(group_of=np.array([0, 0, 1]),
                       representatives=np.array([1, 2]),
                       sizes=np.array([2, 1]))
    with pytest.raises(ValueError):
        idx.validate()


def test_transpose_involution_and_compress_parity():
    spec = GenSpec(n=24, r=3, p=2, k_true=2, noise_sigma=0.1, seed=9)
    A, W = generate(spec)
    inst = build_instance(A, W)
    back = inst.transposed().transposed()
    assert np.array_equal(back.targets, inst.targets)
    assert np.array_equal(back.weights, inst.weights)
    assert np.array_equal(back.wa_rows.group_of, inst.wa_rows.group_of)

    flipped = build_instance(A.T, W.T)
    for got, want in ((inst.transposed(), flipped), (generate_compressed(spec), inst)):
        got.validate()
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.targets, want.targets)
        for f in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
            assert np.array_equal(getattr(got, f).group_of, getattr(want, f).group_of)


def test_transposed_swaps_the_same_partitions():
    inst = build_instance(*generate(GenSpec(n=24, r=3, p=2, k_true=2, noise_sigma=0.1, seed=9)))
    flipped = inst.transposed()
    assert flipped.w_rows is inst.w_cols and flipped.w_cols is inst.w_rows
    assert flipped.wa_rows is inst.wa_cols and flipped.wa_cols is inst.wa_rows
    assert (flipped.r, flipped.p) == (inst.r, inst.p)


def test_generate_compressed_shares_its_partitions():
    inst = generate_compressed(GenSpec(n=24, r=3, p=2, k_true=2, seed=9))
    assert inst.w_rows is inst.w_cols
    assert inst.wa_rows is inst.wa_cols


def test_instance_is_four_partitions_and_two_grids():
    assert [f.name for f in dataclasses.fields(PatternIndex)] == [
        "group_of", "representatives", "sizes"]
    assert [f.name for f in dataclasses.fields(StructuredInstance)] == [
        "w_rows", "w_cols", "wa_rows", "wa_cols", "weights", "targets"]


def test_from_labels_numbers_groups_by_first_appearance():
    idx = PatternIndex.from_labels(np.array([7, 3, 7, 5, 3]))
    idx.validate()
    assert list(idx.group_of) == [0, 1, 0, 2, 1]
    assert list(idx.representatives) == [0, 1, 3]
    assert list(idx.sizes) == [2, 2, 1]


# ---------------------------------------------------------------------------
# Tolerance-0 detection: hash, verify, exact sort


def _duplicated(seed, n, m, values):
    """n x m matrix whose rows and columns repeat a few base vectors, zeros signed at random."""
    rng = np.random.default_rng(seed)
    base = rng.choice(values, size=(4, 5))
    M = base[rng.integers(0, 4, size=n)][:, rng.integers(0, 5, size=m)]
    M[(M == 0) & (rng.random(M.shape) < 0.5)] = -0.0
    return M


def _layouts(M):
    return [M, np.asfortranarray(M), np.repeat(M, 2, axis=1)[:, ::2]]


def _assert_matches_oracle(M, axis):
    idx = detect_groups(M, axis)
    want_groups, want_reps = brute_force_groups(M, axis, 0.0)
    assert np.array_equal(idx.group_of, want_groups)
    assert np.array_equal(idx.representatives, want_reps)
    idx.validate()


def _fake_hashes(values):
    """A stand-in for the row hash: values(count) for every block of rows."""
    def fake(block, scratch, key=None):
        return values(block.shape[0])
    return fake


_FRESH = itertools.count()

_FAKE_HASHES = {
    "constant": _fake_hashes(lambda count: np.zeros(count, dtype=np.uint64)),
    "per_index": _fake_hashes(
        lambda count: np.fromiter(itertools.islice(_FRESH, count), np.uint64, count)),
}


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
@pytest.mark.parametrize("seed", range(4))
def test_exact_partition_whatever_the_hash(monkeypatch, fake, seed):
    # constant: every row collides; per_index: equal rows never share a hash
    monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    M = _duplicated(seed, 30, 25, [0.0, 1.0, 2.0, -3.0, 0.25])
    for layout in _layouts(M):
        for axis in ("rows", "cols"):
            _assert_matches_oracle(layout, axis)


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
def test_exact_sort_keeps_apart_classes_split_early(monkeypatch, fake):
    # Two repeated vectors that differ only in their first entry both reach
    # the exact sort; its later rounds must not merge them again.
    monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    M = np.array([[5.0, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]])
    for layout in _layouts(M):
        _assert_matches_oracle(layout, "rows")
        _assert_matches_oracle(layout.T, "cols")


def _assert_instance_matches_oracle(inst, A, W):
    """inst against the brute-force oracle: W classes, then W and W*A classes."""
    inst.validate()
    WA = W * A
    want = {"w_rows": brute_force_groups(W, "rows", 0.0),
            "w_cols": brute_force_groups(W, "cols", 0.0),
            "wa_rows": brute_force_groups(np.hstack([W, WA]), "rows", 0.0),
            "wa_cols": brute_force_groups(np.vstack([W, WA]), "cols", 0.0)}
    for name, (groups, reps) in want.items():
        assert np.array_equal(getattr(inst, name).group_of, groups)
        assert np.array_equal(getattr(inst, name).representatives, reps)
    cells = np.ix_(inst.wa_rows.representatives, inst.wa_cols.representatives)
    assert inst.weights.tobytes() == W[np.ix_(want["w_rows"][1], want["w_cols"][1])].tobytes()
    assert inst.targets.tobytes() == WA[cells].tobytes()


def _streamed(tmp_path, A, W):
    """The instance that solve and verify detect while reading a file of (A, W)."""
    path = tmp_path / "streamed.wlra"
    write_instance(path, A, W)
    inst, _ = cli._load(path)
    return inst


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
@pytest.mark.parametrize("seed", range(4))
def test_build_instance_exact_whatever_the_hash(monkeypatch, tmp_path, fake, seed):
    # The hash of a W*A row may even ignore the row's W class.
    monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    monkeypatch.setattr(pattern_index, "_PARENT_MIX", np.uint64(0))
    W = _duplicated(seed, 30, 30, [0.0, 1.0])
    A = _duplicated(seed + 100, 30, 30, [0.0, 1.0, 2.0, -3.0, 0.25])
    for a_layout in _layouts(A):
        for w_layout in _layouts(W):
            _assert_instance_matches_oracle(build_instance(a_layout, w_layout), a_layout, w_layout)
    _assert_instance_matches_oracle(_streamed(tmp_path, A, W), A, W)


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
def test_equal_masked_rows_under_different_weight_rows_stay_apart(monkeypatch, tmp_path, fake):
    # Every W*A row is [2, 0, 2, 0, 2, 0], but W has three row classes: the
    # refined rows must keep them apart even when the hash ignores the W class.
    monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    monkeypatch.setattr(pattern_index, "_PARENT_MIX", np.uint64(0))
    W = np.array([[1.0, 0, 1, 0, 1, 0], [1, 1, 1, 1, 1, 1], [1, 0, 1, 1, 1, 0]])[[0, 1, 2, 0, 1, 2]]
    A = np.tile([2.0, 0, 2, 0, 2, 0], (6, 1))
    for inst in (build_instance(A, W), _streamed(tmp_path, A, W)):
        assert list(inst.wa_rows.group_of) == [0, 1, 2, 0, 1, 2]
        _assert_instance_matches_oracle(inst, A, W)


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
def test_file_path_exact_whatever_the_hash_across_blocks(monkeypatch, tmp_path, fake):
    # One row per block: every row meets the classes of the rows before it
    # through the hash alone, and every column is split block by block.
    monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    monkeypatch.setattr(pattern_index, "_BLOCK_BYTES", 1)
    W = _duplicated(11, 24, 24, [0.0, 1.0])
    A = _duplicated(12, 24, 24, [0.0, 1.0, 2.0, -3.0, 0.25])
    _assert_instance_matches_oracle(_streamed(tmp_path, A, W), A, W)
    _assert_instance_matches_oracle(build_instance(A, W), A, W)


def test_zero_width_vectors_form_one_group():
    for axis in ("rows", "cols"):
        M = np.ones((5, 0)) if axis == "rows" else np.ones((0, 5))
        idx = detect_groups(M, axis)
        assert idx.num_groups == 1 and list(idx.sizes) == [5]


def test_layout_does_not_change_hashes():
    # A row's hash depends on its entries only: not on the layout of the
    # block that holds it, the sign of its zeros, or where blocks begin.
    M = _duplicated(3, 300, 200, [0.0, 1.0, -2.0])
    scratch = np.empty(M.shape)
    want = pattern_index._row_hashes(M + 0.0, scratch)  # every zero +0.0
    for layout in _layouts(M):
        assert np.array_equal(pattern_index._row_hashes(layout, scratch), want)
    step = 7
    blocks = [pattern_index._row_hashes(M[lo:lo + step], scratch[:M[lo:lo + step].shape[0]])
              for lo in range(0, M.shape[0], step)]
    assert np.array_equal(np.concatenate(blocks), want)
    assert np.unique(want).shape[0] == np.unique(M, axis=0).shape[0]


def test_no_collision_fallback_on_binary_and_small_integer_data(monkeypatch, tmp_path):
    # No row may differ from the first class with its hash, and no two row
    # classes may hold equal rows (which the final exact sort would merge).
    collided, merged = [], []
    collide, classes = pattern_index._RowClasses._collided, pattern_index._RowClasses.class_labels

    def collide_spy(self, *args):
        collided.append(args)
        return collide(self, *args)

    def classes_spy(self, *args):
        labels = classes(self, *args)
        merged.append(self.count - np.unique(labels).shape[0])
        return labels

    monkeypatch.setattr(pattern_index._RowClasses, "_collided", collide_spy)
    monkeypatch.setattr(pattern_index._RowClasses, "class_labels", classes_spy)
    rng = np.random.default_rng(5)
    base01 = rng.integers(0, 2, size=(24, 96)).astype(float)
    matrices = [
        base01[rng.integers(0, 24, size=300)],
        rng.integers(0, 2, size=(200, 64)).astype(float),
        rng.integers(-4, 5, size=(150, 120)).astype(float),
        _duplicated(9, 256, 256, [0.0, 1.0, 2.0, -3.0, 7.0]),
        generate_attention_mask(512, 32),
    ]
    for M in matrices:
        for layout in (M, np.asfortranarray(M)):
            for axis in ("rows", "cols"):
                detect_groups(layout, axis)
    for style in ("block_mask01", "attention_block"):
        A, W = generate(GenSpec(n=256, r=4, p=3, k_true=2, weight_style=style, seed=2))
        build_instance(A, W)
        build_instance(np.ascontiguousarray(A), np.ascontiguousarray(W))
        _streamed(tmp_path, A, W)
    assert not collided
    assert merged and not any(merged)


# (name, entries (matrix, i, j, value) set in all-ones A and W)
@pytest.mark.parametrize("name, entries", [
    ("inf_in_w", [("W", 1, 2, np.inf)]),
    ("nan_in_a_where_w_zero", [("W", 3, 0, 0.0), ("A", 3, 0, np.nan)]),
    ("w_times_a_overflows", [("W", 0, 4, 1e200), ("A", 0, 4, 1e200)]),
])
def test_non_finite_input_rejected_like_detect_then_refine(name, entries):
    mats = {"A": np.ones((6, 6)), "W": np.ones((6, 6))}
    for matrix, i, j, value in entries:
        mats[matrix][i, j] = value
    A, W = mats["A"], mats["W"]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as fused:
            build_instance(A, W)
        with pytest.raises(ValueError) as stepwise:
            refine(detect_groups(W, "rows"), W * A)
    assert str(fused.value) == str(stepwise.value) == "matrix contains non-finite entries"


def test_build_instance_forms_no_n_by_n_temporary():
    # generate() returns Fortran-ordered matrices, detected as the transposed
    # problem: neither layout is copied whole, by build_instance or by
    # detect_groups on either axis.
    n = 512
    A, W = generate(GenSpec(n=n, r=4, p=2, k_true=2, noise_sigma=0.1, seed=1))
    for order in ("C", "F"):
        A, W = np.asarray(A, order=order), np.asarray(W, order=order)
        for detect, args in ((build_instance, (A, W)), (detect_groups, (W, "rows")),
                             (detect_groups, (W, "cols"))):
            detect(*args)
            tracemalloc.start()
            try:
                detect(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * n / 2, (order, peak)  # half of one n x n float64 matrix


# ---------------------------------------------------------------------------
# Rows detected on the column classes


def _attention(n, r, p, seed=4):
    A, W = generate(GenSpec(n=n, r=r, p=p, k_true=2, noise_sigma=0.1,
                            weight_style="attention_block", seed=seed))
    return np.ascontiguousarray(A), np.ascontiguousarray(W)


def test_column_pass_runs_only_for_new_row_classes(monkeypatch, tmp_path):
    # A row equal to a stored row cannot split a column class, so the column
    # pass runs at most once per row class of W and of W*A, not per block.
    passes = []
    feed = pattern_index._ColClasses.feed

    def feed_spy(self, block, *args):
        passes.append(block.shape[0])
        return feed(self, block, *args)

    monkeypatch.setattr(pattern_index._ColClasses, "feed", feed_spy)
    n = 512
    A, W = _attention(n, r=2, p=2)
    block_feeds = 2 * -(-n // pattern_index._block_rows(n, n))
    for detect in (lambda: build_instance(A, W), lambda: _streamed(tmp_path, A, W)):
        passes.clear()
        inst = detect()
        _assert_instance_matches_oracle(inst, A, W)
        assert len(passes) <= inst.w_rows.num_groups + inst.wa_rows.num_groups < block_feeds


def test_class_key_hash_equals_full_width_hash():
    # For a row constant on the column classes, hashing the first column of
    # each class with the class key (the sum of its columns' keys) gives the
    # full-width hash, whatever splits came before.
    rng = np.random.default_rng(2)
    M = _duplicated(4, 40, 300, [0.0, 1.0, 2.0, -3.0])
    cols = pattern_index._ColClasses(M.shape[1])
    for lo in range(0, M.shape[0], 8):
        block = M[lo:lo + 8]
        cols.feed(block, np.empty(block.shape), np.empty(block.shape, dtype=bool))
        values = rng.choice([0.0, -0.0, 1.0, 2.5, -7.0], size=(12, cols.firsts.shape[0]))
        constant = values[:, cols.labels]
        want = pattern_index._row_hashes(constant, np.empty(constant.shape))
        assert np.array_equal(cols.row_hashes(constant, np.empty(constant.shape)), want)
    assert 1 < cols.firsts.shape[0] < M.shape[1]


@pytest.mark.parametrize("fake", ["real", *sorted(_FAKE_HASHES)])
def test_row_equal_on_the_first_columns_only_starts_its_own_class(monkeypatch, tmp_path, fake):
    # When row 3 arrives the column classes are {0, 2, 3} and {1}, so on
    # their first columns it equals row 1; it differs on column 2, which it
    # is the first to split off.
    if fake != "real":
        monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    monkeypatch.setattr(pattern_index, "_BLOCK_BYTES", 1)  # one row per block
    W = np.array([[1.0, 1, 1, 1], [1, 2, 1, 1], [1, 1, 1, 1], [1, 2, 2, 1]])
    A = np.ones((4, 4))  # so W*A is W
    for inst in (build_instance(A, W), _streamed(tmp_path, A, W)):
        assert list(inst.w_rows.group_of) == [0, 1, 0, 2]
        assert list(inst.w_cols.group_of) == [0, 1, 2, 0]
        _assert_instance_matches_oracle(inst, A, W)


def test_each_row_is_hashed_at_most_twice(monkeypatch, tmp_path):
    # Once on the column classes, and once in full if it matched no stored
    # row; stored rows are never hashed again when a column class splits.
    hashed, current = [0, 0], [0]
    group, row_hashes = pattern_index.BlockDetector._group, pattern_index._row_hashes

    def group_spy(self, mat, *args):
        current[0] = mat
        return group(self, mat, *args)

    def hash_spy(block, *args):
        hashed[current[0]] += block.shape[0]
        return row_hashes(block, *args)

    monkeypatch.setattr(pattern_index.BlockDetector, "_group", group_spy)
    monkeypatch.setattr(pattern_index, "_row_hashes", hash_spy)
    n = 256
    A, W = _attention(n, r=4, p=2)
    # eye: every block of W*A splits a column class
    for detect in (lambda: build_instance(np.eye(n), np.ones((n, n))),
                   lambda: _streamed(tmp_path, A, W)):
        hashed[:] = [0, 0]
        detect()
        assert 0 < hashed[0] <= 2 * n and 0 < hashed[1] <= 2 * n


def test_streamed_detection_holds_about_four_blocks(tmp_path):
    # Two block buffers, the comparison mask and 32 n-wide arrays: the
    # labels, and the compact store of the 8 + 32 row classes (one value
    # per column class each).  One more block buffer (32 arrays here) would
    # not fit, and n-wide stored rows took 63.
    n = 1024
    A, W = generate(GenSpec(n=n, r=8, p=4, k_true=3, noise_sigma=0.1,
                            weight_style="attention_block", seed=3))
    path = tmp_path / "inst.wlra"
    write_instance(path, A, W)
    cli._load(path)
    tracemalloc.start()
    try:
        cli._load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = pattern_index._block_rows(n, n)
    assert peak <= (2 * block + block / 8 + 32) * 8 * n


# ---------------------------------------------------------------------------
# A block that continues the class of the row before it


def _one_row_blocks(monkeypatch, fake):
    if fake != "real":
        monkeypatch.setattr(pattern_index, "_row_hashes", _FAKE_HASHES[fake])
    monkeypatch.setattr(pattern_index, "_BLOCK_BYTES", 1)  # one row per block


def _banded(n=16, bands=4):
    """(A, W) whose rows repeat in bands of n // bands.

    W's columns 0 and 1 are 1 and 0, and A's column 2 is 0.
    """
    rng = np.random.default_rng(6)
    W = rng.integers(0, 2, size=(bands, n)).astype(float)
    W[:, :2] = [1.0, 0.0]
    A = rng.integers(-3, 4, size=(bands, n)).astype(float)
    A[:, 2] = 0.0
    return np.repeat(A, n // bands, axis=0), np.repeat(W, n // bands, axis=0)


@pytest.mark.parametrize("fake", ["real", *sorted(_FAKE_HASHES)])
def test_equal_masked_rows_after_a_new_weight_row_start_a_class(monkeypatch, tmp_path, fake):
    # Row 2's W*A row equals row 1's, but its W row differs, so it must not
    # join the class of the row before it.
    _one_row_blocks(monkeypatch, fake)
    W = np.array([[1.0, 0, 1], [1, 0, 1], [3, 0, 1]])
    A = np.array([[3.0, 5, 1], [3, 5, 1], [1, 7, 1]])
    for inst in (build_instance(A, W), _streamed(tmp_path, A, W)):
        assert list(inst.wa_rows.group_of) == [0, 0, 1]
        _assert_instance_matches_oracle(inst, A, W)


@pytest.mark.parametrize("fake", ["real", *sorted(_FAKE_HASHES)])
@pytest.mark.parametrize("matrix, j, value", [
    ("A", 0, np.nan),  # where W is 1
    ("A", 1, np.nan),  # where W is 0
    ("W", 2, np.inf),  # where A is 0
])
def test_non_finite_entry_mid_band_rejected(monkeypatch, tmp_path, fake, matrix, j, value):
    _one_row_blocks(monkeypatch, fake)
    A, W = _banded()
    {"A": A, "W": W}[matrix][6, j] = value  # inside the band of rows 4..7
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            build_instance(A, W)
        with pytest.raises(cli._Exit, match="non-finite"):
            _streamed(tmp_path, A, W)


@pytest.mark.parametrize("fake", ["real", *sorted(_FAKE_HASHES)])
def test_negative_zero_mid_band_joins_the_band(monkeypatch, tmp_path, fake):
    _one_row_blocks(monkeypatch, fake)
    A, W = _banded()
    A[5, 2] = -0.0  # W*A is -0.0 where the band's first row has +0.0
    W[6, 1] = -0.0
    for inst in (build_instance(A, W), _streamed(tmp_path, A, W)):
        assert inst.w_rows.group_of[4] == inst.w_rows.group_of[5] == inst.w_rows.group_of[6]
        assert inst.wa_rows.group_of[4] == inst.wa_rows.group_of[5] == inst.wa_rows.group_of[6]
        _assert_instance_matches_oracle(inst, A, W)


@pytest.mark.parametrize("fake", ["real", *sorted(_FAKE_HASHES)])
def test_split_column_keeps_its_sign_of_zero_in_the_grid(monkeypatch, tmp_path, fake):
    # A stored row holds one value per column class, read at the class's
    # first column, and a column class that splits copies that value.  Row
    # 0 is -0.0 on the class {1, ..., 5} and +0.0 on columns 2, 3 and 5,
    # which rows 1 and 2 split off; row 1 is +0.0 on its class {1, 3, 4}
    # and -0.0 on column 4, which row 3 splits off.  Each grid entry must
    # keep the sign of its own zero.
    _one_row_blocks(monkeypatch, fake)
    A = np.array([[1.0, -0.0, 0.0, 0.0, -0.0, 0.0],
                  [1.0, 0.0, 4.0, 0.0, -0.0, 5.0],
                  [1.0, 0.0, 4.0, 6.0, 0.0, 5.0],
                  [1.0, 0.0, 4.0, 6.0, 2.0, 5.0],
                  [1.0, 0.0, 0.0, -0.0, -0.0, 0.0],  # equal to row 0
                  [1.0, 0.0, 4.0, 6.0, 0.0, 5.0]])
    W = np.ones_like(A)  # so W*A is A, zero signs included
    for inst in (build_instance(A, W), _streamed(tmp_path, A, W)):
        assert list(inst.wa_rows.group_of) == [0, 1, 2, 3, 0, 2]
        assert inst.wa_cols.num_groups == 6
        assert inst.targets.tobytes() == A[:4].tobytes()
        _assert_instance_matches_oracle(inst, A, W)


def test_only_blocks_that_leave_the_previous_class_are_hashed_or_checked(monkeypatch, tmp_path):
    # A block equal row for row to the class of the row before it is
    # grouped by one compare: on a banded file, only the blocks where a
    # band starts are hashed or checked for non-finite entries.
    visited = {"_row_hashes": set(), "_check_finite": set()}
    current = [None]
    group = pattern_index.BlockDetector._group

    def group_spy(self, mat, block, lo, *args):
        current[0] = (mat, lo)
        return group(self, mat, block, lo, *args)

    def spy(name):
        original = getattr(pattern_index, name)

        def counted(*args, **kwargs):
            visited[name].add(current[0])
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(pattern_index.BlockDetector, "_group", group_spy)
    for name in visited:
        monkeypatch.setattr(pattern_index, name, spy(name))
    n = 512
    A, W = _attention(n, r=2, p=2)
    block_feeds = 2 * -(-n // pattern_index._block_rows(n, n))
    for detect in (lambda: build_instance(A, W), lambda: _streamed(tmp_path, A, W)):
        for blocks in visited.values():
            blocks.clear()
        inst = detect()
        _assert_instance_matches_oracle(inst, A, W)
        bound = inst.w_rows.num_groups + inst.wa_rows.num_groups
        assert bound < block_feeds
        for blocks in visited.values():
            assert 0 < len(blocks) <= bound
    # detect_groups runs the same detection, on either axis: with 4 rows a
    # block, 16 of the mask's 128 blocks start a band.
    mask, step = np.ascontiguousarray(generate_attention_mask(512, 32)), 4
    monkeypatch.setattr(pattern_index, "_BLOCK_BYTES", 8 * 512 * step)
    leaving = {(0, lo) for lo in range(0, 512, step)
               if lo == 0 or (mask[lo:lo + step] != mask[lo - 1]).any()}
    assert len(leaving) == 16
    for axis in ("rows", "cols"):
        for blocks in visited.values():
            blocks.clear()
        assert detect_groups(mask, axis).num_groups == 16
        assert visited == {"_row_hashes": leaving, "_check_finite": leaving}
    # generate_compressed detects each planted grid once, on both axes.
    detections = []
    init = pattern_index.BlockDetector.__init__

    def init_spy(self, n_rows, n_cols, *args, **kwargs):
        detections.append((n_rows, n_cols))
        return init(self, n_rows, n_cols, *args, **kwargs)

    monkeypatch.setattr(pattern_index.BlockDetector, "__init__", init_spy)
    generate_compressed(GenSpec(n=n, r=4, p=3, k_true=2, seed=1))
    assert detections == [(4, 4), (12, 12)]


def test_stored_rows_that_grow_are_freed_at_once(monkeypatch, tmp_path):
    # 160 row classes, stored as one value per column class each, cost no
    # n-wide row.  The store grows as classes are founded, and each time
    # the old values and sign bits must be freed at once, not kept live by
    # a view past the growth.  The peak then stays within two block
    # buffers, the comparison mask and 80 n-wide arrays: about 70 hold the
    # labels, the partitions being built and W*A's 128 x 128 store and
    # grid, and a 128 x 128 store (16 arrays) left live would not fit.
    # n-wide stored rows, which grew from 64 to 128 with both copies live,
    # took 232.
    n, r, p = 1024, 32, 4
    A, W = generate(GenSpec(n=n, r=r, p=p, k_true=3, noise_sigma=0.1,
                            weight_style="attention_block", seed=3))
    path = tmp_path / "inst.wlra"
    write_instance(path, A, W)
    freed = []
    reserve = pattern_index._RowClasses._reserve

    def reserve_spy(self, *args):
        refs = [weakref.ref(self.values), weakref.ref(self.signs)]
        reserve(self, *args)
        for ref, now in zip(refs, (self.values, self.signs)):
            if ref() is not now:  # grown: the old array must be gone
                freed.append(ref() is None)

    with monkeypatch.context() as patched:
        patched.setattr(pattern_index._RowClasses, "_reserve", reserve_spy)
        inst, _ = cli._load(path)
    assert (inst.w_rows.num_groups, inst.wa_rows.num_groups) == (32, 128)
    assert len(freed) >= 8 and all(freed)
    tracemalloc.start()
    try:
        cli._load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = pattern_index._block_rows(n, n)
    assert peak <= (2 * block + block / 8 + 80) * 8 * n

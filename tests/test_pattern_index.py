import dataclasses
import tracemalloc

import numpy as np
import pytest

from wlra import (GenSpec, build_instance, detect_groups, generate,
                  generate_attention_mask, generate_compressed, refine)
from wlra import pattern_index
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
    """A stand-in for the hash pass: values(count) for every vector set."""
    def fake(mats, across):
        n_rows, n_cols = mats[0][0].shape
        return [[values(n_cols if a else n_rows) for a in across] for _ in mats]
    return fake


_FAKE_HASHES = {
    "constant": _fake_hashes(lambda count: np.zeros(count, dtype=np.uint64)),
    "per_index": _fake_hashes(lambda count: np.arange(count, dtype=np.uint64)),
}


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
@pytest.mark.parametrize("seed", range(4))
def test_exact_partition_whatever_the_hash(monkeypatch, fake, seed):
    # constant: every vector collides; per_index: equal vectors never share a hash
    monkeypatch.setattr(pattern_index, "_hash_pass", _FAKE_HASHES[fake])
    M = _duplicated(seed, 30, 25, [0.0, 1.0, 2.0, -3.0, 0.25])
    for layout in _layouts(M):
        for axis in ("rows", "cols"):
            _assert_matches_oracle(layout, axis)


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
def test_exact_sort_keeps_apart_classes_split_early(monkeypatch, fake):
    # Two repeated vectors that differ only in their first entry both reach
    # the exact sort; its later rounds must not merge them again.
    monkeypatch.setattr(pattern_index, "_hash_pass", _FAKE_HASHES[fake])
    M = np.array([[5.0, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1], [0, 1, 1, 1], [1, 1, 1, 1]])
    for layout in _layouts(M):
        _assert_matches_oracle(layout, "rows")
        _assert_matches_oracle(layout.T, "cols")


def _assert_instance_matches_oracle(A, W):
    """build_instance against the brute-force oracle: W classes, then W and W*A classes."""
    inst = build_instance(A, W)
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
    assert np.array_equal(inst.weights, W[np.ix_(want["w_rows"][1], want["w_cols"][1])])
    assert inst.targets.tobytes() == WA[cells].tobytes()


@pytest.mark.parametrize("fake", sorted(_FAKE_HASHES))
@pytest.mark.parametrize("seed", range(4))
def test_build_instance_exact_whatever_the_hash(monkeypatch, fake, seed):
    monkeypatch.setattr(pattern_index, "_hash_pass", _FAKE_HASHES[fake])
    W = _duplicated(seed, 30, 30, [0.0, 1.0])
    A = _duplicated(seed + 100, 30, 30, [0.0, 1.0, 2.0, -3.0, 0.25])
    for a_layout in _layouts(A):
        for w_layout in _layouts(W):
            _assert_instance_matches_oracle(a_layout, w_layout)


def test_zero_width_vectors_form_one_group():
    for axis in ("rows", "cols"):
        M = np.ones((5, 0)) if axis == "rows" else np.ones((0, 5))
        idx = detect_groups(M, axis)
        assert idx.num_groups == 1 and list(idx.sizes) == [5]


def _row_hashes(W, A=None):
    """The hash pass's values for the rows of W (and of W*A), in whatever layout W has."""
    mats, flipped = pattern_index._in_memory_order(W, A)
    return pattern_index._hash_pass(mats, [flipped])


def test_layout_does_not_change_hashes():
    M = _duplicated(3, 300, 200, [0.0, 1.0, -2.0])  # several blocks on each axis
    for vecs in (M, M.T):
        want = _row_hashes(np.ascontiguousarray(vecs))
        got = _row_hashes(np.asfortranarray(vecs))
        assert np.array_equal(got[0][0], want[0][0])
    A = _duplicated(4, 300, 300, [0.0, 1.0, 0.5])
    W = _duplicated(5, 300, 300, [0.0, 1.0])
    for a, w in ((A, W), (A.T, W.T)):
        want = _row_hashes(np.ascontiguousarray(w), np.ascontiguousarray(a))
        got = _row_hashes(np.asfortranarray(w), np.asfortranarray(a))
        assert all(np.array_equal(g[0], h[0]) for g, h in zip(got, want))


def test_no_collision_fallback_on_binary_and_small_integer_data(monkeypatch):
    # No vector may fail its check against the first vector with its hash,
    # and only one vector per group may reach the exact sort.
    checks, handed = [], []
    check, sort = pattern_index._check_pass, pattern_index._sorted_labels

    def check_spy(mats, across, refs):
        ok = check(mats, across, refs)
        checks.extend(bool(good.all()) for per_ok in ok for good in per_ok if good is not None)
        return ok

    def sort_spy(vecs, idx):
        handed.append(idx.shape[0])
        return sort(vecs, idx)

    monkeypatch.setattr(pattern_index, "_check_pass", check_spy)
    monkeypatch.setattr(pattern_index, "_sorted_labels", sort_spy)
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
                handed.clear()
                idx = detect_groups(layout, axis)
                assert handed == [idx.num_groups]
    for style in ("block_mask01", "attention_block"):
        A, W = generate(GenSpec(n=256, r=4, p=3, k_true=2, weight_style=style, seed=2))
        want = [detect_groups(M, axis).num_groups for M in (W, W * A) for axis in ("rows", "cols")]
        for a, w in ((A, W), (np.ascontiguousarray(A), np.ascontiguousarray(W))):
            handed.clear()
            build_instance(a, w)
            assert handed == want
    assert checks and all(checks)


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
    n = 512
    A, W = generate(GenSpec(n=n, r=4, p=2, k_true=2, noise_sigma=0.1, seed=1))
    A, W = np.ascontiguousarray(A), np.ascontiguousarray(W)
    build_instance(A, W)
    tracemalloc.start()
    try:
        build_instance(A, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 2  # half of one n x n float64 matrix

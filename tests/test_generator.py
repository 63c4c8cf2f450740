import io
import itertools

import numpy as np
import pytest

from wlra import (GenSpec, WEIGHT_STYLES, build_instance, cli, cost_dense, detect_groups,
                  generate, generate_attention_mask, generate_compressed, generate_with_factors)
from wlra.generator import TiledMatrix, generate_tiled
from wlra.pattern_index import PatternIndex


def test_trivial_spec_single_pattern():
    A, W = generate(GenSpec(n=8, r=1, p=1, k_true=1, seed=0))
    assert detect_groups(W, "rows").num_groups == 1
    assert detect_groups(W * A, "rows").num_groups == 1


def test_planted_counts_detected():
    A, W = generate(GenSpec(n=64, r=4, p=2, k_true=3, seed=1))
    assert detect_groups(W, "rows").num_groups == 4
    assert detect_groups(W * A, "rows").num_groups == 8
    inst = build_instance(A, W)
    assert inst.r == 4 and inst.p == 2


def test_determinism():
    a = generate(GenSpec(n=32, r=2, p=2, k_true=2, noise_sigma=0.1, seed=9))
    b = generate(GenSpec(n=32, r=2, p=2, k_true=2, noise_sigma=0.1, seed=9))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = generate(GenSpec(n=32, r=2, p=2, k_true=2, noise_sigma=0.1, seed=10))
    assert not np.array_equal(a[0], c[0])


def test_invalid_specs():
    with pytest.raises(ValueError):
        GenSpec(n=4, r=3, p=2, k_true=1)
    with pytest.raises(ValueError):
        GenSpec(n=4, r=1, p=1, k_true=0)
    with pytest.raises(ValueError):
        GenSpec(n=4, r=1, p=1, k_true=1, noise_sigma=-0.5)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            GenSpec(n=4, r=1, p=1, k_true=1, noise_sigma=sigma)
    with pytest.raises(ValueError):
        GenSpec(n=4, r=1, p=1, k_true=1, weight_style="diagonal")


@pytest.mark.parametrize("style", WEIGHT_STYLES)
def test_styles_round_trip(style):
    for r, seed in itertools.product((1, 2, 3, 5), (0, 4, 9)):
        spec = GenSpec(n=48, r=r, p=2, k_true=2, weight_style=style, seed=seed)
        A, W = generate(spec)
        inst = build_instance(A, W)
        assert inst.r == r and inst.p == 2
        if style != "block_random":
            vals = np.unique(W)
            assert set(vals).issubset({0.0, 1.0})
        # no all-zero weight rows or columns: every style avoids them, unchecked
        assert np.count_nonzero(W, axis=1).min() > 0
        assert np.count_nonzero(W, axis=0).min() > 0


def test_noise_preserves_structure():
    inst = build_instance(*generate(GenSpec(n=40, r=2, p=2, k_true=3, noise_sigma=0.7, seed=5)))
    assert inst.wa_rows.num_groups == 4
    assert inst.wa_cols.num_groups == 4


def test_planted_factors_zero_noise_realizability():
    spec = GenSpec(n=36, r=3, p=2, k_true=4, seed=6)
    A, W, U_pl, V_pl = generate_with_factors(spec)
    assert all(np.array_equal(x, y) for x, y in zip(generate(spec), (A, W)))
    scale = float(np.sum((W * A) ** 2))
    assert cost_dense(A, W, U_pl, V_pl) <= 1e-16 * scale


def test_compressed_matches_dense_path():
    spec = GenSpec(n=60, r=3, p=2, k_true=2, noise_sigma=0.2,
                   weight_style="attention_block", seed=7)
    comp = generate_compressed(spec)
    comp.validate()
    ref = build_instance(*generate(spec))
    assert np.array_equal(comp.weights, ref.weights)
    assert np.array_equal(comp.targets, ref.targets)
    for f in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
        assert np.array_equal(getattr(comp, f).group_of, getattr(ref, f).group_of)


def _hand_built() -> TiledMatrix:
    """Unsorted and repeated row ids, a run of eight equal ones, and repeated column ids."""
    grid = np.random.default_rng(8).standard_normal((5, 6))
    row_ids = np.array([3, 3, 0, 4, 4, 4, 1, 3, 2, 2, 2, 2, 2, 2, 2, 2, 0, 1])
    col_ids = np.array([5, 0, 0, 2, 5, 1, 3])
    return TiledMatrix(grid, row_ids, col_ids)


def _dense(tiled: TiledMatrix) -> np.ndarray:
    return tiled.grid[tiled.row_ids][:, tiled.col_ids]


def _written(tiled: TiledMatrix, monkeypatch, step: int) -> bytes:
    """The bytes cli._write_rows writes for tiled with a block of step rows."""
    monkeypatch.setattr(cli, "_WRITE_BLOCK_BYTES", 8 * tiled.shape[1] * step)
    f = io.BytesIO()
    cli._write_rows(f, tiled)
    return f.getvalue()


@pytest.mark.parametrize("style", ["block_random", "attention_block"])
def test_tiled_rows_and_instance_match_the_dense_and_compressed_paths(style):
    spec = GenSpec(n=40, r=3, p=2, k_true=2, noise_sigma=0.1, weight_style=style, seed=8)
    tiled_a, tiled_w, inst = generate_tiled(spec)
    A, W = generate(spec)
    hand = _hand_built()
    pairs = ((tiled_a, A, (7,)), (tiled_w, W, (7,)), (hand, _dense(hand), (1, 3, 8)))
    for tiled, dense, steps in pairs:
        assert tiled.shape == dense.shape
        for step in steps:
            for lo in range(0, dense.shape[0] + step, step):  # the last slice is empty
                got = tiled[lo:lo + step]
                assert got.flags.c_contiguous and got.shape == dense[lo:lo + step].shape
                assert got.tobytes() == dense[lo:lo + step].tobytes()
    comp = generate_compressed(spec)
    assert inst.weights.tobytes() == comp.weights.tobytes()
    assert inst.targets.tobytes() == comp.targets.tobytes()
    for name in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
        assert np.array_equal(getattr(inst, name).group_of, getattr(comp, name).group_of)


@pytest.mark.parametrize("step", [1, 3, 8, 9, 100])  # 8 rows: the run of eight is one block
def test_hand_built_tiled_matrix_writes_its_dense_bytes(monkeypatch, step):
    hand = _hand_built()
    assert _written(hand, monkeypatch, step) == _dense(hand).astype("<f8").tobytes()


@pytest.mark.parametrize("step", [1, 3, 8, 100])
def test_big_endian_grid_writes_little_endian_bytes(monkeypatch, step):
    # A block written again for each block of its run must be converted to <f8 first.
    hand = _hand_built()
    big = TiledMatrix(hand.grid.astype(">f8"), hand.row_ids, hand.col_ids)
    assert big[0:4].dtype == np.dtype(">f8")
    assert _written(big, monkeypatch, step) == _dense(hand).astype("<f8").tobytes()


def test_attention_mask_small():
    M = generate_attention_mask(4, 2)
    want = np.array([[1, 1, 0, 0],
                     [1, 1, 0, 0],
                     [1, 1, 1, 1],
                     [1, 1, 1, 1]], dtype=float)
    assert np.array_equal(M, want)


def test_attention_mask_full_block():
    assert np.array_equal(generate_attention_mask(6, 6), np.ones((6, 6)))


def test_attention_mask_group_counts():
    M = generate_attention_mask(64, 8)
    idx = detect_groups(M, "rows")
    assert idx.num_groups == 8
    assert list(idx.sizes) == [8] * 8
    assert detect_groups(M, "cols").num_groups == 8


def test_attention_mask_divisibility():
    with pytest.raises(ValueError):
        generate_attention_mask(10, 3)


def test_generation_failure_after_max_attempts(monkeypatch):
    from wlra import generator as gen_mod
    monkeypatch.setattr(gen_mod, "_grids_valid", lambda spec, gw, ga: False)
    with pytest.raises(RuntimeError, match="8 attempts"):
        gen_mod.generate(GenSpec(n=8, r=2, p=2, k_true=2, seed=0))


def test_attention_instance_via_build():
    W = generate_attention_mask(32, 8)
    rng = np.random.default_rng(11)
    cell = rng.standard_normal((4, 4))
    A = np.repeat(np.repeat(cell, 8, axis=0), 8, axis=1)
    inst = build_instance(A, W)
    assert inst.r == 4
    assert inst.wa_rows.num_groups <= 4 * inst.p


BAND_SPECS = {
    "uneven": (23, 3, 2),       # weight bands 8, 8, 7; the last splits 4 + 3
    "uneven_p": (29, 4, 3),     # weight bands 8, 7, 7, 7; none divisible by p
    "rp_equals_n": (12, 3, 4),
    "r_one": (10, 1, 3),
    "p_one": (10, 3, 1),
    "single": (1, 1, 1),
}


@pytest.mark.parametrize("case", sorted(BAND_SPECS))
def test_band_partitions_are_canonical(case):
    n, r, p = BAND_SPECS[case]
    spec = GenSpec(n=n, r=r, p=p, k_true=1, noise_sigma=0.1, seed=3)
    tiled_a, tiled_w, inst = generate_tiled(spec)
    for name, groups in (("w_rows", r), ("wa_rows", r * p)):
        part = getattr(inst, name)
        part.validate()
        want = PatternIndex.from_labels(part.group_of)
        for field in ("group_of", "representatives", "sizes"):
            got = getattr(part, field)
            assert got.dtype == np.int64 and np.array_equal(got, getattr(want, field))
        assert part.num_groups == groups and np.ptp(part.sizes) <= 1
    assert inst.wa_rows.refines(inst.w_rows)
    assert np.array_equal(tiled_w.row_ids, inst.w_rows.group_of)
    assert np.array_equal(tiled_a.col_ids, inst.wa_cols.group_of)
    _, _, U, _ = generate_with_factors(spec)  # the target's factors are constant on its bands
    assert np.array_equal(U, U[inst.wa_rows.representatives][inst.wa_rows.group_of])


def test_planted_partitions_sort_no_n_long_labels(monkeypatch):
    n = 64
    from_labels = PatternIndex.from_labels

    def guarded(cls, labels):
        if np.asarray(labels).shape[0] == n:
            raise AssertionError("from_labels called on n labels")
        return from_labels(labels)

    monkeypatch.setattr(PatternIndex, "from_labels", classmethod(guarded))
    spec = GenSpec(n=n, r=4, p=2, k_true=2, seed=6)
    with pytest.raises(AssertionError):
        PatternIndex.from_labels(np.zeros(n))
    generate_compressed(spec)
    generate_tiled(spec)
    generate_with_factors(spec)

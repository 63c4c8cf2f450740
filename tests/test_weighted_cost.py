import tracemalloc

import numpy as np
import pytest

from wlra import (GenSpec, GroupedFactor, build_instance, cost_dense,
                  cost_grouped, cost_grouped_cols, generate, generate_compressed, grid_cost)
from wlra import cli, weighted_cost

from oracles import naive_weighted_cost


def _planted(**kw):
    """A generated instance with its dense matrices: (inst, A, W)."""
    A, W = generate(GenSpec(**kw))
    return build_instance(A, W), A, W


def _record_blocks(monkeypatch):
    """Record the (rows, columns) of every residual block the kernel forms."""
    shapes = []
    kernel = weighted_cost._block_residual_sq

    def recorded(V_blk, Ut, *rest):
        shapes.append((Ut.shape[1], V_blk.shape[0]))
        return kernel(V_blk, Ut, *rest)

    monkeypatch.setattr(weighted_cost, "_block_residual_sq", recorded)
    return shapes


def test_zero_factors_give_masked_norm():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 6))
    W = rng.standard_normal((6, 6))
    U = np.zeros((6, 2))
    V = np.zeros((6, 2))
    expect = float(np.sum((W * A) ** 2))
    assert cost_dense(A, W, U, V) == pytest.approx(expect, rel=1e-14)


def test_zero_weight_annihilates():
    rng = np.random.default_rng(2)
    assert cost_dense(rng.standard_normal((5, 5)), np.zeros((5, 5)),
                      rng.standard_normal((5, 3)), rng.standard_normal((5, 3))) == 0.0


def test_matches_two_loop_oracle():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8))
    W = rng.standard_normal((8, 8))
    U = rng.standard_normal((8, 3))
    V = rng.standard_normal((8, 3))
    got = cost_dense(A, W, U, V)
    want = naive_weighted_cost(A, W, U, V)
    assert got == pytest.approx(want, rel=1e-12)
    for shape in ((0, 0), (0, 3), (3, 0)):  # empty problems cost nothing
        A = np.ones(shape)
        U, V = np.ones((shape[0], 2)), np.ones((shape[1], 2))
        assert cost_dense(A, A, U, V) == naive_weighted_cost(A, A, U, V) == 0.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        cost_dense(np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValueError):
        cost_dense(np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 2)), np.ones((3, 1)))


def test_exact_zero_on_weight_support():
    # U V^T equals A wherever W is nonzero
    U = np.array([[1.0], [2.0]])
    V = np.array([[1.0], [1.0]])
    A = np.array([[1.0, 1.0], [2.0, 99.0]])
    W = np.array([[1.0, 1.0], [1.0, 0.0]])
    assert cost_dense(A, W, U, V) == 0.0


def test_grouped_singletons_bitwise_equal_to_dense(monkeypatch):
    rng = np.random.default_rng(4)
    n, k = 12, 3
    A = rng.standard_normal((n, n))
    W = rng.standard_normal((n, n))  # generic: every row distinct
    inst = build_instance(A, W)
    assert inst.wa_rows.num_groups == n
    U = rng.standard_normal((n, k))
    V = rng.standard_normal((n, k))
    gu = GroupedFactor(index=inst.wa_rows, rows=U[inst.wa_rows.representatives])
    blocks = _record_blocks(monkeypatch)
    got = cost_grouped(inst, gu, V)
    assert sum(rows for rows, _ in blocks) == n
    assert got == cost_dense(A, W, U, V)


def test_grouped_multiplicity_n():
    # all rows identical: grouped cost is n times the representative term
    n, k = 9, 2
    row_a = np.array([1.0, -2.0, 0.5, 3.0, 1.0, 0.0, 2.0, -1.0, 4.0])
    row_w = np.full(n, 1.5)
    A = np.tile(row_a, (n, 1))
    W = np.tile(row_w, (n, 1))
    inst = build_instance(A, W)
    assert inst.wa_rows.num_groups == 1
    rng = np.random.default_rng(5)
    gu = GroupedFactor(index=inst.wa_rows, rows=rng.standard_normal((1, k)))
    V = rng.standard_normal((n, k))
    rep_term = float(np.sum((row_w * (V @ gu.rows[0]) - row_w * row_a) ** 2))
    assert cost_grouped(inst, gu, V) == pytest.approx(n * rep_term, rel=1e-12)


@pytest.mark.parametrize("n,r,p,seed", [(64, 4, 2, 0), (256, 4, 2, 1), (96, 2, 4, 2)])
def test_grouped_dense_equivalence(n, r, p, seed):
    inst, A, W = _planted(n=n, r=r, p=p, k_true=3, noise_sigma=0.2, seed=seed)
    rng = np.random.default_rng(seed + 100)
    k = 3
    gu = GroupedFactor(index=inst.wa_rows,
                       rows=rng.standard_normal((inst.wa_rows.num_groups, k)))
    V = rng.standard_normal((n, k))
    cg = cost_grouped(inst, gu, V)
    cd = cost_dense(A, W, gu.expand(), V)
    assert abs(cg - cd) <= 1e-9 * (1.0 + cd)


def test_grouped_dense_equivalence_naive_oracle():
    inst, A, W = _planted(n=24, r=2, p=2, k_true=2, noise_sigma=0.1, seed=11)
    rng = np.random.default_rng(42)
    gu = GroupedFactor(index=inst.wa_rows,
                       rows=rng.standard_normal((inst.wa_rows.num_groups, 2)))
    V = rng.standard_normal((24, 2))
    want = naive_weighted_cost(A, W, gu.expand(), V)
    assert cost_grouped(inst, gu, V) == pytest.approx(want, rel=1e-11)


def test_grouped_cols_matches_transposed_dense():
    inst, A, W = _planted(n=32, r=2, p=2, k_true=2, noise_sigma=0.1, seed=13)
    rng = np.random.default_rng(14)
    gv = GroupedFactor(index=inst.wa_cols,
                       rows=rng.standard_normal((inst.wa_cols.num_groups, 2)))
    U = rng.standard_normal((32, 2))
    got = cost_grouped_cols(inst, gv, U)
    want = cost_dense(A, W, U, gv.expand())
    assert got == pytest.approx(want, rel=1e-11)


def test_grouped_work_counter_is_group_count_not_n(monkeypatch):
    inst, _, _ = _planted(n=256, r=4, p=2, k_true=2, seed=8)
    rng = np.random.default_rng(9)
    gu = GroupedFactor(index=inst.wa_rows,
                       rows=rng.standard_normal((inst.wa_rows.num_groups, 2)))
    blocks = _record_blocks(monkeypatch)
    cost_grouped(inst, gu, rng.standard_normal((256, 2)))
    assert blocks and {rows for rows, _ in blocks} == {inst.wa_rows.num_groups} == {8}


def test_monotone_in_weight_magnitude():
    rng = np.random.default_rng(15)
    A = rng.standard_normal((10, 10))
    U = rng.standard_normal((10, 2))
    V = rng.standard_normal((10, 2))
    W = rng.standard_normal((10, 10))
    bigger = W * rng.uniform(1.0, 2.0, size=W.shape)
    assert cost_dense(A, bigger, U, V) >= cost_dense(A, W, U, V)


def test_grouped_index_mismatch_rejected():
    inst, _, _ = _planted(n=16, r=2, p=2, k_true=2, seed=1)
    wrong = GroupedFactor(index=inst.wa_cols if inst.wa_cols.num_groups != inst.wa_rows.num_groups else inst.w_rows,
                          rows=np.zeros((inst.w_rows.num_groups, 2)))
    with pytest.raises(ValueError):
        cost_grouped(inst, wrong, np.zeros((16, 2)))
    right = GroupedFactor(index=inst.wa_rows, rows=np.zeros((inst.wa_rows.num_groups, 2)))
    with pytest.raises(ValueError):  # V on the weight groups, not the refined ones
        cost_grouped(inst, right, GroupedFactor(index=inst.w_cols, rows=np.zeros((2, 2))))


def test_grouped_factor_slices_and_representatives_of_its_expansion():
    inst, _, _ = _planted(n=20, r=2, p=2, k_true=2, seed=3)
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((inst.wa_rows.num_groups, 3))
    gf = GroupedFactor(index=inst.wa_rows, rows=rows)
    X = gf.expand()
    assert gf.shape == X.shape == (20, 3)
    assert np.array_equal(X[inst.wa_rows.representatives], rows)
    for lo, hi in [(0, 20), (0, 7), (7, 20), (5, 6), (19, 40), (20, 20)]:
        block = gf[lo:hi]
        assert block.flags.c_contiguous and np.array_equal(block, X[lo:hi])


def test_cost_dense_sums_rows_exactly_rounded():
    # row terms 1e16, 1 and 1: a naive running sum rounds each 1 away
    A = np.array([[1e8], [1.0], [1.0]])
    zeros = np.zeros((3, 1))
    assert cost_dense(A, np.ones((3, 1)), zeros, np.zeros((1, 1))) == 1e16 + 2.0


def _generic(n, k):
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n)), k


def _zero_weight_group(n, k):
    """A planted instance whose second weight-row group has all-zero weights."""
    A, W = generate(GenSpec(n=n, r=5, p=2, k_true=2, noise_sigma=0.1, seed=21))
    W[build_instance(A, W).w_rows.group_of == 1] = 0.0
    assert not build_instance(A, W).weights.any(axis=1).all()
    return A, W, k


BLOCK_CASES = {
    "generic": lambda: _generic(13, 3),
    "planted": lambda: (*generate(GenSpec(n=31, r=5, p=2, k_true=2, noise_sigma=0.1, seed=20)), 2),
    "zero_weight_group_k1": lambda: _zero_weight_group(30, 1),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
@pytest.mark.parametrize("size", ["1", "7", "n-1"])
def test_evaluators_agree_across_block_boundaries(monkeypatch, case, size):
    A, W, k = BLOCK_CASES[case]()
    n = A.shape[0]
    inst = build_instance(A, W)
    rng = np.random.default_rng(30)
    gu = GroupedFactor(index=inst.wa_rows, rows=rng.standard_normal((inst.wa_rows.num_groups, k)))
    gv = GroupedFactor(index=inst.wa_cols, rows=rng.standard_normal((inst.wa_cols.num_groups, k)))
    U, V = gu.expand(), gv.expand()
    want = naive_weighted_cost(A, W, U, V)
    block = {"1": 1, "7": 7, "n-1": n - 1}[size]
    monkeypatch.setattr(weighted_cost, "BLOCK_ENTRIES", block)
    shapes = _record_blocks(monkeypatch)
    for evaluate in (lambda: cost_grouped(inst, gu, gv), lambda: cost_grouped(inst, gu, V),
                     lambda: cost_dense(A, W, U, V)):
        shapes.clear()
        assert evaluate() == pytest.approx(want, rel=1e-12)
        assert len(shapes) > 1 and all(r * c <= block for r, c in shapes)
        if block > 1:  # a short last block in rows or columns
            assert len(set(shapes)) > 1


@pytest.mark.parametrize("n", [5, 13, 34])
@pytest.mark.parametrize("size", ["1", "7", "n-1", "default"])
def test_singletons_bitwise_equal_at_every_block_size(monkeypatch, n, size):
    A, W, k = _generic(n, 2)
    inst = build_instance(A, W)
    assert inst.wa_rows.num_groups == n
    rng = np.random.default_rng(n + 1)
    U, V = rng.standard_normal((n, k)), rng.standard_normal((n, k))
    if size != "default":
        monkeypatch.setattr(weighted_cost, "BLOCK_ENTRIES", {"1": 1, "7": 7, "n-1": n - 1}[size])
    gu = GroupedFactor(index=inst.wa_rows, rows=U[inst.wa_rows.representatives])
    assert cost_grouped(inst, gu, V) == cost_dense(A, W, U, V)


def _peak_mb(evaluate) -> float:
    tracemalloc.start()
    try:
        evaluate()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_n_wide_evaluators_hold_one_block_whatever_n():
    # One n x n temporary would be 8 MB at n=1024; a block is 2^16 entries.
    peaks = {}
    for n in (1024, 2048):
        rng = np.random.default_rng(n)
        A, W = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        U, V = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
        inst = generate_compressed(GenSpec(n=n, r=16, p=8, k_true=3, seed=1))
        gu = GroupedFactor(index=inst.wa_rows,
                           rows=rng.standard_normal((inst.wa_rows.num_groups, 3)))
        peaks[n] = (_peak_mb(lambda: cost_dense(A, W, U, V)),
                    _peak_mb(lambda: cost_grouped(inst, gu, V)))
    for small, large in zip(peaks[1024], peaks[2048]):
        assert small <= 2.5 and large <= 2.5
        assert large <= small + 0.1


def test_group_constant_v_holds_the_grid_whatever_n():
    # A group-constant V goes to the grid; the test of V reads a chunk at a time.
    peaks = {}
    for n in (1024, 4096):
        rng = np.random.default_rng(n)
        inst = generate_compressed(GenSpec(n=n, r=16, p=8, k_true=3, seed=1))
        gu = GroupedFactor(index=inst.wa_rows,
                           rows=rng.standard_normal((inst.wa_rows.num_groups, 3)))
        V = GroupedFactor(index=inst.wa_cols,
                          rows=rng.standard_normal((inst.wa_cols.num_groups, 3))).expand()
        peaks[n] = _peak_mb(lambda: cost_grouped(inst, gu, V))
    assert peaks[1024] <= 2.5 and peaks[4096] <= peaks[1024] + 0.1


def test_grid_cost_holds_fewer_than_three_tiles():
    # A 128 x 128 grid is one block: its residual tile and its gathered
    # weight tile, with the targets read in place.
    inst = generate_compressed(GenSpec(n=65536, r=16, p=8, k_true=3, seed=1))
    assert inst.wa_rows.num_groups == inst.wa_cols.num_groups == 128
    system = inst.row_system()
    rng = np.random.default_rng(5)
    gu = GroupedFactor(index=inst.wa_rows, rows=rng.standard_normal((128, 3)))
    gv = GroupedFactor(index=inst.wa_cols, rows=rng.standard_normal((128, 3)))
    grid_cost(system, gu, gv)  # warm: lazy imports and caches
    tile_mb = 128 * 128 * 8 / 1e6
    assert _peak_mb(lambda: grid_cost(system, gu, gv)) < 3 * tile_mb


def test_cost_dense_on_memory_mapped_instance_file(tmp_path, monkeypatch):
    n = 200
    rng = np.random.default_rng(31)
    A, W = rng.standard_normal((n, n)), rng.uniform(0.5, 1.5, (n, n))
    U, V = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    path = tmp_path / "instance.wlra"
    cli.write_instance(path, A, W)
    mapped = np.memmap(path, dtype="<f8", mode="r", offset=cli._HEADER.size, shape=(2, n, n))
    for block in (weighted_cost.BLOCK_ENTRIES, 1000):  # one block, then 40 row blocks
        monkeypatch.setattr(weighted_cost, "BLOCK_ENTRIES", block)
        assert cost_dense(mapped[0], mapped[1], U, V) == cost_dense(A, W, U, V)


def _changed_entry_case(monkeypatch, where):
    """A planted instance cut into 7-column blocks, a group-constant V and the column to change."""
    A, W = generate(GenSpec(n=40, r=2, p=3, k_true=2, noise_sigma=0.1, seed=32))
    inst = build_instance(A, W)
    assert inst.wa_rows.num_groups == 6
    monkeypatch.setattr(weighted_cost, "BLOCK_ENTRIES", 6 * 7)  # 5 blocks of 7, then one of 5
    rng = np.random.default_rng(33)
    gu = GroupedFactor(index=inst.wa_rows, rows=rng.standard_normal((6, 2)))
    gv = GroupedFactor(index=inst.wa_cols, rows=rng.standard_normal((inst.wa_cols.num_groups, 2)))
    first = int(inst.wa_cols.representatives[2])
    col = {"first": first, "other": first + 1, "last": 39}[where]
    assert col == first or inst.wa_cols.group_of[col] == inst.wa_cols.group_of[col - 1]
    return inst, A, W, gu, gv.expand(), col


@pytest.mark.parametrize("where", ["first", "other", "last"])
def test_group_constant_v_with_one_changed_entry(monkeypatch, where):
    inst, A, W, gu, V, col = _changed_entry_case(monkeypatch, where)
    V[col, 1] += 0.75
    got = cost_grouped(inst, gu, V)
    assert got == pytest.approx(naive_weighted_cost(A, W, gu.expand(), V), rel=1e-12)
    assert got == pytest.approx(cost_dense(A, W, gu.expand(), V), rel=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "other", "last"])
def test_non_finite_v_gives_the_dense_result(monkeypatch, value, where):
    inst, A, W, gu, V, col = _changed_entry_case(monkeypatch, where)
    V[col, 0] = value
    got, want = cost_grouped(inst, gu, V), cost_dense(A, W, gu.expand(), V)
    assert not np.isfinite(want)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_group_constant_v_forms_one_column_per_group(monkeypatch):
    inst, _, _ = _planted(n=256, r=4, p=2, k_true=2, seed=8)
    rng = np.random.default_rng(34)
    gu = GroupedFactor(index=inst.wa_rows, rows=rng.standard_normal((8, 2)))
    gv = GroupedFactor(index=inst.wa_cols,
                       rows=rng.standard_normal((inst.wa_cols.num_groups, 2)))
    blocks = _record_blocks(monkeypatch)
    cost_grouped(inst, gu, gv.expand())
    assert sum(cols for _, cols in blocks) == inst.wa_cols.num_groups == 8
    blocks.clear()
    cost_grouped(inst, gu, rng.standard_normal((256, 2)))
    assert sum(cols for _, cols in blocks) == 256

import numpy as np
import pytest

from wlra import (GenSpec, GroupedFactor, build_instance, compress_factor, cost_dense,
                  cost_grouped, cost_grouped_cols, generate)
from wlra import weighted_cost

from oracles import naive_weighted_cost


def _planted(**kw):
    """A generated instance with its dense matrices: (inst, A, W)."""
    A, W = generate(GenSpec(**kw))
    return build_instance(A, W), A, W


def _count_row_terms(monkeypatch):
    """Count the residual row terms that the cost evaluators compute."""
    calls = []
    kernel = weighted_cost._row_residual_sq

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(weighted_cost, "_row_residual_sq", counted)
    return calls


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
    gu = compress_factor(U, inst.wa_rows)
    calls = _count_row_terms(monkeypatch)
    got = cost_grouped(inst, gu, V)
    assert len(calls) == n
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
    calls = _count_row_terms(monkeypatch)
    cost_grouped(inst, gu, rng.standard_normal((256, 2)))
    assert len(calls) == inst.wa_rows.num_groups == 8


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


def test_compress_expand_identity():
    inst, _, _ = _planted(n=20, r=2, p=2, k_true=2, seed=3)
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((inst.wa_rows.num_groups, 3))
    gf = GroupedFactor(index=inst.wa_rows, rows=rows)
    back = compress_factor(gf.expand(), inst.wa_rows)
    assert np.array_equal(back.rows, rows)


def test_compress_rejects_non_constant_factor():
    inst, _, _ = _planted(n=20, r=2, p=2, k_true=2, seed=3)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 2))  # generic, not group-constant
    with pytest.raises(ValueError):
        compress_factor(X, inst.wa_rows)


def test_cost_dense_sums_rows_exactly_rounded():
    # row terms 1e16, 1 and 1: a naive running sum rounds each 1 away
    A = np.array([[1e8], [1.0], [1.0]])
    zeros = np.zeros((3, 1))
    assert cost_dense(A, np.ones((3, 1)), zeros, np.zeros((1, 1))) == 1e16 + 2.0

import numpy as np
import pytest

from wlra import (GenSpec, GroupedFactor, SolveOptions, build_instance, col_certificates,
                  compress_factor, cost_dense, cost_grouped, gaussian_sketch, generate,
                  generate_compressed, generate_with_factors, grouped_als, min_norm_solve,
                  row_certificates, sketch_dim, solve, update_cols, update_rows)
from wlra.grouped_als import _init_factor

from oracles import cramer_inverse_3x3, power_iteration_rank_k_residual, rowwise_weighted_lstsq


def _opts(**kw):
    base = dict(k=3, eps=0.25, max_sweeps=30, rel_tol=1e-9, seed=0)
    base.update(kw)
    return SolveOptions(**base)


def _planted(**kw):
    """A generated instance with its dense matrices: (inst, A, W)."""
    A, W = generate(GenSpec(**kw))
    return build_instance(A, W), A, W


def _random_factor(index, k, rng):
    """A factor drawn per group of index."""
    return GroupedFactor(index=index, rows=rng.standard_normal((index.num_groups, k)))


def _count_calls(monkeypatch, name):
    """Record the arguments of every call to grouped_als.<name>."""
    calls = []
    fn = getattr(grouped_als, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(grouped_als, name, counted)
    return calls


# ---------------------------------------------------------------------------
# min_norm_solve


def test_min_norm_identity_padded():
    D = np.hstack([np.eye(3), np.zeros((3, 5))])
    target = np.zeros(8)
    target[0] = 1.0
    assert np.allclose(min_norm_solve(D, target), [1.0, 0.0, 0.0])


def test_min_norm_zero_design():
    assert np.array_equal(min_norm_solve(np.zeros((3, 6)), np.ones(6)), np.zeros(3))


def test_min_norm_matches_cramer_normal_equations():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((3, 8))
    b = rng.standard_normal(8)
    want = cramer_inverse_3x3(D @ D.T) @ (D @ b)
    got = min_norm_solve(D, b)
    assert got == pytest.approx(want, rel=1e-10)


def test_min_norm_rank_deficient_splits_weight():
    d = np.array([1.0, 2.0, -1.0, 0.5])
    D = np.vstack([d, d])
    b = np.array([2.0, 4.0, -2.0, 1.0])
    x = min_norm_solve(D, b)
    # consistent rank-1 system: total coefficient 2, shared equally
    assert x == pytest.approx([1.0, 1.0], rel=1e-12)


def test_min_norm_non_finite_rejected():
    with pytest.raises(ValueError):
        min_norm_solve(np.array([[np.inf, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        min_norm_solve(np.ones((1, 2)), np.array([np.nan, 1.0]))


def test_min_norm_shape_errors():
    with pytest.raises(ValueError):
        min_norm_solve(np.ones((2, 3)), np.ones(4))


# ---------------------------------------------------------------------------
# update_rows / update_cols


def test_update_rows_unweighted_projection():
    rng = np.random.default_rng(1)
    n, k = 16, 3
    A = rng.standard_normal((n, n))
    inst = build_instance(A, np.ones((n, n)))
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    gu = update_rows(inst, compress_factor(V, inst.wa_cols), None, _opts(sketchless=True))
    reps = inst.wa_rows.representatives
    assert gu.rows == pytest.approx(A[reps] @ V, rel=1e-10, abs=1e-12)


def test_update_rows_zero_weight_group():
    rng = np.random.default_rng(2)
    n = 6
    W = np.vstack([np.ones((3, n)), np.zeros((3, n))])
    A = rng.standard_normal((n, n))
    inst = build_instance(A, W)
    gv = _random_factor(inst.wa_cols, 2, rng)
    gu = update_rows(inst, gv, None, _opts(k=2, sketchless=True))
    U = gu.expand()
    assert np.all(U[3:] == 0.0)


def test_update_rows_matches_rowwise_oracle():
    inst, A, W = _planted(n=32, r=2, p=2, k_true=4, noise_sigma=0.3, seed=7)
    rng = np.random.default_rng(8)
    gv = _random_factor(inst.wa_cols, 3, rng)
    gu = update_rows(inst, gv, None, _opts(sketchless=True))
    want = rowwise_weighted_lstsq(A, W, gv.expand())
    got = gu.expand()
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-9 * scale


def test_update_rows_identity_embedding_equals_sketchless():
    inst, _, _ = _planted(n=20, r=2, p=2, k_true=2, noise_sigma=0.1, seed=3)
    rng = np.random.default_rng(4)
    gv = _random_factor(inst.wa_cols, 3, rng)
    width = inst.wa_cols.num_groups
    exact = update_rows(inst, gv, None, _opts(sketchless=True))
    via_identity = update_rows(inst, gv, np.eye(width), _opts())
    assert np.array_equal(exact.rows, via_identity.rows)


def test_update_rows_requires_sketch_when_not_sketchless():
    inst, _, _ = _planted(n=12, r=2, p=2, k_true=2, seed=5)
    gv = GroupedFactor(index=inst.wa_cols, rows=np.ones((inst.wa_cols.num_groups, 2)))
    width = inst.wa_cols.num_groups
    with pytest.raises(ValueError):
        update_rows(inst, gv, None, _opts(k=2))
    with pytest.raises(ValueError):
        update_rows(inst, gv, gaussian_sketch(0, 9, width - 1), _opts(k=2))
    with pytest.raises(ValueError):
        update_rows(inst, gv, gaussian_sketch(0, 9, width), _opts(k=2, sketchless=True))
    with pytest.raises(ValueError):  # V on the weight groups, not the refined ones
        update_rows(inst, GroupedFactor(index=inst.w_cols, rows=np.ones((2, 2))), None,
                    _opts(k=2, sketchless=True))


def test_update_rows_assembles_one_design_per_weight_pattern(monkeypatch):
    inst, _, _ = _planted(n=40, r=4, p=2, k_true=2, noise_sigma=0.1, seed=6)
    rng = np.random.default_rng(7)
    gv = _random_factor(inst.wa_cols, 3, rng)
    S = gaussian_sketch(5, 48, inst.wa_cols.num_groups)
    designs = _count_calls(monkeypatch, "sketched_design")
    regressions = _count_calls(monkeypatch, "_svd_apply")
    update_rows(inst, gv, S, _opts())
    assert len(designs) == inst.w_rows.num_groups == 4
    assert len(regressions) == inst.wa_rows.num_groups == 8


def test_update_cols_transpose_consistency():
    inst, _, _ = _planted(n=24, r=2, p=2, k_true=2, noise_sigma=0.1, seed=9)
    rng = np.random.default_rng(10)
    gu = _random_factor(inst.wa_rows, 3, rng)
    S = gaussian_sketch(21, 48, inst.wa_rows.num_groups)
    a = update_cols(inst, gu, S, _opts())
    b = update_rows(inst.transposed(), gu, S, _opts())
    assert np.array_equal(a.rows, b.rows)


def test_update_cols_unweighted_projection():
    rng = np.random.default_rng(11)
    n = 16
    A = rng.standard_normal((n, n))
    inst = build_instance(A, np.ones((n, n)))
    U = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    gv = update_cols(inst, compress_factor(U, inst.wa_rows), None, _opts(sketchless=True))
    reps = inst.wa_cols.representatives
    assert gv.rows == pytest.approx(A[:, reps].T @ U, rel=1e-10, abs=1e-12)


def test_certificates_small_after_sketchless_half_sweeps():
    inst, _, _ = _planted(n=48, r=3, p=2, k_true=4, noise_sigma=0.2, seed=12)
    rng = np.random.default_rng(13)
    gv = _random_factor(inst.wa_cols, 3, rng)
    gu = update_rows(inst, gv, None, _opts(sketchless=True))
    assert row_certificates(inst, gu, gv).max() <= 1e-8
    gv = update_cols(inst, gu, None, _opts(sketchless=True))
    assert col_certificates(inst, gv, gu).max() <= 1e-8


# ---------------------------------------------------------------------------
# solve


def test_solve_planted_rank_k_reaches_zero():
    A, W, U_pl, V_pl = generate_with_factors(GenSpec(n=48, r=2, p=2, k_true=3, seed=14))
    inst = build_instance(A, W)
    scale = float(np.sum((W * A) ** 2))
    assert cost_dense(A, W, U_pl, V_pl) <= 1e-16 * scale
    fact, rep = solve(inst, _opts(max_sweeps=50, rel_tol=0.0))
    assert rep.final_cost <= 1e-8 * scale


def test_solve_exact_rank_block_instance_all_ones_weight():
    # block-structured A of exact rank k under an unweighted objective
    rng = np.random.default_rng(25)
    blocks, reps, k = 8, 6, 3
    cell = rng.standard_normal((blocks, k)) @ rng.standard_normal((k, blocks))
    A = np.repeat(np.repeat(cell, reps, axis=0), reps, axis=1)
    n = blocks * reps
    inst = build_instance(A, np.ones((n, n)))
    _, rep = solve(inst, _opts(k=k, max_sweeps=50, rel_tol=0.0))
    assert rep.final_cost <= 1e-8 * float(np.sum(A * A))


def test_solve_unweighted_matches_truncated_svd_residual():
    rng = np.random.default_rng(15)
    n, k = 40, 2
    A = rng.standard_normal((n, n))
    inst = build_instance(A, np.ones((n, n)))
    _, rep = solve(inst, _opts(k=k, sketchless=True, max_sweeps=100, rel_tol=1e-12,
                               restarts=2))
    oracle = power_iteration_rank_k_residual(A, k, seed=1)
    assert rep.final_cost <= 1.01 * oracle
    assert rep.final_cost >= oracle * (1.0 - 1e-6)


def test_solve_sketchless_monotone_descent():
    inst, _, _ = _planted(n=40, r=2, p=2, k_true=5, noise_sigma=0.3, seed=16)
    _, rep = solve(inst, _opts(sketchless=True, max_sweeps=8, rel_tol=0.0))
    costs = rep.cost_per_sweep
    for a, b in zip(costs, costs[1:]):
        assert b <= a * (1.0 + 1e-12)


def test_solve_broadcast_consistency_and_counts():
    inst, _, _ = _planted(n=36, r=3, p=2, k_true=3, noise_sigma=0.1, seed=17)
    fact, rep = solve(inst, _opts(max_sweeps=5, rel_tol=0.0))
    for g in range(inst.wa_rows.num_groups):
        members = np.nonzero(inst.wa_rows.group_of == g)[0]
        assert np.all(fact.U[members] == fact.U[members[0]])
    assert all(c == inst.wa_rows.num_groups for c in rep.regressions_per_half_sweep[0::2])
    assert all(c == inst.wa_cols.num_groups for c in rep.regressions_per_half_sweep[1::2])
    sweeps = len(rep.cost_per_sweep) // 2
    assert rep.regressions_solved <= 2 * sweeps * inst.r * inst.p


def test_solve_final_cost_is_exact_and_bracketed():
    inst, A, W = _planted(n=32, r=2, p=2, k_true=4, noise_sigma=0.4, seed=18)
    fact, rep = solve(inst, _opts(max_sweeps=15))
    dense = cost_dense(A, W, fact.U, fact.V)
    assert abs(rep.final_cost - dense) <= 1e-9 * (1.0 + dense)
    lower_log2, upper = rep.bracket
    assert 0.0 <= rep.final_cost <= upper * (1.0 + 1e-9)
    assert np.isfinite(lower_log2)


def test_solve_sketched_close_to_sketchless_median():
    inst, _, _ = _planted(n=128, r=4, p=2, k_true=6, noise_sigma=0.1, seed=19)
    _, exact = solve(inst, _opts(sketchless=True, max_sweeps=30))
    ratios = []
    for seed in range(20):
        _, rep = solve(inst, _opts(max_sweeps=30, seed=seed))
        ratios.append(rep.final_cost / exact.final_cost)
    eps = 0.25
    assert np.median(ratios) <= 1.0 + 3.0 * eps


def test_solve_deterministic_and_seed_sensitive():
    inst, _, _ = _planted(n=32, r=2, p=2, k_true=3, noise_sigma=0.2, seed=20)
    f1, r1 = solve(inst, _opts(max_sweeps=6, seed=5))
    f2, r2 = solve(inst, _opts(max_sweeps=6, seed=5))
    assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)
    assert r1.cost_per_sweep == r2.cost_per_sweep
    assert r1.sketch_seeds == r2.sketch_seeds
    _, r3 = solve(inst, _opts(max_sweeps=6, seed=6))
    assert r3.cost_per_sweep != r1.cost_per_sweep


def test_solve_restarts_never_hurt():
    inst, _, _ = _planted(n=32, r=2, p=2, k_true=5, noise_sigma=0.3, seed=21)
    _, single = solve(inst, _opts(max_sweeps=10, seed=3))
    _, multi = solve(inst, _opts(max_sweeps=10, seed=3, restarts=3))
    assert multi.final_cost <= single.final_cost * (1.0 + 1e-12)


def test_solve_half_sweep_schedule(monkeypatch):
    # Row and column half-sweeps alternate; half-sweep i draws its t x width
    # sketch from run_seed ^ i, width being the other side's group count.
    rng = np.random.default_rng(22)
    cells = rng.standard_normal((4, 6))
    A = cells[np.arange(24) % 4][:, np.arange(24) % 6]
    inst = build_instance(A, np.ones((24, 24)))
    gr, gc = inst.wa_rows.num_groups, inst.wa_cols.num_groups
    assert (gr, gc) == (4, 6)
    draws = _count_calls(monkeypatch, "gaussian_sketch")
    for sketchless in (False, True):
        draws.clear()
        fact, rep = solve(inst, _opts(max_sweeps=4, rel_tol=0.0, seed=9, restarts=2,
                                      sketchless=sketchless))
        halves = len(rep.cost_per_sweep)
        assert halves == 8
        assert rep.regressions_per_half_sweep == [gr, gc] * 4
        assert rep.regressions_solved == 4 * (gr + gc)
        assert fact.grouped_u.index is inst.wa_rows
        assert fact.grouped_v.index is inst.wa_cols
        if sketchless:
            assert rep.sketch_seeds == [] and draws == []
        else:
            assert rep.sketch_seeds == [rep.run_seed ^ i for i in range(halves)]
            t = sketch_dim(3, 0.25)
            assert len(draws) == 2 * halves  # one draw per half-sweep of each restart
            mine = [d for d in draws if d[0] in rep.sketch_seeds]  # not the other restart's
            assert mine == [(seed, t, (gc, gr)[i % 2]) for i, seed in enumerate(rep.sketch_seeds)]


def test_solve_compressed_matches_dense_instance():
    spec = GenSpec(n=64, r=4, p=2, k_true=3, noise_sigma=0.1, seed=23)
    dense = build_instance(*generate(spec))
    comp = generate_compressed(spec)
    f1, r1 = solve(dense, _opts(max_sweeps=8))
    f2, r2 = solve(comp, _opts(max_sweeps=8))
    assert np.array_equal(f1.U, f2.U)
    assert r1.cost_per_sweep == r2.cost_per_sweep


def test_solve_rejects_k_larger_than_n():
    inst, _, _ = _planted(n=8, r=2, p=2, k_true=2, seed=24)
    with pytest.raises(ValueError):
        solve(inst, _opts(k=9))


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(k=0)
    with pytest.raises(ValueError):
        SolveOptions(k=2, eps=0.5)
    with pytest.raises(ValueError):
        SolveOptions(k=2, rel_tol=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(k=2, restarts=0)


def test_solve_exact_sweeps_match_n_wide_alternation():
    # The grid solve against per-row normal equations over all n rows and
    # columns, started from the same expanded factor.
    inst, A, W = _planted(n=40, r=2, p=3, k_true=5, noise_sigma=0.3, seed=26)
    opts = _opts(sketchless=True, max_sweeps=3, rel_tol=0.0, seed=4)
    _, rep = solve(inst, opts)
    V = _init_factor(inst, rep.run_seed, opts.k).expand()
    want = []
    for _ in range(3):
        U = rowwise_weighted_lstsq(A, W, V)
        want.append(cost_dense(A, W, U, V))
        V = rowwise_weighted_lstsq(A.T, W.T, U)
        want.append(cost_dense(A, W, U, V))
    gap = np.abs(np.array(rep.cost_per_sweep) - want).max()
    assert len(rep.cost_per_sweep) == 6 and gap <= 1e-9 * rep.bracket[1]


def test_solve_returns_best_iterate():
    # Sketched sweeps are not monotone; on random 0/1 weights the last
    # iterate is usually not the best one reached.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((64, 64))
        W = rng.integers(0, 2, size=(64, 64)).astype(float)
        inst = build_instance(A, W)
        fact, rep = solve(inst, _opts(k=4, eps=0.4, max_sweeps=20, rel_tol=0.0, seed=seed))
        assert rep.final_cost == min(rep.cost_per_sweep)
        grid = cost_grouped(inst, fact.grouped_u, fact.grouped_v)
        assert grid == pytest.approx(rep.final_cost, rel=1e-12)
        assert cost_dense(A, W, fact.U, fact.V) == pytest.approx(rep.final_cost, rel=1e-9)

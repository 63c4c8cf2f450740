import tracemalloc
import weakref

import numpy as np
import pytest

from wlra import (WEIGHT_STYLES, GenSpec, GroupedFactor, SolveOptions, StructuredInstance,
                  build_instance, cost_dense, cost_grouped, gaussian_sketch, generate,
                  generate_compressed, generate_with_factors, grouped_als, row_certificates,
                  sketch_dim, solve, update_rows)
from wlra.grouped_als import _RANK_TOLERANCE, _init_factor

from oracles import (lstsq_grid_rows, min_norm_solve, power_iteration_rank_k_residual,
                     rowwise_weighted_lstsq)


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


def _count_calls(monkeypatch, name, owner=grouped_als):
    """Record the positional arguments of every call to owner.<name>."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# SolveOptions


@pytest.mark.parametrize("field", ["eps", "rel_tol"])
def test_options_reject_nan(field):
    with pytest.raises(ValueError, match=field):
        _opts(**{field: float("nan")})


# ---------------------------------------------------------------------------
# update_rows, on the instance and on its transpose


def test_update_rows_unweighted_projection():
    rng = np.random.default_rng(1)
    n, k = 16, 3
    A = rng.standard_normal((n, n))
    inst = build_instance(A, np.ones((n, n)))
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    gv = GroupedFactor(index=inst.wa_cols, rows=V[inst.wa_cols.representatives])
    gu = update_rows(inst.row_system(), gv)
    reps = inst.wa_rows.representatives
    assert gu.rows == pytest.approx(A[reps] @ V, rel=1e-10, abs=1e-12)


def test_update_rows_zero_weight_group():
    rng = np.random.default_rng(2)
    n = 6
    W = np.vstack([np.ones((3, n)), np.zeros((3, n))])
    A = rng.standard_normal((n, n))
    inst = build_instance(A, W)
    gv = _random_factor(inst.wa_cols, 2, rng)
    gu = update_rows(inst.row_system(), gv)
    U = gu.expand()
    assert np.all(U[3:] == 0.0)


def test_update_rows_matches_rowwise_oracle():
    inst, A, W = _planted(n=32, r=2, p=2, k_true=4, noise_sigma=0.3, seed=7)
    rng = np.random.default_rng(8)
    gv = _random_factor(inst.wa_cols, 3, rng)
    gu = update_rows(inst.row_system(), gv)
    want = rowwise_weighted_lstsq(A, W, gv.expand())
    got = gu.expand()
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-9 * scale


def test_update_rows_identity_embedding_equals_sketchless():
    inst, _, _ = _planted(n=20, r=2, p=2, k_true=2, noise_sigma=0.1, seed=3)
    rng = np.random.default_rng(4)
    gv = _random_factor(inst.wa_cols, 3, rng)
    width = inst.wa_cols.num_groups
    exact = update_rows(inst.row_system(), gv)
    via_identity = update_rows(inst.row_system(), gv, np.eye(width))
    assert np.array_equal(exact.rows, via_identity.rows)


def test_update_rows_requires_sketch_when_not_sketchless():
    inst, _, _ = _planted(n=12, r=2, p=2, k_true=2, seed=5)
    gv = GroupedFactor(index=inst.wa_cols, rows=np.ones((inst.wa_cols.num_groups, 2)))
    width = inst.wa_cols.num_groups
    with pytest.raises(ValueError):
        update_rows(inst.row_system(), gv, gaussian_sketch(0, 9, width - 1))
    with pytest.raises(ValueError):  # V on the weight groups, not the refined ones
        update_rows(inst.row_system(), GroupedFactor(index=inst.w_cols, rows=np.ones((2, 2))))


def test_update_rows_assembles_one_design_per_weight_pattern(monkeypatch):
    inst, _, _ = _planted(n=40, r=4, p=2, k_true=2, noise_sigma=0.1, seed=6)
    system = inst.row_system()
    rng = np.random.default_rng(7)
    gv = _random_factor(inst.wa_cols, 3, rng)
    S = gaussian_sketch(5, 48, inst.wa_cols.num_groups)
    pseudo_inverses = grouped_als._pseudo_inverses
    designs = _count_calls(monkeypatch, "sketched_design")
    inverses = _count_calls(monkeypatch, "_pseudo_inverses")
    svds = _count_calls(monkeypatch, "svd", owner=np.linalg)
    rows = update_rows(system, gv, S).rows
    ((_, weights, _),) = designs  # one call, one weight row per weight pattern
    assert weights.shape[0] == inst.w_rows.num_groups == 4
    assert len(svds) == 1
    assert len(inverses) == 1
    ((stacked,),) = inverses
    assert stacked.shape == (4, 3, 48)
    P, targets = pseudo_inverses(stacked), system.targets @ S.T
    assert sum(members.size for members in system.members) == inst.wa_rows.num_groups == 8
    for g, members in enumerate(system.members):  # one block product per weight group
        assert np.array_equal(rows[members], targets[members] @ P[g])


def _mixed_instance():
    """(inst, k): weight groups that are zero, rank-deficient, single- and many-row.

    The same four weight classes index rows and columns.  Class 1 has zero
    weight.  Class 0 is weighted only on class 2, whose two columns are one
    refined group, so its design has rank 1 < k, shared by four distinct
    rows.  Class 2's two rows are one refined row; class 3's four are four.
    A is not symmetric, so the transposed instance is a different problem
    with the same shape of groups.
    """
    rng = np.random.default_rng(31)
    classes = np.array([0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 3, 3])
    grid = np.array([[0.0, 0.0, 0.7, 0.0],
                     [0.0, 0.0, 0.0, 0.0],
                     [0.7, 0.0, 1.3, 0.4],
                     [0.0, 0.0, 0.4, 2.1]])
    W = grid[np.ix_(classes, classes)]
    A = rng.standard_normal(W.shape)
    A[7] = A[6]
    A[:, 7] = A[:, 6]
    return build_instance(A, W), 3


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("sketched", [False, True])
def test_update_rows_matches_min_norm_solve_per_row(transposed, sketched):
    inst, k = _mixed_instance()
    if transposed:
        inst = inst.transposed()
    gv = _random_factor(inst.wa_cols, k, np.random.default_rng(32))
    Z = gv.rows.T
    system = inst.row_system()
    weights, targets = system.weights, system.targets
    parents = inst.w_rows.group_of[inst.wa_rows.representatives]
    members = np.bincount(parents)
    designs = [Z * w for w in weights]
    # The cases the kernel must get right: a zero design, a rank-deficient
    # design shared by more than one row, and weight groups of one and of
    # several rows.
    assert np.any(weights.max(axis=1) == 0.0)
    assert any(np.linalg.matrix_rank(d) < k and members[g] > 1 for g, d in enumerate(designs))
    assert members.min() == 1 and members.max() > 1
    S = None
    if sketched:
        S = gaussian_sketch(33, sketch_dim(k, 0.25), inst.wa_cols.num_groups)
        designs = [d @ S.T for d in designs]
        targets = targets @ S.T
    got = update_rows(system, gv, S).rows
    want = np.array([min_norm_solve(designs[parents[g]], targets[g], _RANK_TOLERANCE)
                     for g in range(inst.wa_rows.num_groups)])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("sketched", [False, True])
def test_update_rows_matches_lstsq_per_row(transposed, sketched):
    inst, k = _mixed_instance()
    if transposed:
        inst = inst.transposed()
    system = inst.row_system()
    gv = _random_factor(inst.wa_cols, k, np.random.default_rng(36))
    S = gaussian_sketch(37, sketch_dim(k, 0.25), inst.wa_cols.num_groups) if sketched else None
    want = lstsq_grid_rows(system, gv, S, _RANK_TOLERANCE)
    assert np.abs(update_rows(system, gv, S).rows - want).max() <= 1e-10 * np.abs(want).max()


def test_update_cols_unweighted_projection():
    rng = np.random.default_rng(11)
    n = 16
    A = rng.standard_normal((n, n))
    inst = build_instance(A, np.ones((n, n)))
    U = np.linalg.qr(rng.standard_normal((n, 3)))[0]
    gu = GroupedFactor(index=inst.wa_rows, rows=U[inst.wa_rows.representatives])
    gv = update_rows(inst.transposed().row_system(), gu)
    reps = inst.wa_cols.representatives
    assert gv.rows == pytest.approx(A[:, reps].T @ U, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("transposed", [False, True])
def test_row_certificates_match_per_row_reference(transposed):
    inst, k = _mixed_instance()
    if transposed:
        inst = inst.transposed()
    rng = np.random.default_rng(34)
    gv, gu = _random_factor(inst.wa_cols, k, rng), _random_factor(inst.wa_rows, k, rng)
    Z = gv.rows.T
    system = inst.row_system()
    weights, targets, members = system.weights, system.targets, system.members
    want = np.empty(inst.wa_rows.num_groups)
    for w, rows in zip(weights, members):
        D = Z * w
        for g in rows:
            resid = np.abs(D @ (D.T @ gu.rows[g] - targets[g])).max()
            denom = np.linalg.norm(D) * np.linalg.norm(targets[g])
            want[g] = resid / denom if denom != 0.0 else (0.0 if resid == 0.0 else np.inf)
    (zero,) = np.nonzero(weights.max(axis=1) == 0.0)[0]
    got = row_certificates(system, gu, gv)
    assert np.all(got[members[zero]] == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert row_certificates(system, update_rows(system, gv), gv).max() <= 1e-8


def test_row_certificates_reject_a_factor_on_other_row_groups():
    inst, _, _ = _planted(n=48, r=3, p=2, k_true=4, noise_sigma=0.2, seed=12)
    assert (inst.w_rows.num_groups, inst.wa_rows.num_groups) == (3, 6)
    rng = np.random.default_rng(35)
    gv, on_weights = _random_factor(inst.wa_cols, 3, rng), _random_factor(inst.w_rows, 3, rng)
    with pytest.raises(ValueError, match="row groups"):
        row_certificates(inst.row_system(), on_weights, gv)


def test_certificates_small_after_sketchless_half_sweeps():
    inst, _, _ = _planted(n=48, r=3, p=2, k_true=4, noise_sigma=0.2, seed=12)
    rng = np.random.default_rng(13)
    gv = _random_factor(inst.wa_cols, 3, rng)
    gu = update_rows(inst.row_system(), gv)
    assert row_certificates(inst.row_system(), gu, gv).max() <= 1e-8
    gv = update_rows(inst.transposed().row_system(), gu)
    assert row_certificates(inst.transposed().row_system(), gv, gu).max() <= 1e-8


# ---------------------------------------------------------------------------
# solve


def test_solve_planted_rank_k_reaches_zero():
    A, W, U_pl, V_pl = generate_with_factors(GenSpec(n=48, r=2, p=2, k_true=3, seed=14))
    inst = build_instance(A, W)
    scale = float(np.sum((W * A) ** 2))
    assert cost_dense(A, W, U_pl, V_pl) <= 1e-16 * scale
    fact, rep = solve(inst, _opts(max_sweeps=50, rel_tol=0.0))
    assert rep.final_cost <= 1e-8 * scale


@pytest.mark.parametrize("sketchless", [False, True])
def test_solve_stops_after_the_sweep_that_reaches_zero_cost(sketchless):
    # With rel_tol = 0 only a sweep that raises the cost, or a zero cost, stops a run early.
    _, W = generate(GenSpec(n=32, r=4, p=2, k_true=2, weight_style="block_mask01", seed=3))
    inst = build_instance(np.zeros_like(W), W)
    _, rep = solve(inst, _opts(k=2, sketchless=sketchless, max_sweeps=5, rel_tol=0.0))
    assert rep.cost_per_sweep == [0.0, 0.0]
    assert rep.final_cost == 0.0
    assert len(rep.sketch_seeds) == (0 if sketchless else 2)


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
    assert sum(rep.regressions_per_half_sweep) <= 2 * sweeps * inst.r * inst.p


@pytest.mark.parametrize("restarts", [1, 2])
def test_solve_builds_one_row_system_per_side_per_run(monkeypatch, restarts):
    # One per side per run, none for upper_bound; none outlives its run.
    # solve expands no factor, so none is alive when a caller expands one.
    inst, _, _ = _planted(n=36, r=3, p=2, k_true=3, noise_sigma=0.1, seed=17)
    built, alive_at_expand = [], []
    row_system, expand = StructuredInstance.row_system, GroupedFactor.expand

    def recorded_row_system(self):
        system = row_system(self)
        built.append(weakref.ref(system))
        return system

    def checked_expand(self):
        alive_at_expand.append(sum(ref() is not None for ref in built))
        return expand(self)

    monkeypatch.setattr(StructuredInstance, "row_system", recorded_row_system)
    monkeypatch.setattr(GroupedFactor, "expand", checked_expand)
    fact, rep = solve(inst, _opts(max_sweeps=3, rel_tol=0.0, restarts=restarts))
    assert len(rep.cost_per_sweep) == 6
    assert len(built) == 2 * restarts
    assert alive_at_expand == []
    assert fact.U.shape == fact.V.shape == (36, 3)
    assert alive_at_expand == [0, 0]


def test_factors_expand_once_on_first_read():
    inst, _, _ = _planted(n=36, r=3, p=2, k_true=3, noise_sigma=0.1, seed=17)
    fact, _ = solve(inst, _opts(max_sweeps=3))
    assert fact.U is fact.U and fact.V is fact.V
    assert fact.U.tobytes() == fact.grouped_u.expand().tobytes()
    assert fact.V.tobytes() == fact.grouped_v.expand().tobytes()


def test_solve_allocates_nothing_n_wide():
    # One n x 3 factor at n = 2^20 is 24 MiB; the solve returns grouped rows.
    inst = generate_compressed(GenSpec(n=1 << 20, r=4, p=4, k_true=3, noise_sigma=0.1, seed=3))
    opts = SolveOptions(k=3, max_sweeps=3, rel_tol=0.0, sketchless=True)
    solve(inst, opts)  # warm: lazy imports and caches
    tracemalloc.start()
    try:
        solve(inst, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("scaled", ["A", "W"])
@pytest.mark.parametrize("j", [-3, 5])
@pytest.mark.parametrize("sketchless", [False, True])
@pytest.mark.parametrize("style", WEIGHT_STYLES)
def test_power_of_two_scaling_is_exact(style, sketchless, j, scaled):
    # Every step is homogeneous in A and in W, and a power of two rounds
    # nothing, so costs scale by exactly 4^j; U V^T scales by 2^j with A and
    # stays put with W.  A tolerance that is not relative breaks this.
    A, W = generate(GenSpec(n=96, r=4, p=2, k_true=3, noise_sigma=0.1, weight_style=style,
                            seed=11))
    opts = SolveOptions(k=3, max_sweeps=6, seed=5, sketchless=sketchless)
    base, rep = solve(build_instance(A, W), opts)
    c = 2.0 ** j
    fact, got = solve(build_instance(c * A, W) if scaled == "A" else build_instance(A, c * W),
                      opts)
    assert got.final_cost == c * c * rep.final_cost
    assert got.cost_per_sweep == [c * c * cost for cost in rep.cost_per_sweep]
    assert got.bracket[1] == c * c * rep.bracket[1]
    want = base.U @ base.V.T
    assert np.array_equal(fact.U @ fact.V.T, c * want if scaled == "A" else want)


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
        assert sum(rep.regressions_per_half_sweep) == 4 * (gr + gc)
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

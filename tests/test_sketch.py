import numpy as np
import pytest

from wlra import gaussian_sketch, min_norm_solve, sketch_dim, sketched_design

from oracles import triple_loop_matmul


def test_sketch_dim_worked_values():
    assert sketch_dim(3, 0.1, 4.0) == 120
    assert sketch_dim(1, 0.49, 4.0) == 9
    assert sketch_dim(5, 0.25, 1.0) == 20


def test_sketch_dim_clamp_active():
    # tiny c makes the formula smaller than k + 1
    assert sketch_dim(5, 0.49, 0.01) == 6


def test_sketch_dim_eps_range():
    for eps in (0.0, -0.1, 0.5, 0.7):
        with pytest.raises(ValueError):
            sketch_dim(3, eps)


def test_gaussian_sketch_deterministic():
    a = gaussian_sketch(7, 4, 4)
    b = gaussian_sketch(7, 4, 4)
    assert np.array_equal(a, b)
    assert a.shape == (4, 4)


def test_gaussian_sketch_seed_sensitivity():
    a = gaussian_sketch(1, 6, 5)
    b = gaussian_sketch(2, 6, 5)
    assert np.any(a != b)


def test_gaussian_sketch_moments():
    t = n = 1000
    S = gaussian_sketch(123, t, n)
    var = S.var()
    assert abs(var - 1.0 / t) <= 0.05 / t
    assert abs(S.mean()) <= 3.0 / t  # mean of t*n samples of sd 1/sqrt(t)


def test_gaussian_sketch_bad_shape():
    with pytest.raises(ValueError):
        gaussian_sketch(0, 0, 4)
    with pytest.raises(ValueError):
        gaussian_sketch(0, 4, 0)


def test_identity_embedding_is_sketchless_limit():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((3, 7))
    w = rng.standard_normal(7)
    got = sketched_design(Z, w, np.eye(7))
    assert np.array_equal(got, Z * w)


def test_zero_weights_zero_design():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((2, 5))
    S = gaussian_sketch(3, 4, 5)
    assert np.all(sketched_design(Z, np.zeros(5), S) == 0.0)


def test_sketched_design_matches_triple_loop():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((2, 6))
    w = rng.standard_normal(6)
    S = gaussian_sketch(9, 3, 6)
    got = sketched_design(Z, w, S)
    want = triple_loop_matmul(Z * w, S.T)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_sketched_design_shape_errors():
    S = gaussian_sketch(0, 3, 5)
    with pytest.raises(ValueError):
        sketched_design(np.ones((2, 4)), np.ones(4), S)
    with pytest.raises(ValueError):
        sketched_design(np.ones((2, 5)), np.ones(4), S)


def test_sketched_least_squares_fidelity():
    # with t = sketch_dim(k, 0.1), sketched solutions stay within 1.5x of
    # the optimal residual in at least 95% of 200 seeded trials
    k, n = 3, 200
    t = sketch_dim(k, 0.1)
    hits = 0
    trials = 200
    rng = np.random.default_rng(77)
    for trial in range(trials):
        D = rng.standard_normal((n, k))
        b = rng.standard_normal(n)
        x_opt = np.linalg.lstsq(D, b, rcond=None)[0]
        opt = np.linalg.norm(D @ x_opt - b)
        S = gaussian_sketch(trial, t, n)
        y = min_norm_solve((S @ D).T, S @ b)
        if np.linalg.norm(D @ y - b) <= 1.5 * opt:
            hits += 1
    assert hits >= 0.95 * trials

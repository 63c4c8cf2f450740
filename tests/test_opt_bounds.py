import math
import warnings

import numpy as np
import pytest

from wlra import (WEIGHT_STYLES, BoundParams, GenSpec, GroupedFactor, SolveOptions,
                  build_instance, cost_dense, cost_grouped, default_gamma, generate,
                  generate_compressed, iteration_budget, lower_bound_log2, solve, upper_bound)


def test_upper_bound_zero_target():
    inst = build_instance(np.zeros((4, 4)), np.ones((4, 4)))
    assert upper_bound(inst) == 0.0


def test_upper_bound_unit_entries():
    inst = build_instance(np.ones((4, 4)), np.ones((4, 4)))
    assert upper_bound(inst) == 16.0


def test_upper_bound_matches_zero_factor_cost():
    A, W = generate(GenSpec(n=24, r=2, p=2, k_true=3, noise_sigma=0.2, seed=1))
    inst = build_instance(A, W)
    want = cost_dense(A, W, np.zeros((24, 2)), np.zeros((24, 2)))
    assert upper_bound(inst) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("style", WEIGHT_STYLES)
@pytest.mark.parametrize("n, r, p", [(24, 2, 2), (1024, 2, 3), (4096, 8, 4), (65536, 16, 8)])
def test_upper_bound_is_the_zero_factorization_cost(style, n, r, p):
    # The grid sum against the residual kernel run on zero factors.
    for seed in (1, 2):
        inst = generate_compressed(GenSpec(n=n, r=r, p=p, k_true=2, noise_sigma=0.2,
                                           weight_style=style, seed=seed))
        zero_u = GroupedFactor(index=inst.wa_rows, rows=np.zeros((inst.wa_rows.num_groups, 1)))
        zero_v = GroupedFactor(index=inst.wa_cols, rows=np.zeros((inst.wa_cols.num_groups, 1)))
        assert upper_bound(inst) == pytest.approx(cost_grouped(inst, zero_u, zero_v), rel=1e-15)


@pytest.mark.parametrize("entries", [
    {(0, 0): 1e200},  # a square that overflows
    {(0, 0): 1.2e154, (2, 3): 1.2e154},  # finite squares whose sum overflows
])
def test_overflowing_norm_rejected_without_warning(entries):
    A = np.zeros((8, 8))
    for ij, value in entries.items():
        A[ij] = value
    inst = build_instance(A, np.ones((8, 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: upper_bound(inst), lambda: solve(inst, SolveOptions(k=1))):
            with pytest.raises(ValueError, match="squared norm overflows"):
                call()


def test_lower_bound_hand_value():
    params = BoundParams(n=5, gamma=0.0, k=1, r=1, eps=1.0)
    assert lower_bound_log2(params) == -2.0


def test_lower_bound_monotone_in_k():
    base = BoundParams(n=64, gamma=0.2, k=2, r=3, eps=0.25)
    doubled = BoundParams(n=64, gamma=0.2, k=4, r=3, eps=0.25)
    assert lower_bound_log2(doubled) < lower_bound_log2(base)


def test_lower_bound_gamma_scaling():
    flat = BoundParams(n=16, gamma=0.0, k=2, r=2, eps=0.5)
    scaled = BoundParams(n=16, gamma=0.5, k=2, r=2, eps=0.5)
    assert lower_bound_log2(scaled) == pytest.approx(4.0 * lower_bound_log2(flat), rel=1e-12)


def test_lower_bound_finite_in_supported_regime():
    for r in (1, 2, 4, 8):
        for k in (1, 2):
            for eps in (0.25, 1.0):
                if r * k * k / eps <= 64:
                    params = BoundParams(n=2 ** 32, gamma=1.0, k=k, r=r, eps=eps)
                    assert math.isfinite(lower_bound_log2(params))


def test_lower_bound_overflow_sentinel():
    params = BoundParams(n=4, gamma=0.5, k=8, r=64, eps=1e-4)
    assert lower_bound_log2(params) == -math.inf


def test_iteration_budget_hand_value():
    params = BoundParams(n=2, gamma=0.0, k=1, r=1, eps=1.0, c_exp=1.0, c_poly=1.0)
    assert iteration_budget(params) == 2


def test_iteration_budget_power_of_two_gap():
    # upper term c_poly*log2(2) + 2^0 = 1022; lower = -2; gap = 1024
    params = BoundParams(n=2, gamma=0.0, k=1, r=1, eps=1.0, c_poly=1021.0)
    assert iteration_budget(params) == 10


def test_iteration_budget_monotone():
    base = BoundParams(n=64, gamma=0.1, k=1, r=1, eps=0.5)
    for variant in (BoundParams(n=64, gamma=0.1, k=2, r=1, eps=0.5),
                    BoundParams(n=64, gamma=0.1, k=1, r=3, eps=0.5),
                    BoundParams(n=64, gamma=0.4, k=1, r=1, eps=0.5)):
        assert iteration_budget(variant) >= iteration_budget(base)


def test_iteration_budget_requires_finite_lower_bound():
    params = BoundParams(n=4, gamma=0.5, k=8, r=64, eps=1e-4)
    with pytest.raises(OverflowError):
        iteration_budget(params)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        BoundParams(n=0, gamma=0.0, k=1, r=1, eps=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=4, gamma=-0.1, k=1, r=1, eps=0.5)
    with pytest.raises(ValueError):
        BoundParams(n=4, gamma=0.0, k=1, r=1, eps=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma"):
            BoundParams(n=4, gamma=bad, k=1, r=1, eps=0.5)
        with pytest.raises(ValueError, match="eps"):
            BoundParams(n=4, gamma=0.0, k=1, r=1, eps=bad)
    with pytest.raises(ValueError, match="constants"):
        BoundParams(n=4, gamma=0.0, k=1, r=1, eps=0.5, c_exp=math.nan)


def test_default_gamma():
    assert default_gamma(4096) == pytest.approx(0.5)
    assert default_gamma(64) == 1.0
    assert default_gamma(2) == 1.0  # capped
    assert 0.0 < default_gamma(65536) < 0.5

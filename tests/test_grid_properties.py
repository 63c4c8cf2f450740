"""Property tests of the group-grid design: the grid is the dense problem.

The grid cost equals the dense cost, the grid updates commute with row and
column permutations of (A, W), transposing the instance swaps the roles of
U and V, and a planted instance built from its grids equals the one
detected from its dense matrices.
"""

import numpy as np
import pytest

from wlra import (WEIGHT_STYLES, GenSpec, GroupedFactor, SolveOptions, build_instance,
                  compress_factor, cost_dense, cost_grouped, cost_grouped_cols,
                  gaussian_sketch, generate, generate_compressed, update_cols, update_rows)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def _matrix(draw, n, values):
    """An n x n matrix repeating a few base rows and columns, so groups form."""
    k_rows, k_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = np.array(draw(st.lists(st.lists(st.sampled_from(values), min_size=k_cols,
                                           max_size=k_cols),
                                  min_size=k_rows, max_size=k_rows)))
    rows = draw(st.lists(st.integers(0, k_rows - 1), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, k_cols - 1), min_size=n, max_size=n))
    return base[rows][:, cols]


@st.composite
def _problem(draw):
    """(A, W, k, rng): a small structured instance and a factor generator."""
    n = draw(st.integers(1, 12))
    W = draw(_matrix(n, [0.0, 0.5, 1.0, 2.0]))
    A = draw(_matrix(n, [-2.0, -1.0, 0.0, 1.0, 3.0]))
    k = draw(st.integers(1, 3))
    return A, W, k, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def _factor(index, k, rng):
    return GroupedFactor(index=index, rows=rng.standard_normal((index.num_groups, k)))


def _close(got, want):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return np.allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


def _assert_same_instance(got, want):
    """Bitwise equal partitions, grids, r and p."""
    for name in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.axis == b.axis
        for field in ("group_of", "representatives", "sizes"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    for grid in ("weights", "targets"):
        a, b = getattr(got, grid), getattr(want, grid)
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert (got.r, got.p) == (want.r, want.p)


@SETTINGS
@hypothesis.given(_problem())
def test_grid_cost_equals_dense_cost(problem):
    A, W, k, rng = problem
    inst = build_instance(A, W)
    gu, gv = _factor(inst.wa_rows, k, rng), _factor(inst.wa_cols, k, rng)
    dense = cost_dense(A, W, gu.expand(), gv.expand())
    assert cost_grouped(inst, gu, gv) == pytest.approx(dense, rel=1e-12, abs=1e-12)
    assert cost_grouped(inst, gu, gv.expand()) == pytest.approx(dense, rel=1e-12, abs=1e-12)


@SETTINGS
@hypothesis.given(_problem(), st.data())
def test_updates_and_cost_equivariant_under_permutations(problem, data):
    A, W, k, rng = problem
    n = A.shape[0]
    P = np.array(data.draw(st.permutations(range(n))))
    Q = np.array(data.draw(st.permutations(range(n))))
    inst = build_instance(A, W)
    perm = build_instance(A[P][:, Q], W[P][:, Q])
    opts = SolveOptions(k=k, sketchless=True)

    gv = _factor(inst.wa_cols, k, rng)
    gv_p = compress_factor(gv.expand()[Q], perm.wa_cols)
    gu = update_rows(inst, gv, None, opts)
    gu_p = update_rows(perm, gv_p, None, opts)
    assert _close(gu_p.expand(), gu.expand()[P])
    assert cost_grouped(perm, gu_p, gv_p) == pytest.approx(cost_grouped(inst, gu, gv),
                                                           rel=1e-9, abs=1e-9)

    gu = _factor(inst.wa_rows, k, rng)
    gu_p = compress_factor(gu.expand()[P], perm.wa_rows)
    assert _close(update_cols(perm, gu_p, None, opts).expand(),
                  update_cols(inst, gu, None, opts).expand()[Q])


@SETTINGS
@hypothesis.given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 20), st.integers(1, 3),
                  st.sampled_from([0.0, 0.3]), st.sampled_from(WEIGHT_STYLES),
                  st.integers(0, 2 ** 32 - 1))
def test_planted_grids_equal_detected_grids(r, p, extra, k_true, noise, style, seed):
    spec = GenSpec(n=r * p + extra + 2, r=r, p=p, k_true=k_true, noise_sigma=noise,
                   weight_style=style, seed=seed)
    _assert_same_instance(generate_compressed(spec), build_instance(*generate(spec)))


@SETTINGS
@hypothesis.given(_problem(), st.integers(1, 8), st.integers(0, 2 ** 64 - 1))
def test_transposing_swaps_u_and_v(problem, t, seed):
    A, W, k, rng = problem
    inst = build_instance(A, W)
    flipped = inst.transposed()
    _assert_same_instance(flipped, build_instance(A.T, W.T))

    gu, gv = _factor(inst.wa_rows, k, rng), _factor(inst.wa_cols, k, rng)
    for S in (None, gaussian_sketch(seed, t, inst.wa_rows.num_groups)):
        opts = SolveOptions(k=k, sketchless=S is None)
        got = update_cols(inst, gu, S, opts)
        want = update_rows(flipped, gu, S, opts)
        assert got.index is inst.wa_cols
        assert got.rows.tobytes() == want.rows.tobytes()

    swapped = cost_grouped_cols(inst, gv, gu)
    assert swapped == cost_grouped(flipped, gv, gu)
    assert swapped == pytest.approx(cost_grouped(inst, gu, gv), rel=1e-12, abs=1e-12)

"""Property tests of the group-grid design: the grid is the dense problem.

The grid cost equals the dense cost, the grid updates commute with row and
column permutations of (A, W), transposing the instance swaps the roles of
U and V, a planted instance built from its grids equals the one detected
from its dense matrices, and build_instance's one pass over (A, W) finds
what detecting W's groups and refining them by W*A finds.
"""

import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wlra import cli, pattern_index
from wlra.cli import read_instance, write_instance
from wlra.grouped_als import _RANK_TOLERANCE
from wlra import (WEIGHT_STYLES, GenSpec, GroupedFactor, build_instance,
                  cost_dense, cost_grouped, cost_grouped_cols, detect_groups, gaussian_sketch,
                  generate, generate_compressed, refine, row_certificates, update_rows)

from oracles import lstsq_grid_rows

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


def _assert_same_partition(a, b):
    for field in ("group_of", "representatives", "sizes"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def _assert_same_instance(got, want):
    """Bitwise equal partitions, grids, r and p."""
    for name in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
        _assert_same_partition(getattr(got, name), getattr(want, name))
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

    gv = _factor(inst.wa_cols, k, rng)
    gv_p = GroupedFactor(index=perm.wa_cols, rows=gv.expand()[Q][perm.wa_cols.representatives])
    assert np.array_equal(gv_p.expand(), gv.expand()[Q])  # constant on the permuted groups
    gu = update_rows(inst.row_system(), gv)
    gu_p = update_rows(perm.row_system(), gv_p)
    assert _close(gu_p.expand(), gu.expand()[P])
    assert cost_grouped(perm, gu_p, gv_p) == pytest.approx(cost_grouped(inst, gu, gv),
                                                           rel=1e-9, abs=1e-9)

    gu = _factor(inst.wa_rows, k, rng)
    gu_p = GroupedFactor(index=perm.wa_rows, rows=gu.expand()[P][perm.wa_rows.representatives])
    assert np.array_equal(gu_p.expand(), gu.expand()[P])
    assert _close(update_rows(perm.transposed().row_system(), gu_p).expand(),
                  update_rows(inst.transposed().row_system(), gu).expand()[Q])


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
    built = build_instance(A.T, W.T)
    _assert_same_instance(flipped, built)
    system, built_system = flipped.row_system(), built.row_system()
    for grid in (system.weights, system.targets):
        assert grid.flags.c_contiguous

    gu, gv = _factor(inst.wa_rows, k, rng), _factor(inst.wa_cols, k, rng)
    gu_built = GroupedFactor(index=built.wa_cols, rows=gu.rows)
    for S in (None, gaussian_sketch(seed, t, inst.wa_rows.num_groups)):
        got = update_rows(system, gu, S)
        want = update_rows(built_system, gu_built, S)
        assert got.index is inst.wa_cols
        assert got.rows.tobytes() == want.rows.tobytes()
        got_cert = row_certificates(system, got, gu)
        want_cert = row_certificates(built_system, want, gu_built)
        assert got_cert.tobytes() == want_cert.tobytes()

    swapped = cost_grouped_cols(inst, gv, gu)
    assert swapped == cost_grouped(flipped, gv, gu)
    assert swapped == pytest.approx(cost_grouped(inst, gu, gv), rel=1e-12, abs=1e-12)


@SETTINGS
@hypothesis.given(_problem(), st.integers(1, 4), st.integers(1, 3),
                  st.sampled_from(WEIGHT_STYLES), st.integers(0, 2 ** 32 - 1))
def test_row_system_members_split_refined_rows_by_weight_row(problem, r, p, style, seed):
    A, W, _, _ = problem
    built = build_instance(A, W)
    planted = generate_compressed(GenSpec(n=r * p + 2, r=r, p=p, k_true=1,
                                          weight_style=style, seed=seed))
    for inst in (built, built.transposed(), planted, planted.transposed()):
        members = inst.row_system().members
        parents = inst.w_rows.group_of[inst.wa_rows.representatives]
        assert len(members) == inst.w_rows.num_groups
        assert np.array_equal(np.sort(np.concatenate(members)),
                              np.arange(inst.wa_rows.num_groups))
        for group, rows in enumerate(members):
            assert rows.size > 0 and np.all(np.diff(rows) > 0)
            assert np.all(parents[rows] == group)


@SETTINGS
@hypothesis.given(_problem(), st.integers(1, 4), st.integers(1, 3),
                  st.sampled_from(WEIGHT_STYLES), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_update_rows_matches_lstsq_on_built_and_planted(problem, r, p, style, t, seed):
    A, W, k, rng = problem
    built = build_instance(A, W)
    planted = generate_compressed(GenSpec(n=r * p + 2, r=r, p=p, k_true=1,
                                          weight_style=style, seed=seed))
    for inst in (built, built.transposed(), planted, planted.transposed()):
        system = inst.row_system()
        gv = _factor(inst.wa_cols, k, rng)
        for S in (None, gaussian_sketch(seed, t, inst.wa_cols.num_groups)):
            want = lstsq_grid_rows(system, gv, S, _RANK_TOLERANCE)
            got = update_rows(system, gv, S).rows
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _laid_out(M, layout, flips):
    """M with the zeros at flips made -0.0, in C, F or strided layout."""
    M = M.copy()
    M[(M == 0) & flips] = -0.0
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "strided":
        return np.repeat(M, 2, axis=1)[:, ::2]
    return np.ascontiguousarray(M)


_LAYOUTS = st.sampled_from(["C", "F", "strided"])


@SETTINGS
@hypothesis.given(st.integers(1, 40), st.sampled_from([[0.0, 1.0], [0.0, 0.5, 1.0, 2.0]]),
                  st.data(), _LAYOUTS, _LAYOUTS)
def test_build_instance_equals_detect_then_refine(n, weight_values, data, a_layout, w_layout):
    # 0/1 or general weights, +-0.0 in both matrices, each in C, F or
    # strided layout (so also mixed): the fused pass equals the two steps.
    flips = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).random((2, n, n)) < 0.5
    W = _laid_out(data.draw(_matrix(n, weight_values)), w_layout, flips[0])
    A = _laid_out(data.draw(_matrix(n, [-2.0, 0.0, 1.0, 3.0])), a_layout, flips[1])
    inst = build_instance(A, W)
    WA = W * A
    w_rows, w_cols = detect_groups(W, "rows"), detect_groups(W, "cols")
    wa_rows, wa_cols = refine(w_rows, WA), refine(w_cols, WA, "cols")
    for got, want in ((inst.w_rows, w_rows), (inst.w_cols, w_cols),
                      (inst.wa_rows, wa_rows), (inst.wa_cols, wa_cols)):
        _assert_same_partition(got, want)
    weights = W[np.ix_(w_rows.representatives, w_cols.representatives)]
    targets = WA[np.ix_(wa_rows.representatives, wa_cols.representatives)]
    assert inst.weights.tobytes() == weights.tobytes()
    assert inst.targets.tobytes() == targets.tobytes()


def _instance_file(path, A, W):
    """An instance file of A and W; W None writes no weights (read as all ones)."""
    if W is not None:
        write_instance(path, A, W)
    else:
        path.write_bytes(struct.pack("<4sHQH", b"WLRA", 1, A.shape[0], 0)
                         + np.ascontiguousarray(A, dtype="<f8").tobytes())


@SETTINGS
@hypothesis.given(st.integers(1, 40), st.booleans(), st.sampled_from([1, 256, 1 << 18]),
                  st.data())
def test_file_streamed_instance_equals_build_instance_of_read(n, with_weights, block_bytes,
                                                              data):
    # 0/1 weights or none, +-0.0 in both matrices, one row per block up to
    # the whole matrix in one: what solve and verify detect while reading
    # the file is what build_instance finds on the matrices read from it.
    flips = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).random((2, n, n)) < 0.5
    W = _laid_out(data.draw(_matrix(n, [0.0, 1.0])), "C", flips[0]) if with_weights else None
    A = _laid_out(data.draw(_matrix(n, [-2.0, 0.0, 1.0, 3.0])), "C", flips[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.wlra"
        _instance_file(path, A, W)
        want = build_instance(*read_instance(path)[:2])
        with mock.patch.object(pattern_index, "_BLOCK_BYTES", block_bytes):
            got, _ = cli._load(path)
    _assert_same_instance(got, want)

"""Property tests: group detection equals the brute-force oracle."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wlra import build_instance, cli, detect_groups, pattern_index
from wlra.cli import write_instance

from oracles import brute_force_groups, brute_force_instance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# +-0.0, 0/1 and small integers: the values whose IEEE bits share long runs
# of trailing zeros, where a weak hash would collide.
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0, -7.0])


@st.composite
def _structured(draw):
    """A matrix built from a few base vectors, in C, Fortran or strided layout."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    k_rows, k_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = np.array(draw(st.lists(st.lists(_VALUES, min_size=k_cols, max_size=k_cols),
                                  min_size=k_rows, max_size=k_rows)))
    rows = draw(st.lists(st.integers(0, k_rows - 1), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, k_cols - 1), min_size=m, max_size=m))
    M = base[rows][:, cols]
    signs = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
    M[(M == 0) & signs.reshape(n, m)] = -0.0
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(M)
    if layout == "strided":
        return np.repeat(M, 2, axis=0)[::2]
    return np.ascontiguousarray(M)


@hypothesis.settings(derandomize=True, database=None, max_examples=150, deadline=None)
@hypothesis.given(_structured())
def test_detect_groups_equals_brute_force(M):
    for axis in ("rows", "cols"):
        idx = detect_groups(M, axis)
        want_groups, want_reps = brute_force_groups(M, axis, 0.0)
        assert np.array_equal(idx.group_of, want_groups)
        assert np.array_equal(idx.representatives, want_reps)


def _tiled(draw, n):
    """An n x n matrix whose rows and columns repeat a few base vectors, zeros signed at random."""
    k_rows, k_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    base = np.array(draw(st.lists(st.lists(_VALUES, min_size=k_cols, max_size=k_cols),
                                  min_size=k_rows, max_size=k_rows)))
    rows = draw(st.lists(st.integers(0, k_rows - 1), min_size=n, max_size=n))
    cols = draw(st.lists(st.integers(0, k_cols - 1), min_size=n, max_size=n))
    M = base[rows][:, cols]
    signs = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)))
    M[(M == 0) & signs.reshape(n, n)] = -0.0
    return M


@st.composite
def _weighted(draw):
    """(A, W) in C or Fortran layout, and the rows per detection block."""
    n = draw(st.integers(1, 24))
    A, W = _tiled(draw, n), _tiled(draw, n)
    if draw(st.booleans()):
        A, W = np.asfortranarray(A), np.asfortranarray(W)
    return A, W, draw(st.integers(1, 4))


@hypothesis.settings(derandomize=True, database=None, max_examples=100, deadline=None)
@hypothesis.given(_weighted())
def test_build_instance_and_streamed_file_equal_brute_force(case):
    A, W, block_rows = case
    parts, weights, targets = brute_force_instance(A, W)
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(pattern_index, "_BLOCK_BYTES", 8 * A.shape[1] * block_rows)):
        path = Path(tmp) / "inst.wlra"
        write_instance(path, A, W)
        detected = [build_instance(A, W), cli._load(path)[0]]
    for inst in detected:
        inst.validate()
        for name, (groups, reps) in parts.items():
            assert np.array_equal(getattr(inst, name).group_of, groups)
            assert np.array_equal(getattr(inst, name).representatives, reps)
        assert inst.weights.tobytes() == weights.tobytes()
        assert inst.targets.tobytes() == targets.tobytes()

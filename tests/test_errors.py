"""Each library precondition raises ValueError with its own message."""

from dataclasses import replace

import numpy as np
import pytest

from wlra import (BoundParams, GenSpec, GroupedFactor, PatternIndex, SolveOptions, cost_dense,
                  cost_grouped, detect_groups, generate_attention_mask, generate_compressed,
                  keyed_normals, sketch_dim)


def _inst():
    # n = 8, two weight bands of 4, each split into two refined bands of 2.
    return generate_compressed(GenSpec(n=8, r=2, p=2, k_true=1, seed=1))


# Four groups of 8 indices; group 2 = {3, 4} crosses the weight bands {0..3}, {4..7}.
_CROSSING = PatternIndex.from_labels(np.array([0, 0, 1, 2, 2, 3, 3, 3]))


def _validate(**fields):
    def call():
        inst = _inst()
        replace(inst, **{name: field(inst) for name, field in fields.items()}).validate()
    return call


def _cost_grouped_of_a_wide_v():
    inst = _inst()
    gu = GroupedFactor(index=inst.wa_rows, rows=np.zeros((inst.wa_rows.num_groups, 2)))
    cost_grouped(inst, gu, np.zeros((8, 3)))


CASES = [
    ("pattern index length does not match n",
     _validate(wa_cols=lambda inst: PatternIndex.from_labels(np.zeros(9)))),
    ("weight grid shape does not match the weight groups",
     _validate(weights=lambda inst: inst.weights[:, :1])),
    ("target grid shape does not match the refined groups",
     _validate(targets=lambda inst: inst.targets[:3])),
    ("masked row groups do not refine weight row groups",
     _validate(wa_rows=lambda inst: _CROSSING)),
    ("masked column groups do not refine weight column groups",
     _validate(wa_cols=lambda inst: _CROSSING)),
    ("expected a 2-D matrix", lambda: detect_groups(np.zeros((2, 2, 2)))),
    ("cannot group an empty index set", lambda: detect_groups(np.zeros((0, 3)))),
    ("factor heights must match A",
     lambda: cost_dense(np.zeros((4, 4)), np.ones((4, 4)), np.zeros((3, 1)), np.zeros((4, 1)))),
    ("V shape does not conform to the instance and factor", _cost_grouped_of_a_wide_v),
    ("count must be nonnegative", lambda: keyed_normals(0, 0, -1)),
    ("k must be positive", lambda: sketch_dim(0, 0.25)),
    ("r must be positive", lambda: BoundParams(n=4, gamma=1.0, k=1, r=0, eps=0.25)),
    ("max_sweeps must be positive", lambda: SolveOptions(k=1, max_sweeps=0)),
    ("n and block must be positive", lambda: generate_attention_mask(0, 1)),
]


@pytest.mark.parametrize("message, call", CASES, ids=[case[0] for case in CASES])
def test_precondition_raises_its_message(message, call):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_instance_of_the_cases_is_valid():
    _inst().validate()
    assert _CROSSING.num_groups == _inst().wa_rows.num_groups == 4


def test_zero_normals_are_an_empty_float64_array():
    z = keyed_normals(3, 5, 0)
    assert z.shape == (0,) and z.dtype == np.float64

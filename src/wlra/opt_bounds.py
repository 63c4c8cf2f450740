"""Numeric bracket around the optimal objective value.

The upper bound is the cost of the zero factorization.  The lower bound
on any nonzero optimum is astronomically small and only meaningful in the
log2 domain: it quantifies the bit budget a certifying binary search over
the bracket would need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Not called here: the benchmark's tracer wraps this name in this module.
from .weighted_cost import cost_grouped  # noqa: F401


@dataclass(frozen=True)
class BoundParams:
    """Inputs to the bracket calculators.

    gamma is the bits-per-entry exponent (entries take n**gamma bits).
    c_exp and c_poly stand in for the constants hidden in the soft-O of
    the lower bound and the poly(n) of the upper bound; both default to 1
    because the calculators exist to make the bracket arithmetic
    executable, not to claim tight constants.
    """

    n: int
    gamma: float
    k: int
    r: int
    eps: float
    c_exp: float = 1.0
    c_poly: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (0 <= self.gamma < math.inf):
            raise ValueError("gamma must be finite and nonnegative")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.r < 1:
            raise ValueError("r must be positive")
        if not (0 < self.eps < math.inf):
            raise ValueError("eps must be finite and positive")
        if not (self.c_exp > 0 and self.c_poly > 0):
            raise ValueError("constants must be positive")


def default_gamma(n: int) -> float:
    """Bits-per-entry exponent for 64-bit float entries: n**gamma = 64, capped at 1."""
    if n < 2:
        return 1.0
    return min(1.0, math.log(64.0) / math.log(n))


def upper_bound(inst) -> float:
    """Cost of the zero factorization, a valid upper bound for every instance.

    That cost is the squared norm of W*A: each refined block's squared
    target counted size_g * size_h times, summed on the grid with
    math.fsum over the row groups.  Raises ValueError if it overflows a
    float: no bound or cost of such an instance could be printed true.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (inst.targets ** 2) @ inst.wa_cols.sizes * inst.wa_rows.sizes
            bound = math.fsum(terms.tolist())
    except OverflowError:  # math.fsum of finite terms whose sum overflows
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError("the weighted target's squared norm overflows")
    return bound


def lower_bound_log2(params: BoundParams) -> float:
    """log2 of the smallest possible nonzero optimum for the given parameters.

    Returns -n**gamma * 2**(c_exp * q * log2(max(2, q))) with
    q = r * k**2 / eps, computed entirely in the log2 domain.  When the
    magnitude exceeds the float range the sentinel -inf is returned;
    callers can test math.isinf as the overflow flag.
    """
    q = params.r * params.k ** 2 / params.eps
    inner = params.c_exp * q * math.log2(max(2.0, q))
    total_log2 = params.gamma * math.log2(params.n) + inner
    if total_log2 > 1023.0:
        return float("-inf")
    return -(2.0 ** total_log2)


def iteration_budget(params: BoundParams) -> int:
    """Binary-search iterations needed to walk the bracket down to the lower bound.

    The upper end in the log2 domain is c_poly * log2(n) + n**gamma (the
    zero factorization costs at most poly(n) * 2**(n**gamma)); the lower
    end comes from lower_bound_log2.  Requires a finite lower bound.
    """
    lower = lower_bound_log2(params)
    if math.isinf(lower):
        raise OverflowError("lower bound overflowed; iteration budget is not representable")
    upper_log2_term = params.c_poly * math.log2(params.n) + params.n ** params.gamma
    gap = upper_log2_term - lower
    return max(1, math.ceil(math.log2(gap)))

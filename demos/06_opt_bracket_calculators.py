"""The bracket around the optimal cost, in executable form.

The zero factorization gives a concrete upper bound.  The lower bound on
a nonzero optimum is doubly exponential in the structure parameters and
only lives in the log2 domain; together they yield the bit budget a
certifying binary search over the bracket would need.
"""

import math

from wlra import (BoundParams, GenSpec, build_instance, generate, iteration_budget,
                  lower_bound_log2, upper_bound)

inst = build_instance(*generate(GenSpec(n=64, r=4, p=2, k_true=3, noise_sigma=0.2, seed=5)))
print(f"upper bound ||W o A||_F^2 = {upper_bound(inst):.6e}")

print("\nlower bound exponent and search budget as structure grows:")
print(f"{'r':>3} {'k':>3} {'eps':>5} {'log2(lower)':>14} {'budget':>8}")
for r, k, eps in [(1, 1, 0.25), (2, 2, 0.25), (4, 2, 0.25), (4, 3, 0.25), (4, 3, 0.1)]:
    params = BoundParams(n=4096, gamma=0.5, k=k, r=r, eps=eps)
    low = lower_bound_log2(params)
    budget = "overflow" if math.isinf(low) else iteration_budget(params)
    print(f"{r:>3} {k:>3} {eps:>5} {low:>14.4e} {budget:>8}")

# past the supported regime the log-domain value itself overflows and the
# calculator reports a sentinel instead of garbage
huge = BoundParams(n=4096, gamma=0.5, k=8, r=64, eps=1e-4)
print(f"\nextreme parameters: lower_bound_log2 = {lower_bound_log2(huge)} (overflow sentinel)")

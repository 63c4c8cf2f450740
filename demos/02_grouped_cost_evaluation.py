"""Grouped cost evaluation: same value as the dense objective, r*p work.

The dense evaluator walks all n rows; the grouped one touches one
representative per distinct masked-target row and multiplies by the group
size, so it evaluates one residual row per group instead of n.
"""

import time

import numpy as np

from wlra import GenSpec, GroupedFactor, build_instance, cost_dense, cost_grouped, generate

n = 2048
A, W = generate(GenSpec(n=n, r=4, p=2, k_true=4, noise_sigma=0.2, seed=1))
inst = build_instance(A, W)
rng = np.random.default_rng(2)
k = 4
grouped_u = GroupedFactor(index=inst.wa_rows,
                          rows=rng.standard_normal((inst.wa_rows.num_groups, k)))
V = rng.standard_normal((n, k))

tic = time.perf_counter()
fast = cost_grouped(inst, grouped_u, V)
fast_s = time.perf_counter() - tic

tic = time.perf_counter()
exact = cost_dense(A, W, grouped_u.expand(), V)
dense_s = time.perf_counter() - tic

print(f"n = {n}, masked row groups = {inst.wa_rows.num_groups}")
print(f"grouped cost : {fast:.12e}   ({fast_s * 1e3:7.2f} ms, "
      f"{inst.wa_rows.num_groups} representative rows)")
print(f"dense cost   : {exact:.12e}   ({dense_s * 1e3:7.2f} ms, {n} rows)")
print(f"relative gap : {abs(fast - exact) / (1 + exact):.3e}  (tolerance 1e-9)")

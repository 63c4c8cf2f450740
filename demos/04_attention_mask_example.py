"""Weighted low-rank approximation under an attention-style mask.

A block-causal 0/1 mask has as many distinct rows as it has block-rows,
so a masked attention matrix is exactly the structured regime: the solver
factors the masked target at a fraction of the dense cost and certifies
the result against the zero-factorization upper bound.
"""

import numpy as np

from wlra import SolveOptions, build_instance, cost_dense, generate_attention_mask, solve

n, block, k = 256, 32, 4
W = generate_attention_mask(n, block)

# a smooth low-rank-ish "attention" target, constant on blocks plus decay
rng = np.random.default_rng(4)
blocks = n // block
scores = rng.standard_normal((blocks, 6)) @ rng.standard_normal((6, blocks))
A = np.repeat(np.repeat(np.exp(scores / 4.0), block, axis=0), block, axis=1)

inst = build_instance(A, W)
print(f"mask: {blocks} block-rows -> r = {inst.r}, masked groups = {inst.wa_rows.num_groups}")

fact, report = solve(inst, SolveOptions(k=k, eps=0.25, max_sweeps=50, seed=0))
lower_log2, upper = report.bracket
print(f"upper bound (zero factors) : {upper:.6e}")
print(f"achieved lambda            : {report.final_cost:.6e}")
print(f"lambda / upper             : {report.final_cost / upper:.3e}")
print(f"theoretical lower bound    : 2^{lower_log2} "
      "(the exponent leaves float range at this r and k)")

check = cost_dense(A, W, fact.U, fact.V)
print(f"dense recheck of lambda    : {check:.6e}")
print(f"factor shapes              : U {fact.U.shape}, V {fact.V.shape}")

"""Sketched sweeps against the exact (sketchless) oracle.

Runs the alternating solver twice on one structured instance: once with
exact per-group regressions, once with Gaussian sketches of dimension
O(k/eps) over the refined column groups.  The sketched run trades a small
cost inflation for designs of width t instead of the column group count.
"""

from wlra import GenSpec, SolveOptions, build_instance, generate, sketch_dim, solve

inst = build_instance(*generate(GenSpec(n=512, r=4, p=2, k_true=6, noise_sigma=0.1, seed=3)))
k, eps = 3, 0.25
print(f"n = {inst.n}, r = {inst.r}, p = {inst.p}, k = {k}, eps = {eps}, "
      f"sketch dim t = {sketch_dim(k, eps)}")

_, exact = solve(inst, SolveOptions(k=k, sketchless=True, max_sweeps=30, seed=0))
_, sketched = solve(inst, SolveOptions(k=k, eps=eps, max_sweeps=30, seed=0))

print("\nhalf-sweep cost trajectories (first 8 entries):")
print("  exact   :", " ".join(f"{c:10.4e}" for c in exact.cost_per_sweep[:8]))
print("  sketched:", " ".join(f"{c:10.4e}" for c in sketched.cost_per_sweep[:8]))

ratio = sketched.final_cost / exact.final_cost
print(f"\nfinal exact    : {exact.final_cost:.6e}")
print(f"final sketched : {sketched.final_cost:.6e}   ({ratio:.4f}x, budget 1+3*eps = {1 + 3 * eps})")
print(f"regressions per half-sweep: {sketched.regressions_per_half_sweep[0]} "
      f"(= r*p, independent of n)")
print(f"sketch seeds used: {sketched.sketch_seeds[:4]} ...")

"""Sweep time that does not grow with n, measured.

Generates instances straight from their planted grids (partitions and
small grids only, no dense n x n payload) at doubling sizes and times full
sweeps.  The solver runs on the group grid, so with (r, p, k, eps) fixed
the per-sweep time stays flat in n; the log-log slope makes that concrete.
The CLI equivalent is:

    wlra bench --sizes 4096 8192 16384 32768 65536 --r 4 --p 4 --k 3 \
        --eps 0.25 --sweeps 3 --trials 3 --out bench.csv
"""

import numpy as np

from wlra import GenSpec, SolveOptions, generate_compressed, solve

sizes = [2048, 4096, 8192, 16384, 32768]
medians = []
for n in sizes:
    times = []
    for trial in range(3):
        inst = generate_compressed(GenSpec(n=n, r=4, p=4, k_true=3, seed=trial))
        _, rep = solve(inst, SolveOptions(k=3, eps=0.25, max_sweeps=3,
                                          rel_tol=0.0, seed=trial))
        halves = rep.sweep_wall_times
        times.extend(halves[i] + halves[i + 1] for i in range(0, len(halves), 2))
    medians.append(float(np.median(times)))
    print(f"n = {n:6d}   median sweep {medians[-1] * 1e3:8.2f} ms   "
          f"regressions/half-sweep {rep.regressions_per_half_sweep[0]}")

# least squares on log2/log2, smallest size dropped as warm-up
x = np.log2(sizes[1:])
y = np.log2(medians[1:])
slope = float(np.polyfit(x, y, 1)[0])
print(f"\nlog-log slope (smallest size dropped): {slope:.3f}  "
      f"(0 is flat, 1.0 would be linear in n)")

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
alongside the pytest verdicts.  Every tolerance is pinned here.
"""

import csv
import math
import time

import numpy as np

from wlra import (BoundParams, GenSpec, GroupedFactor, SolveOptions,
                  build_instance, col_certificates, cost_dense, cost_grouped,
                  detect_groups, generate, generate_compressed,
                  iteration_budget, lower_bound_log2, refine, row_certificates,
                  solve, update_cols, update_rows, upper_bound)
from wlra.cli import main as cli_main

from oracles import power_iteration_rank_k_residual


def _gate(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_grouped_dense_equivalence():
    tic = time.perf_counter()
    combos = [(n, r, p) for n in (32, 64, 128, 256) for r in (1, 2, 4) for p in (1, 2, 4)]
    worst = 0.0
    for i in range(100):
        n, r, p = combos[i % len(combos)]
        A, W = generate(GenSpec(n=n, r=r, p=p, k_true=3, noise_sigma=0.2, seed=i))
        inst = build_instance(A, W)
        rng = np.random.default_rng(1000 + i)
        gu = GroupedFactor(index=inst.wa_rows,
                           rows=rng.standard_normal((inst.wa_rows.num_groups, 3)))
        V = rng.standard_normal((n, 3))
        cg = cost_grouped(inst, gu, V)
        cd = cost_dense(A, W, gu.expand(), V)
        worst = max(worst, abs(cg - cd) / (1.0 + cd))
    elapsed = time.perf_counter() - tic
    ok = worst <= 1e-9 and elapsed < 30.0
    _gate(1, ok, f"100 instances, worst |grouped-dense|/(1+dense) = {worst:.3e} "
                 f"(tol 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_2_eckart_young_oracle():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    n, k = 128, 4
    A = rng.standard_normal((n, n))
    inst = build_instance(A, np.ones((n, n)))
    opts = SolveOptions(k=k, sketchless=True, restarts=3, max_sweeps=100,
                        rel_tol=1e-12, seed=0)
    _, rep = solve(inst, opts)
    oracle = power_iteration_rank_k_residual(A, k, seed=3)
    ratio = rep.final_cost / oracle
    elapsed = time.perf_counter() - tic
    ok = ratio <= 1.01 and elapsed < 20.0
    _gate(2, ok, f"sketchless cost / truncated-SVD residual = {ratio:.8f} "
                 f"(tol 1.01), {elapsed:.1f}s (< 20s)")


def test_criterion_3_sketchless_monotone_descent():
    # rank(A) is min(k_true, r*p); keeping r*p and k_true above k makes the
    # optimum positive, so the relative slack stays meaningful
    combos = [(n, r, p, style)
              for n in (32, 48, 64)
              for (r, p) in ((2, 2), (4, 2), (2, 4), (1, 4))
              for style in ("block_random", "attention_block")]
    worst_rise = 0.0
    for i in range(50):
        n, r, p, style = combos[i % len(combos)]
        inst = build_instance(*generate(GenSpec(n=n, r=r, p=p, k_true=6, noise_sigma=0.3,
                                                weight_style=style, seed=i)))
        _, rep = solve(inst, SolveOptions(k=3, sketchless=True, max_sweeps=6,
                                          rel_tol=0.0, seed=i))
        costs = rep.cost_per_sweep
        for a, b in zip(costs, costs[1:]):
            if a > 0:
                worst_rise = max(worst_rise, (b - a) / a)
    ok = worst_rise <= 1e-12
    _gate(3, ok, f"50 instances, worst per-step relative rise = {worst_rise:.3e} "
                 f"(slack 1e-12)")


def test_criterion_4_per_row_optimality_certificates():
    worst = 0.0
    for seed in range(6):
        inst = build_instance(*generate(GenSpec(n=48, r=3, p=2, k_true=5, noise_sigma=0.3,
                                                seed=seed)))
        opts = SolveOptions(k=3, sketchless=True, seed=seed)
        rng = np.random.default_rng(seed)
        gv = GroupedFactor(index=inst.wa_cols,
                           rows=rng.standard_normal((inst.wa_cols.num_groups, 3)))
        for _ in range(3):
            gu = update_rows(inst, gv, None, opts)
            worst = max(worst, float(row_certificates(inst, gu, gv).max()))
            gv = update_cols(inst, gu, None, opts)
            worst = max(worst, float(col_certificates(inst, gv, gu).max()))
    ok = worst <= 1e-8
    _gate(4, ok, f"worst normal-equations residual / (design x target scale) "
                 f"= {worst:.3e} (tol 1e-8)")


def test_criterion_5_sketch_quality():
    tic = time.perf_counter()
    ratios = []
    for seed in range(20):
        inst = generate_compressed(GenSpec(n=1024, r=4, p=2, k_true=6,
                                           noise_sigma=0.1, seed=seed))
        _, exact = solve(inst, SolveOptions(k=3, sketchless=True, max_sweeps=40,
                                            rel_tol=1e-7, seed=seed))
        _, sketched = solve(inst, SolveOptions(k=3, eps=0.25, max_sweeps=40,
                                               rel_tol=1e-7, seed=seed))
        ratios.append(sketched.final_cost / exact.final_cost)
    median = float(np.median(ratios))
    elapsed = time.perf_counter() - tic
    ok = median <= 1.0 + 3.0 * 0.25 and elapsed < 120.0
    _gate(5, ok, f"20 instances, median sketched/sketchless = {median:.4f} "
                 f"(tol 1.75), {elapsed:.1f}s (< 2min)")


def test_criterion_6_planted_recovery():
    worst_ratio = 0.0
    worst_sweeps = 0
    for seed in range(10):
        inst = build_instance(*generate(GenSpec(n=96, r=3, p=2, k_true=3, noise_sigma=0.0,
                                                seed=seed)))
        upper = upper_bound(inst)
        _, rep = solve(inst, SolveOptions(k=3, eps=0.25, max_sweeps=50,
                                          rel_tol=0.0, seed=seed))
        worst_ratio = max(worst_ratio, rep.final_cost / upper)
        worst_sweeps = max(worst_sweeps, len(rep.cost_per_sweep) // 2)
    ok = worst_ratio <= 1e-8 and worst_sweeps <= 50
    _gate(6, ok, f"10 seeds, worst final/||W*A||_F^2 = {worst_ratio:.3e} "
                 f"(tol 1e-8), worst sweeps = {worst_sweeps} (<= 50)")


def test_criterion_7_subquadratic_scaling(tmp_path, capsys):
    tic = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = cli_main(["bench", "--sizes", "4096", "8192", "16384", "32768", "65536",
                     "--r", "4", "--p", "4", "--k", "3", "--eps", "0.25",
                     "--sweeps", "3", "--trials", "3", "--out", str(out)])
    elapsed = time.perf_counter() - tic
    stdout = capsys.readouterr().out
    assert code == 0
    slope = float([l for l in stdout.splitlines() if l.startswith("slope")][0].split()[1])
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    reg_counts = {int(row["regressions"]) for row in rows}
    sizes_seen = {int(row["n"]) for row in rows}
    regs_ok = reg_counts == {16} and not (reg_counts & sizes_seen)
    ok = slope <= 1.3 and regs_ok and elapsed < 600.0
    _gate(7, ok, f"log-log slope = {slope:.3f} (tol 1.3), regressions/half-sweep = "
                 f"{sorted(reg_counts)} (= wa groups, never n), {elapsed:.0f}s (< 10min)")


def test_criterion_8_bracket_sanity():
    lam_ok = True
    for seed in range(8):
        inst = build_instance(*generate(GenSpec(n=48, r=2, p=2, k_true=4, noise_sigma=0.3,
                                                seed=seed)))
        sketchless = seed % 2 == 0
        _, rep = solve(inst, SolveOptions(k=3, sketchless=sketchless,
                                          max_sweeps=12, seed=seed))
        lower_log2, upper = rep.bracket
        lam_ok &= 0.0 <= rep.final_cost <= upper * (1.0 + 1e-9)
        lam_ok &= math.isfinite(lower_log2)

    finite_ok = True
    for r in (1, 2, 4, 8, 16):
        for k in (1, 2):
            for eps in (0.25, 0.5, 1.0):
                if r * k * k / eps <= 64:
                    params = BoundParams(n=1 << 32, gamma=1.0, k=k, r=r, eps=eps)
                    finite_ok &= math.isfinite(lower_bound_log2(params))

    budgets_ok = (
        iteration_budget(BoundParams(n=2, gamma=0.0, k=1, r=1, eps=1.0)) == 2
        and iteration_budget(BoundParams(n=2, gamma=0.0, k=1, r=1, eps=1.0,
                                         c_poly=1021.0)) == 10
        and iteration_budget(BoundParams(n=64, gamma=0.3, k=2, r=2, eps=0.5))
        >= iteration_budget(BoundParams(n=64, gamma=0.3, k=1, r=2, eps=0.5))
    )
    ok = lam_ok and finite_ok and budgets_ok
    _gate(8, ok, f"upper >= lambda >= 0 on all solves: {lam_ok}; lower bound finite "
                 f"on rk^2/eps <= 64: {finite_ok}; worked budgets match: {budgets_ok}")


def test_criterion_9_pattern_round_trip():
    planted_ok = True
    specs = [GenSpec(n=n, r=r, p=p, k_true=2, weight_style=style, seed=seed)
             for (n, r, p) in ((16, 1, 1), (32, 2, 2), (48, 4, 2), (64, 4, 4))
             for style in ("block_random", "block_mask01", "attention_block")
             for seed in (0, 1)]
    for spec in specs:
        inst = build_instance(*generate(spec))
        planted_ok &= (inst.w_rows.num_groups == spec.r
                       and inst.w_cols.num_groups == spec.r
                       and inst.wa_rows.num_groups == spec.r * spec.p
                       and inst.wa_cols.num_groups == spec.r * spec.p
                       and inst.r == spec.r and inst.p == spec.p)

    refine_ok = True
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(2, 24))
        outer_key = rng.integers(0, 4, size=(n, 2)).astype(float)
        inner_key = rng.integers(0, 3, size=(n, 2)).astype(float)
        outer = detect_groups(outer_key, "rows")
        refined = refine(outer, inner_key)
        refine_ok &= refined.refines(outer)
        if not refine_ok:
            break
    ok = planted_ok and refine_ok
    _gate(9, ok, f"planted (r, p) detected on {len(specs)} noise-free outputs: "
                 f"{planted_ok}; refinement property on 1000 random partitions: {refine_ok}")

"""Command-line front end: instance generation, solving, verification, benchmarks.

Exit codes: 0 success, 1 invalid flags or violated preconditions, 2 I/O
failure or corrupt file, 3 verification mismatch.  Results go to standard
output, diagnostics to standard error.  Every subcommand is deterministic
given its flags; only measured wall times vary between runs.
"""

from __future__ import annotations

import argparse
import math
import os
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .generator import GenSpec, WEIGHT_STYLES, generate, generate_compressed
from .grouped_als import SolveOptions, solve
from .opt_bounds import BoundParams, default_gamma, iteration_budget, lower_bound_log2, upper_bound
from .pattern_index import build_instance

_MAGIC = b"WLRA"
_VERSION = 1
_FLAG_W_DENSE = 1
_FLAG_SIDECAR = 2
_HEADER = struct.Struct("<4sHQH")
_WRITE_BLOCK_BYTES = 1 << 18  # a quarter MiB of rows per write

CSV_HEADER = "n,r,p,k,eps,sweep,wall_s,cost,regressions,seed"


# ---------------------------------------------------------------------------
# Instance file format


def write_instance(path, A: np.ndarray, W: np.ndarray, sidecar=None) -> None:
    """Write the binary instance file: header, A, W, optional group side-car.

    Each matrix goes to the file in C order a block of rows at a time, so
    no whole-matrix copy is made whatever the layout of A and W.
    """
    A = np.asarray(A, dtype="<f8")
    W = np.asarray(W, dtype="<f8")
    n = A.shape[0]
    flags = _FLAG_W_DENSE | (_FLAG_SIDECAR if sidecar is not None else 0)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, n, flags))
        for M in (A, W):
            step = max(1, _WRITE_BLOCK_BYTES // (M.itemsize * max(1, M.shape[1])))
            for lo in range(0, M.shape[0], step):
                f.write(np.ascontiguousarray(M[lo:lo + step]))
        for arr in sidecar if sidecar is not None else ():
            f.write(np.ascontiguousarray(arr, dtype="<u4"))


def read_instance(path):
    """Read an instance file; returns (A, W, sidecar or None).

    The file is read once into an uninitialised buffer; A, W and the
    side-car are views into it, not copies.  A clear W-present flag is
    read as an all-ones weight matrix.  Raises ValueError on any
    structural corruption, OSError on I/O failure.
    """
    with open(path, "rb") as f:
        buf = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        buf = buf[:f.readinto(buf)]
    if len(buf) < _HEADER.size:
        raise ValueError("truncated instance file")
    magic, version, n, flags = _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise ValueError("bad magic bytes")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    matrices = 1 + (1 if flags & _FLAG_W_DENSE else 0)
    expected = _HEADER.size + 8 * n * n * matrices
    if flags & _FLAG_SIDECAR:
        expected += 4 * 4 * n
    if len(buf) != expected:
        raise ValueError("payload length does not match header")
    off = _HEADER.size
    A = np.frombuffer(buf, "<f8", n * n, off).reshape(n, n)
    off += 8 * n * n
    if flags & _FLAG_W_DENSE:
        W = np.frombuffer(buf, "<f8", n * n, off).reshape(n, n)
        off += 8 * n * n
    else:
        W = np.ones((n, n))
    sidecar = None
    if flags & _FLAG_SIDECAR:
        sidecar = [np.frombuffer(buf, "<u4", n, off + 4 * n * i) for i in range(4)]
    return A, W, sidecar


def _sidecar_of(inst):
    return [inst.w_rows.group_of, inst.w_cols.group_of,
            inst.wa_rows.group_of, inst.wa_cols.group_of]


# ---------------------------------------------------------------------------
# Helpers


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _report_csv_lines(report, n, r, p, k, eps):
    """Data lines (no header), one per half-sweep."""
    for idx in range(len(report.cost_per_sweep)):
        yield ",".join([
            str(n), str(r), str(p), str(k), _fmt(eps), str(idx),
            f"{report.sweep_wall_times[idx]:.9f}",
            _fmt(report.cost_per_sweep[idx]),
            str(report.regressions_per_half_sweep[idx]),
            str(report.run_seed),
        ])


def _build(A, W):
    """The instance's structure, or None after reporting bad numeric input."""
    try:
        return build_instance(A, W)
    except ValueError as e:  # non-finite entries
        _err(f"invalid instance: {e}")
        return None


def _check_assumed(inst, args) -> bool:
    if args.assume_r is not None and inst.r != args.assume_r:
        _err(f"detected r={inst.r} does not match assumed r={args.assume_r}")
        return False
    if args.assume_p is not None and inst.p != args.assume_p:
        _err(f"detected p={inst.p} does not match assumed p={args.assume_p}")
        return False
    return True


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    try:
        spec = GenSpec(n=args.n, r=args.r, p=args.p, k_true=args.k_true,
                       noise_sigma=args.noise, weight_style=args.style,
                       seed=args.seed)
    except ValueError as e:
        _err(str(e))
        return 1
    try:
        A, W = generate(spec)
        inst = generate_compressed(spec)  # the partitions of (A, W), for the side-car
    except ValueError as e:  # a grid that overflows
        _err(f"the planted grids overflow: {e}")
        return 1
    except (RuntimeError, MemoryError) as e:
        _err(str(e) or "out of memory for a dense instance of this size")
        return 2
    try:
        write_instance(args.out, A, W, _sidecar_of(inst))
    except OSError as e:
        _err(str(e))
        return 2
    print(f"wrote {args.out} n={inst.n} r={inst.r} p={inst.p}")
    return 0


def cmd_solve(args) -> int:
    try:
        opts = SolveOptions(k=args.k, eps=args.eps, max_sweeps=args.sweeps,
                            rel_tol=args.rel_tol, seed=args.seed,
                            restarts=args.restarts, sketchless=args.sketchless)
    except ValueError as e:
        _err(str(e))
        return 1
    try:
        A, W, _ = read_instance(args.infile)
    except (OSError, ValueError) as e:
        _err(str(e))
        return 2
    n = A.shape[0]
    if args.k > n:
        _err(f"k={args.k} exceeds n={n}")
        return 1
    inst = _build(A, W)
    if inst is None:
        return 2
    if not _check_assumed(inst, args):
        return 1
    fact, report = solve(inst, opts)
    lower_log2, upper = report.bracket
    print(f"lambda {_fmt(report.final_cost)}")
    print(f"bracket [2^{_fmt(lower_log2)}, {_fmt(upper)}]")
    try:
        if args.out_factors:
            payload = (np.ascontiguousarray(fact.U).astype("<f8").tobytes()
                       + np.ascontiguousarray(fact.V).astype("<f8").tobytes())
            Path(args.out_factors).write_bytes(payload)
        if args.out_report:
            lines = [CSV_HEADER, *_report_csv_lines(report, n, inst.r, inst.p, args.k, args.eps)]
            Path(args.out_report).write_text("\n".join(lines) + "\n")
    except OSError as e:
        _err(str(e))
        return 2
    return 0


def _full_sweep_times(report):
    halves = report.sweep_wall_times
    return [halves[i] + halves[i + 1] for i in range(0, len(halves) - 1, 2)]


def _fit_slope(sizes, medians):
    """Least-squares slope of log2(time) vs log2(n), smallest size dropped."""
    usable = [(s, m) for s, m in zip(sizes, medians)][1:]
    if len(usable) < 2:
        return None
    x = np.log2([s for s, _ in usable])
    y = np.log2([max(m, 1e-9) for _, m in usable])
    return float(np.polyfit(x, y, 1)[0])


def cmd_bench(args) -> int:
    sizes = args.sizes
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        _err("sizes must be strictly ascending")
        return 1
    if args.trials < 1:
        _err("trials must be positive")
        return 1
    try:
        _ = SolveOptions(k=args.k, eps=args.eps, max_sweeps=args.sweeps)
        specs = [GenSpec(n=n, r=args.r, p=args.p, k_true=args.k, noise_sigma=0.0,
                         weight_style="block_random", seed=args.seed) for n in sizes]
    except ValueError as e:
        _err(str(e))
        return 1

    rows = [CSV_HEADER]
    medians = []
    for size_index, (n, spec) in enumerate(zip(sizes, specs)):
        sweep_times = []
        for trial in range(args.trials):
            run_seed = args.seed + 1000003 * size_index + trial
            try:
                inst = generate_compressed(replace(spec, seed=run_seed))
            except RuntimeError as e:
                _err(str(e))
                return 1
            opts = SolveOptions(k=args.k, eps=args.eps, max_sweeps=args.sweeps,
                                rel_tol=0.0, seed=run_seed, restarts=1)
            _, report = solve(inst, opts)
            rows.extend(_report_csv_lines(report, n, args.r, args.p, args.k, args.eps))
            sweep_times.extend(_full_sweep_times(report))
        medians.append(float(np.median(sweep_times)))
        print(f"size {n} median_sweep_s {medians[-1]:.6f}", file=sys.stderr)

    try:
        Path(args.out).write_text("\n".join(rows) + "\n")
    except OSError as e:
        _err(str(e))
        return 2

    slope = _fit_slope(sizes, medians)
    if slope is None:
        print("slope n/a")
    else:
        print(f"slope {slope:.4f}")
    return 0


def cmd_verify(args) -> int:
    try:  # the bound flags alone, before the file is read; n and r come from it
        BoundParams(n=1, gamma=args.gamma or 0.0, k=args.k, r=1, eps=args.eps)
    except ValueError as e:
        _err(str(e))
        return 1
    try:
        A, W, sidecar = read_instance(args.infile)
    except (OSError, ValueError) as e:
        _err(str(e))
        return 2
    inst = _build(A, W)
    if inst is None:
        return 2
    if not _check_assumed(inst, args):
        return 1
    gamma = default_gamma(inst.n) if args.gamma is None else args.gamma
    params = BoundParams(n=inst.n, gamma=gamma, k=args.k, r=inst.r, eps=args.eps)
    lower = lower_bound_log2(params)
    print(f"n {inst.n}")
    print(f"r {inst.r}")
    print(f"p {inst.p}")
    print(f"wa_rows_groups {inst.wa_rows.num_groups}")
    print(f"wa_cols_groups {inst.wa_cols.num_groups}")
    print(f"upper_bound {_fmt(upper_bound(inst))}")
    print(f"lower_bound_log2 {_fmt(lower)}")
    if math.isinf(lower):
        print("iteration_budget overflow")
    else:
        print(f"iteration_budget {iteration_budget(params)}")
    if sidecar is None:
        print("sidecar absent")
        return 0
    if all(np.array_equal(got, want) for got, want in zip(sidecar, _sidecar_of(inst))):
        print("sidecar ok")
        return 0
    print("sidecar mismatch")
    return 3


# ---------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    # exit code 1 (not argparse's default 2) on bad flags, per the CLI contract
    def error(self, message):
        self.print_usage(sys.stderr)
        _err(message)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wlra",
                     description="Weighted low-rank approximation with grouped sketched sweeps")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen", help="generate a planted instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, default=1)
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--k-true", dest="k_true", type=int, default=1)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--style", choices=WEIGHT_STYLES, default="block_random")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--eps", type=float, default=0.25)
    s.add_argument("--sweeps", type=int, default=100)
    s.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-6)
    s.add_argument("--restarts", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--sketchless", action="store_true")
    s.add_argument("--assume-r", dest="assume_r", type=int, default=None)
    s.add_argument("--assume-p", dest="assume_p", type=int, default=None)
    s.add_argument("--out-factors", dest="out_factors", default=None)
    s.add_argument("--out-report", dest="out_report", default=None)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="scaling benchmark over instance sizes")
    b.add_argument("--sizes", type=int, nargs="+", required=True)
    b.add_argument("--r", type=int, default=4)
    b.add_argument("--p", type=int, default=4)
    b.add_argument("--k", type=int, default=3)
    b.add_argument("--eps", type=float, default=0.25)
    b.add_argument("--sweeps", type=int, default=3)
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    v = sub.add_parser("verify", help="recompute and check the structure of an instance file")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--eps", type=float, default=0.25)
    v.add_argument("--gamma", type=float, default=None)
    v.add_argument("--assume-r", dest="assume_r", type=int, default=None)
    v.add_argument("--assume-p", dest="assume_p", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.func(args)


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()

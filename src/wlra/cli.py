"""Command-line front end: instance generation, solving, verification, benchmarks.

Exit codes: 0 success, 1 invalid flags or violated preconditions, 2 I/O
failure or corrupt file, 3 verification mismatch.  Results go to standard
output, diagnostics to standard error.  Every subcommand is deterministic
given its flags; only measured wall times vary between runs.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import stat
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .generator import GenSpec, TiledMatrix, WEIGHT_STYLES, generate_compressed, generate_tiled
from .grouped_als import SolveOptions, solve
from .opt_bounds import BoundParams, default_gamma, iteration_budget, lower_bound_log2, upper_bound
# build_instance is not called here: solve and verify detect while reading.
# It stays importable from this module, where the benchmark's tracer wraps it.
from .pattern_index import BlockDetector, build_instance  # noqa: F401

_MAGIC = b"WLRA"
_VERSION = 1
_FLAG_W_DENSE = 1
_FLAG_SIDECAR = 2
_HEADER = struct.Struct("<4sHQH")
_WRITE_BLOCK_BYTES = 1 << 18  # a quarter MiB of rows per write

CSV_HEADER = "n,r,p,k,eps,sweep,wall_s,cost,regressions,seed"


# ---------------------------------------------------------------------------
# Instance file format


def _write_rows(f, M) -> None:
    """M to an open file as <f8 in C order, a block of rows at a time.

    M is an array, or anything with a shape whose row slices are arrays,
    such as a GroupedFactor, whose (n, k) expansion is then never formed
    whole.  A TiledMatrix is written from its row_blocks instead, so each
    planted band is expanded once and its block written for every block of
    rows inside it.
    """
    step = max(1, _WRITE_BLOCK_BYTES // (8 * max(1, M.shape[1])))
    if isinstance(M, TiledMatrix):
        blocks = M.row_blocks(step)
    else:
        blocks = (np.ascontiguousarray(M[lo:lo + step], dtype="<f8")
                  for lo in range(0, M.shape[0], step))
    f.writelines(blocks)  # keeps no block alive while the next is made


def write_instance(path, A, W, sidecar=None) -> None:
    """Write the binary instance file: header, A, W, optional group side-car.

    Each matrix goes to the file in C order a block of rows at a time, so
    no whole-matrix copy is made whatever the layout of A and W; they may
    also be TiledMatrix objects, which are never expanded whole.  Each band
    of equal rows of a TiledMatrix that fills a block is expanded into one
    block once, and that block is written for every block of rows inside
    the band; the band's tail is a slice of it.

    A regular file is rewritten in place, not truncated first: truncating
    frees the old payload's blocks only for the write to allocate them
    again.  Its header is zeroed until the payload and the new length are
    in place, so a write that fails leaves bad magic bytes, which readers
    reject.  Other outputs (a FIFO, /dev/null) cannot be truncated or
    seeked and get the header first.
    """
    A, W = (M if isinstance(M, TiledMatrix) else np.asarray(M) for M in (A, W))
    n = A.shape[0]
    flags = _FLAG_W_DENSE | (_FLAG_SIDECAR if sidecar is not None else 0)
    header = _HEADER.pack(_MAGIC, _VERSION, n, flags)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        in_place = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
        f.write(bytes(len(header)) if in_place else header)
        _write_rows(f, A)
        _write_rows(f, W)
        for arr in sidecar if sidecar is not None else ():
            f.write(np.ascontiguousarray(arr, dtype="<u4"))
        if in_place:
            f.truncate()
            f.seek(0)
            f.write(header)


def _read_header(f):
    """(n, flags) from the header of an open instance file.

    Raises ValueError on a short header, bad magic bytes, an unknown
    version or a flag bit other than those of W and the side-car.
    """
    head = f.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise ValueError("truncated instance file")
    magic, version, n, flags = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise ValueError("bad magic bytes")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    if flags & ~(_FLAG_W_DENSE | _FLAG_SIDECAR):
        raise ValueError("unknown header flags")
    return n, flags


def _check_length(f, n: int, flags: int) -> int:
    """The file's length; raises ValueError unless it is what the header says."""
    matrices = 1 + (1 if flags & _FLAG_W_DENSE else 0)
    expected = _HEADER.size + 8 * n * n * matrices
    if flags & _FLAG_SIDECAR:
        expected += 4 * 4 * n
    if os.fstat(f.fileno()).st_size != expected:
        raise ValueError("payload length does not match header")
    return expected


def _read_exact(f, out: np.ndarray, offset: int) -> np.ndarray:
    """Fill the C-contiguous array out with the file's little-endian values from offset on."""
    view = memoryview(out).cast("B")
    f.seek(offset)
    while view.nbytes:
        got = f.readinto(view)
        if not got:
            raise OSError("instance file ended before its payload did")
        view = view[got:]
    if not np.little_endian:  # out holds native values
        out.byteswap(inplace=True)
    return out


def read_instance(path):
    """Read an instance file; returns (A, W, sidecar or None).

    The payload is read once into an uninitialised buffer; A, W and the
    side-car are views into it, not copies.  A clear W-present flag is
    read as an all-ones weight matrix.  Raises ValueError on any
    structural corruption, OSError on I/O failure.
    """
    with open(path, "rb", buffering=0) as f:
        n, flags = _read_header(f)
        size = _check_length(f, n, flags)
        buf = _read_exact(f, np.empty(size - _HEADER.size, dtype=np.uint8), _HEADER.size)
    A = np.frombuffer(buf, "<f8", n * n, 0).reshape(n, n)
    off = 8 * n * n
    if flags & _FLAG_W_DENSE:
        W = np.frombuffer(buf, "<f8", n * n, off).reshape(n, n)
        off += 8 * n * n
    else:
        W = np.ones((n, n))
    sidecar = None
    if flags & _FLAG_SIDECAR:
        sidecar = [np.frombuffer(buf, "<u4", n, off + 4 * n * i) for i in range(4)]
    return A, W, sidecar


def _stream_instance(f, n: int, flags: int):
    """The StructuredInstance of an open, length-checked instance file, and its side-car.

    Detects while reading: BlockDetector.read reads each row block of W
    and of A from its offset straight into one of its block buffers, and
    forms W*A in A's, so the file is read once and never held whole.  A
    clear W-present flag reads W as all ones.  Raises ValueError on a
    non-finite entry.
    """
    row_bytes, w_dense = 8 * n, bool(flags & _FLAG_W_DENSE)
    w_start = _HEADER.size + row_bytes * n

    def w_rows(lo, out):
        if not w_dense:
            out.fill(1.0)
            return out
        return _read_exact(f, out, w_start + row_bytes * lo)

    inst = BlockDetector.read(
        n, n, w_rows, lambda lo, out: _read_exact(f, out, _HEADER.size + row_bytes * lo)).instance()
    sidecar = None
    if flags & _FLAG_SIDECAR:
        side_start = w_start + (row_bytes * n if w_dense else 0)
        sidecar = list(_read_exact(f, np.empty((4, n), dtype=np.uint32), side_start))
    return inst, sidecar


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


class _Exit(Exception):
    """How a subcommand fails, raised where the failure is found.

    main prints the message as one `error:` line and returns the code; an
    OSError escaping a subcommand is reported the same way, with code 2.
    """

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path, k: int | None = None):
    """(instance, side-car or None) of an instance file, detected while reading.

    The header is checked first, then k (a flag error, exit 1, if above the
    header's n), then the file length, all before any block is read.  A
    non-finite entry makes the instance invalid (exit 2); so does a weighted
    target whose squared norm overflows, which the callers find through
    upper_bound.
    """
    try:
        with open(path, "rb", buffering=0) as f:
            n, flags = _read_header(f)
            if k is not None and k > n:
                raise _Exit(1, f"k={k} exceeds n={n}")
            _check_length(f, n, flags)
            try:
                return _stream_instance(f, n, flags)
            except ValueError as e:  # a non-finite entry
                raise _Exit(2, f"invalid instance: {e}") from None
    except ValueError as e:  # a corrupt header or payload length
        raise _Exit(2, str(e)) from None


def _check_writable(path) -> None:
    """Raise the OSError that opening path for writing would, without opening it.

    Run before the work, so a run that cannot write its output fails first;
    opening early would spoil an earlier output if the work then failed.
    A missing directory is ENOENT and a file in its place ENOTDIR, as the
    first ancestor that exists decides; any refused write, a read-only
    filesystem too, is reported as EACCES.
    """
    path = Path(path)
    ancestor = path.parent
    while not ancestor.exists():  # exists() is False under a file too
        ancestor = ancestor.parent
    if path.is_dir():
        code = errno.EISDIR
    elif not ancestor.is_dir():
        code = errno.ENOTDIR
    elif ancestor != path.parent:
        code = errno.ENOENT
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def _check_assumed(inst, args) -> None:
    if args.assume_r is not None and inst.r != args.assume_r:
        raise _Exit(1, f"detected r={inst.r} does not match assumed r={args.assume_r}")
    if args.assume_p is not None and inst.p != args.assume_p:
        raise _Exit(1, f"detected p={inst.p} does not match assumed p={args.assume_p}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    try:
        spec = GenSpec(n=args.n, r=args.r, p=args.p, k_true=args.k_true,
                       noise_sigma=args.noise, weight_style=args.style,
                       seed=args.seed)
    except ValueError as e:
        raise _Exit(1, str(e)) from None
    _check_writable(args.out)
    try:
        # A and W expand a row block at a time while writing; inst's
        # partitions form the side-car.  The grids are drawn and checked once.
        A, W, inst = generate_tiled(spec)
    except ValueError as e:  # a grid that overflows
        raise _Exit(1, f"the planted grids overflow: {e}") from None
    except RuntimeError as e:  # no valid grids within the generator's attempts
        raise _Exit(1, str(e)) from None
    except MemoryError as e:
        raise _Exit(2, str(e) or "out of memory for a dense instance of this size") from None
    try:  # finite grids whose W*A squared norm overflows: solve would reject the file
        upper_bound(inst)
    except ValueError as e:
        raise _Exit(1, f"the planted grids overflow: {e}") from None
    write_instance(args.out, A, W, _sidecar_of(inst))
    print(f"wrote {args.out} n={inst.n} r={inst.r} p={inst.p}")
    return 0


def cmd_solve(args) -> int:
    try:
        opts = SolveOptions(k=args.k, eps=args.eps, max_sweeps=args.sweeps,
                            rel_tol=args.rel_tol, seed=args.seed,
                            restarts=args.restarts, sketchless=args.sketchless)
    except ValueError as e:
        raise _Exit(1, str(e)) from None
    for out in (args.out_factors, args.out_report):
        if out:
            _check_writable(out)
    inst, _ = _load(args.infile, args.k)
    _check_assumed(inst, args)
    try:
        fact, report = solve(inst, opts)
    except ValueError as e:  # the squared norm of W*A overflows; k <= n was checked
        raise _Exit(2, f"invalid instance: {e}") from None
    lower_log2, upper = report.bracket
    print(f"lambda {_fmt(report.final_cost)}")
    print(f"bracket [2^{_fmt(lower_log2)}, {_fmt(upper)}]")
    if args.out_factors:
        with open(args.out_factors, "wb") as f:
            _write_rows(f, fact.grouped_u)
            _write_rows(f, fact.grouped_v)
    if args.out_report:
        lines = [CSV_HEADER, *_report_csv_lines(report, inst.n, inst.r, inst.p, args.k, args.eps)]
        Path(args.out_report).write_text("\n".join(lines) + "\n")
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
        raise _Exit(1, "sizes must be strictly ascending")
    if args.trials < 1:
        raise _Exit(1, "trials must be positive")
    try:
        _ = SolveOptions(k=args.k, eps=args.eps, max_sweeps=args.sweeps)
        specs = [GenSpec(n=n, r=args.r, p=args.p, k_true=args.k, noise_sigma=0.0,
                         weight_style="block_random", seed=args.seed) for n in sizes]
    except ValueError as e:
        raise _Exit(1, str(e)) from None
    _check_writable(args.out)

    rows = [CSV_HEADER]
    medians = []
    for size_index, (n, spec) in enumerate(zip(sizes, specs)):
        sweep_times = []
        for trial in range(args.trials):
            run_seed = args.seed + 1000003 * size_index + trial
            try:
                inst = generate_compressed(replace(spec, seed=run_seed))
            except RuntimeError as e:
                raise _Exit(1, str(e)) from None
            except MemoryError as e:
                raise _Exit(2, str(e)) from None
            opts = SolveOptions(k=args.k, eps=args.eps, max_sweeps=args.sweeps,
                                rel_tol=0.0, seed=run_seed, restarts=1)
            _, report = solve(inst, opts)
            rows.extend(_report_csv_lines(report, n, args.r, args.p, args.k, args.eps))
            sweep_times.extend(_full_sweep_times(report))
        medians.append(float(np.median(sweep_times)))
        print(f"size {n} median_sweep_s {medians[-1]:.6f}", file=sys.stderr)

    Path(args.out).write_text("\n".join(rows) + "\n")
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
        raise _Exit(1, str(e)) from None
    inst, sidecar = _load(args.infile)
    try:
        bound = upper_bound(inst)
    except ValueError as e:  # the squared norm of W*A overflows
        raise _Exit(2, f"invalid instance: {e}") from None
    _check_assumed(inst, args)
    gamma = default_gamma(inst.n) if args.gamma is None else args.gamma
    params = BoundParams(n=inst.n, gamma=gamma, k=args.k, r=inst.r, eps=args.eps)
    lower = lower_bound_log2(params)
    print(f"n {inst.n}")
    print(f"r {inst.r}")
    print(f"p {inst.p}")
    print(f"wa_rows_groups {inst.wa_rows.num_groups}")
    print(f"wa_cols_groups {inst.wa_cols.num_groups}")
    print(f"upper_bound {_fmt(bound)}")
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
    try:
        return args.func(args)
    except _Exit as e:
        _err(str(e))
        return e.code
    except OSError as e:  # I/O failure, exit 2 in every subcommand
        _err(str(e))
        return 2


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()

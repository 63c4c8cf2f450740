"""Closed-loop benchmark of wlra: one operation at a time, in one process.

Usage, from the repository root:

    python3 bench/run.py --workload dense_cli --seed 1 --seconds 15 --trace 0

Each run builds a few instances from --seed, discards one warm-up
operation, then times operations for --seconds seconds, split evenly over
the instances.  Every operation is checked outside the timed region.
With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a separate
traced pass, which must reproduce the untraced outputs bit for bit.
Earlier stdout lines give quartiles, sample counts and the machine.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    if not (SRC / "wlra" / "__init__.py").is_file():
        print(f"error: no wlra package under {SRC}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    # One BLAS thread unless the environment says otherwise.  The solver's
    # BLAS calls are small (k = 3), so a second OpenBLAS thread left the
    # wall time unchanged on 2 vCPUs but busy-waited, doubling CPU time and
    # stalling an operation whenever either vCPU was busy with anything
    # else.  Set before numpy loads.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from wlra import cli, grouped_als  # noqa: E402
from wlra.generator import GenSpec, generate_compressed  # noqa: E402
from wlra.grouped_als import SolveOptions  # noqa: E402
from wlra.weighted_cost import cost_dense, cost_grouped  # noqa: E402

from layers import PER_LAYER, Tracer  # noqa: E402

# name -> (unit, better, bound)
END_TO_END = {
    "solve_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_mem_mb": ("MB", "lower", 0.1),
    "pass_rate": ("ratio", "higher", 0.01),
}

REL_TOL = 1e-9
# Instance file header: magic (4 bytes), version (2), n (8), flags (2).
HEADER_BYTES = 16


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Workloads.  Each has setup (untimed, reported as setup_s), op (timed),
# check and fingerprint (outside the timed region), and cost_ratio.


@dataclass(frozen=True)
class DenseCase:
    instance: Path
    factors: Path
    report: Path


@dataclass(frozen=True)
class DenseOut:
    code: int
    stdout: str


@dataclass(frozen=True)
class DenseCli:
    """`wlra solve` on a dense instance file, in-process, with the CLI defaults."""

    n: int = 4096
    r: int = 8
    p: int = 4
    k: int = 3
    noise: float = 0.1
    instances: int = 6

    def setup(self, seed: int, workdir: Path) -> DenseCase:
        case = DenseCase(workdir / "instance.wlra", workdir / "factors.bin", workdir / "report.csv")
        argv = ["gen", "--n", self.n, "--r", self.r, "--p", self.p, "--k-true", self.k,
                "--noise", self.noise, "--style", "attention_block", "--seed", seed,
                "--out", case.instance]
        with redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"wlra gen exited with {code}")
        return case

    def op(self, case: DenseCase) -> DenseOut:
        argv = ["solve", "--in", str(case.instance), "--k", str(self.k),
                "--out-factors", str(case.factors), "--out-report", str(case.report)]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return DenseOut(code, buf.getvalue())

    def check(self, case: DenseCase, out: DenseOut) -> bool:
        if out.code != 0:
            return False
        raw = case.factors.read_bytes()
        if len(raw) != 2 * self.n * self.k * 8:
            return False
        factors = np.frombuffer(raw, "<f8").reshape(2, self.n, self.k)
        A, W = np.memmap(case.instance, dtype="<f8", mode="r", offset=HEADER_BYTES,
                         shape=(2, self.n, self.n))
        return _close(cost_dense(A, W, factors[0], factors[1]), _printed(out, LAMBDA))

    def fingerprint(self, case: DenseCase, out: DenseOut):
        return out.stdout, case.factors.read_bytes()

    def cost_ratio(self, case: DenseCase, out: DenseOut) -> float:
        return _printed(out, LAMBDA) / _printed(out, UPPER_BOUND)


LAMBDA = re.compile(r"^lambda (\S+)$", re.M)
UPPER_BOUND = re.compile(r"^bracket \[.*, (\S+)\]$", re.M)


def _printed(out: DenseOut, pattern: re.Pattern) -> float:
    match = pattern.search(out.stdout)
    return float(match.group(1)) if match else math.nan


@dataclass(frozen=True)
class Compressed:
    """`solve()` on a generated CompressedInstance."""

    r: int
    p: int
    sketchless: bool
    instances: int
    n: int = 65536
    k: int = 3
    noise: float = 0.1
    eps: float = 0.25
    sweeps: int = 3

    def setup(self, seed: int, workdir: Path):
        inst = generate_compressed(GenSpec(n=self.n, r=self.r, p=self.p, k_true=self.k,
                                           noise_sigma=self.noise, seed=seed))
        opts = SolveOptions(k=self.k, eps=self.eps, max_sweeps=self.sweeps, rel_tol=0.0,
                            seed=seed, sketchless=self.sketchless)
        return inst, opts

    def op(self, case):
        return grouped_als.solve(*case)

    def check(self, case, out) -> bool:
        inst, _ = case
        fact, report = out
        if not (np.all(np.isfinite(fact.U)) and np.all(np.isfinite(fact.V))):
            return False
        if not _close(cost_grouped(inst, fact.grouped_u, fact.V), report.final_cost):
            return False
        cap = inst.r * inst.p
        return bool(report.regressions_per_half_sweep) and all(
            g <= cap for g in report.regressions_per_half_sweep)

    def fingerprint(self, case, out):
        fact, report = out
        return fact.U.tobytes(), fact.V.tobytes(), report.final_cost

    def cost_ratio(self, case, out) -> float:
        _, report = out
        return report.final_cost / report.bracket[1]


# Why each workload: see BENCHMARK.json.
WORKLOADS = {
    "dense_cli": DenseCli(),
    "compressed_sketched": Compressed(r=4, p=4, sketchless=False, instances=6),
    "compressed_exact": Compressed(r=16, p=8, sketchless=True, instances=4),
}


# ---------------------------------------------------------------------------
# The closed loop


def instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def quartiles(values):
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


class Loop:
    """Counts, timings and per-layer samples of one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.setups: list[float] = []
        self.ratios: list[float] = []
        self.peak_mb = math.nan

    def _op(self, case):
        try:
            return self.workload.op(case)
        except Exception:  # counted as a failed operation, not a crashed run
            traceback.print_exc()
            return None

    def checked(self, case, out) -> bool:
        passed = out is not None and self.workload.check(case, out)
        self.attempted += 1
        self.failed += not passed
        return passed

    def attempt(self, case, tracer: Tracer | None = None):
        """One timed, checked operation; returns (seconds, output, passed)."""
        with tracer.installed() if tracer is not None else nullcontext():
            tic = time.perf_counter()
            out = self._op(case)
            wall = time.perf_counter() - tic
        return wall, out, self.checked(case, out)

    def peak(self, case) -> float:
        """Peak megabytes allocated during one operation, in an untimed pass."""
        tracemalloc.start()
        try:
            out = self._op(case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.checked(case, out)
        return peak / 1e6

    def run(self, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
        seeds = instance_seeds(seed, self.workload.instances)
        share = seconds / len(seeds)
        for index, inst_seed in enumerate(seeds):
            tic = time.perf_counter()
            case = self.workload.setup(inst_seed, workdir)
            self.setups.append(time.perf_counter() - tic)
            if index == 0:  # discarded warm-up: starts BLAS threads, faults in pages
                if trace:
                    self.attempt(case)
                else:
                    self.peak_mb = self.peak(case)
            spent = 0.0
            first = True
            while first or spent < share:
                wall, out, passed = self.attempt(case)
                self.untraced.append(wall)
                spent += wall
                if first and passed:
                    self.ratios.append(self.workload.cost_ratio(case, out))
                first = False
                if trace:
                    reference = self.workload.fingerprint(case, out) if passed else None
                    spent += self.traced_attempt(case, reference)
            del case  # frees the instance before the next setup

    def traced_attempt(self, case, reference) -> float:
        tracer = Tracer()
        wall, out, passed = self.attempt(case, tracer)
        if passed and reference is not None and self.workload.fingerprint(case, out) != reference:
            self.failed += 1  # tracing must not change a single bit
        self.traced.append(wall)
        self.layers.append(tracer.layer_values(wall))
        return wall

    def cost_ratio(self) -> float:
        return statistics.median(self.ratios) if self.ratios else math.nan

    def end_to_end(self) -> dict[str, float]:
        return {
            "solve_s": statistics.median(self.untraced),
            "setup_s": statistics.median(self.setups),
            "peak_mem_mb": self.peak_mb,
            "pass_rate": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self) -> dict[str, float]:
        values = {name: float(statistics.median(sample[name] for sample in self.layers))
                  for name in PER_LAYER}
        values["trace.overhead_s"] = (statistics.median(self.traced)
                                      - statistics.median(self.untraced))
        values["grouped_als.cost_ratio"] = self.cost_ratio()
        return values


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "l3_cache": l3,
        "read_instance": "timed with the instance file in the page cache; caches are never dropped",
        "loop": "closed, one operation at a time, one process, BLAS threads from blas_thread_env",
    }


def report(loop: Loop, trace: bool) -> dict:
    if trace:
        table = {name: spec[0] for name, spec in PER_LAYER.items()}
        values = loop.per_layer()
    else:
        table = {name: spec[0] for name, spec in END_TO_END.items()}
        values = loop.end_to_end()
    q1, median, q3 = quartiles(loop.untraced)
    print(f"solve_s median {median:.6f} s q1 {q1:.6f} q3 {q3:.6f} samples {len(loop.untraced)}")
    if trace:
        t1, tmed, t3 = quartiles(loop.traced)
        print(f"traced solve_s median {tmed:.6f} s q1 {t1:.6f} q3 {t3:.6f} samples {len(loop.traced)}")
    print(f"setup_s samples {' '.join(f'{s:.6f}' for s in loop.setups)}")
    print(f"error_rate {loop.failed / loop.attempted!r} ratio ({loop.failed} of {loop.attempted} failed)")
    print(f"cost_ratio {loop.cost_ratio()!r} ratio (median of instances: "
          f"{' '.join(f'{r:.6g}' for r in loop.ratios)})")
    for name, unit in table.items():
        print(f"{name} {values[name]!r} {unit}")
    print("machine " + json.dumps(machine(), sort_keys=True))
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    loop = Loop(WORKLOADS[args.workload])
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        loop.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(loop, bool(args.trace))))
    return 0


if __name__ == "__main__":
    # Termination still runs main's cleanup of the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())

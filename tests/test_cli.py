import ast
import collections
import errno
import inspect
import os
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from wlra import (GenSpec, GroupedFactor, SolveOptions, build_instance, generate,
                  generate_compressed, solve, upper_bound)
from wlra import cli, generator, pattern_index
from wlra.cli import CSV_HEADER, main, read_instance, write_instance
from wlra.pattern_index import BlockDetector

from test_generator import BAND_SPECS


def run(args):
    return main([str(a) for a in args])


def _gen(tmp_path, name="inst.wlra", n=32, r=2, p=2, k_true=2, seed=0, extra=()):
    path = tmp_path / name
    code = run(["gen", "--n", n, "--r", r, "--p", p, "--k-true", k_true,
                "--seed", seed, "--out", path, *extra])
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# gen


def test_gen_verify_round_trip(tmp_path, capsys):
    path = _gen(tmp_path, n=64, r=4, p=2, k_true=3, seed=1)
    capsys.readouterr()
    assert run(["verify", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "r 4" in out
    assert "p 2" in out
    assert "sidecar ok" in out


def test_gen_rejects_rp_over_n(tmp_path):
    assert run(["gen", "--n", 4, "--r", 3, "--p", 2, "--out", tmp_path / "x"]) == 1


def test_gen_deterministic_bytes(tmp_path):
    a = _gen(tmp_path, "a.wlra", seed=3)
    b = _gen(tmp_path, "b.wlra", seed=3)
    assert a.read_bytes() == b.read_bytes()


def test_gen_streams_the_bytes_of_the_dense_matrices(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_BYTES", 100)  # many blocks per matrix
    path = _gen(tmp_path, n=50, r=3, p=2, k_true=2, seed=4,
                extra=("--noise", 0.2, "--style", "attention_block"))
    spec = GenSpec(n=50, r=3, p=2, k_true=2, noise_sigma=0.2, weight_style="attention_block",
                   seed=4)
    A, W = generate(spec)
    dense = tmp_path / "dense.wlra"
    write_instance(dense, A, W, cli._sidecar_of(generate_compressed(spec)))
    assert path.read_bytes() == dense.read_bytes()


# _WRITE_BLOCK_BYTES against a file of size n: less than one row, three
# rows (between a row and a weight band), and more than any band
BLOCK_BYTES = {"under_a_row": lambda n: 4, "three_rows": lambda n: 3 * 8 * n,
               "over_a_band": lambda n: 8 * n * n + 8}


@pytest.mark.parametrize("block", sorted(BLOCK_BYTES))
@pytest.mark.parametrize("style", generator.WEIGHT_STYLES)
@pytest.mark.parametrize("case", sorted(BAND_SPECS))
def test_gen_writes_the_dense_bytes_over_irregular_bands(tmp_path, monkeypatch, case, style,
                                                          block):
    n, r, p = BAND_SPECS[case]
    monkeypatch.setattr(cli, "_WRITE_BLOCK_BYTES", BLOCK_BYTES[block](n))
    path = _gen(tmp_path, n=n, r=r, p=p, k_true=1, seed=3,
                extra=("--noise", 0.1, "--style", style))
    spec = GenSpec(n=n, r=r, p=p, k_true=1, noise_sigma=0.1, weight_style=style, seed=3)
    dense = tmp_path / "dense.wlra"
    write_instance(dense, *generate(spec), cli._sidecar_of(generate_compressed(spec)))
    assert path.read_bytes() == dense.read_bytes()


@pytest.mark.parametrize("block_rows", [8, 64])  # 64 rows: the default block at n = 512
def test_gen_expands_each_planted_band_once(tmp_path, monkeypatch, block_rows):
    # A band is expanded once, its tail at most once more; writing a block
    # of rows at a time without reuse expands n / block_rows blocks per matrix.
    n, r, p = 512, 4, 2
    monkeypatch.setattr(cli, "_WRITE_BLOCK_BYTES", 8 * n * block_rows)
    expanded = collections.Counter()  # keyed by the grid's rows: the matrix's row runs
    getitem = generator.TiledMatrix.__getitem__

    def counting(self, rows):
        expanded[self.grid.shape[0]] += 1
        return getitem(self, rows)

    monkeypatch.setattr(generator.TiledMatrix, "__getitem__", counting)
    _gen(tmp_path, n=n, r=r, p=p, seed=6)
    assert sorted(expanded) == [r, r * p]  # the grids of W and of A
    assert all(count <= 2 * runs for runs, count in expanded.items())


@pytest.mark.parametrize("r", [4, 1])  # r = 1: W is one band, as large as the matrix
def test_gen_holds_less_than_a_quarter_of_the_file(tmp_path, capsys, r):
    # The block written again for a band is one block of rows, not the band.
    path = _gen(tmp_path, n=512, r=r, p=2, k_true=2, seed=6)  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        _gen(tmp_path, n=512, r=r, p=2, k_true=2, seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < path.stat().st_size / 4


def test_gen_draws_and_checks_the_planted_grids_once(tmp_path, monkeypatch):
    # The written matrices and the side-car come from one accepted draw.
    draws = []
    accepted = generator._accepted_grids
    monkeypatch.setattr(generator, "_accepted_grids",
                        lambda spec: draws.append(spec) or accepted(spec))
    _gen(tmp_path, n=48, r=3, p=2, seed=6)
    assert len(draws) == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--n", 32, "--r", 2, "--p", 2, "--k-true", 2],
    ["bench", "--sizes", 32, "--r", 2, "--p", 2, "--k", 2, "--sweeps", 1, "--trials", 1],
])
def test_generation_that_finds_no_valid_grids_exits_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(generator, "_MAX_ATTEMPTS", 0)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, "--out", out]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1] == "error: instance generation failed after 0 attempts"
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert not out.exists()


def test_gen_unwritable_path(tmp_path):
    code = run(["gen", "--n", 8, "--out", tmp_path / "missing_dir" / "x.wlra"])
    assert code == 2


def test_gen_unwritable_out_exits_2_before_generating(tmp_path, capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(cli, "generate_tiled", lambda spec: draws.append(spec))
    capsys.readouterr()
    assert run(["gen", "--n", 8, "--out", tmp_path / "missing_dir" / "x.wlra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and draws == []
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("before", [64, 8])  # n of the file already at the path
def test_gen_over_an_existing_file_writes_the_bytes_of_a_fresh_one(tmp_path, before):
    fresh = _gen(tmp_path, "fresh.wlra", n=32, seed=3, extra=("--style", "block_mask01"))
    path = _gen(tmp_path, "over.wlra", n=before, seed=1)
    _gen(tmp_path, "over.wlra", n=32, seed=3, extra=("--style", "block_mask01"))
    assert path.read_bytes() == fresh.read_bytes()


def test_gen_rewrites_an_existing_file_in_place(tmp_path, monkeypatch):
    # The old file keeps its inode and length while the payload is written:
    # it is never truncated to zero, only cut to the new length at the end.
    path = _gen(tmp_path, n=64, seed=1)
    old = path.stat()
    seen = []
    write_rows = cli._write_rows

    def spy(f, M):
        seen.append((path.stat().st_ino, path.stat().st_size))
        write_rows(f, M)

    monkeypatch.setattr(cli, "_write_rows", spy)
    _gen(tmp_path, n=32, seed=3)
    assert seen == [(old.st_ino, old.st_size)] * 2
    assert path.stat().st_ino == old.st_ino
    assert path.stat().st_size == 16 + 2 * 8 * 32 * 32 + 4 * 4 * 32


@pytest.mark.parametrize("before", [64, 8, None])  # n of the file already at the path
def test_gen_that_fails_mid_payload_leaves_a_file_readers_reject(tmp_path, capsys, monkeypatch,
                                                                   before):
    path = tmp_path / "inst.wlra"
    if before is not None:
        _gen(tmp_path, n=before, seed=1)
    calls = []
    write_rows = cli._write_rows

    def failing(f, M):
        calls.append(M)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_rows(f, M)

    monkeypatch.setattr(cli, "_write_rows", failing)
    capsys.readouterr()
    assert run(["gen", "--n", 32, "--r", 2, "--p", 2, "--seed", 3, "--out", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for command in FILE_COMMANDS:
        assert run([command, "--in", path, "--k", 1]) == 2
        assert capsys.readouterr().err == "error: bad magic bytes\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_gen_into_a_fifo_writes_the_bytes_of_a_file(tmp_path):
    fresh = _gen(tmp_path, "fresh.wlra", n=40, r=3, p=2, seed=5)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        _gen(tmp_path, "pipe", n=40, r=3, p=2, seed=5)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [fresh.read_bytes()]


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_gen_to_the_null_device(tmp_path, capsys):
    assert run(["gen", "--n", 16, "--r", 2, "--p", 2, "--out", os.devnull]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {os.devnull} ")


def test_instance_file_round_trip(tmp_path):
    want_a, want_w = generate(GenSpec(n=16, r=2, p=2, k_true=2, noise_sigma=0.3, seed=5))
    inst = build_instance(want_a, want_w)
    path = tmp_path / "rt.wlra"
    sidecar = [inst.w_rows.group_of, inst.w_cols.group_of,
               inst.wa_rows.group_of, inst.wa_cols.group_of]
    write_instance(path, want_a, want_w, sidecar)
    A, W, side = read_instance(path)
    assert np.array_equal(A, want_a)
    assert np.array_equal(W, want_w)
    assert all(np.array_equal(a, b) for a, b in zip(side, sidecar))


LAYOUTS = {
    "f8_c": lambda M: M,
    "f8_fortran": np.asfortranarray,
    "float32": lambda M: M.astype(np.float32),
    "big_endian": lambda M: M.astype(">f8"),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_write_instance_converts_a_block_at_a_time(tmp_path, layout):
    n = 512
    rng = np.random.default_rng(9)
    # float32 values, so every layout holds the same numbers
    A, W = (rng.standard_normal((n, n)).astype(np.float32).astype("<f8") for _ in range(2))
    write_instance(tmp_path / "want.wlra", A, W)
    A, W = LAYOUTS[layout](A), LAYOUTS[layout](W)
    tracemalloc.start()
    try:
        write_instance(tmp_path / "got.wlra", A, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "got.wlra").read_bytes() == (tmp_path / "want.wlra").read_bytes()
    assert peak < 8 * n * n / 2  # no whole-matrix copy


def test_read_returns_views_into_one_buffer(tmp_path):
    A, W = generate(GenSpec(n=8, r=2, p=2, k_true=1, seed=2))
    path = tmp_path / "views.wlra"
    write_instance(path, A, W, [np.zeros(8)] * 4)
    A, W, side = read_instance(path)
    assert not (A.flags.owndata or W.flags.owndata or side[0].flags.owndata)
    assert A.base is W.base is side[0].base


def test_read_without_dense_weight_flag_gives_all_ones(tmp_path):
    n = 3
    A = np.arange(9, dtype=float).reshape(3, 3)
    payload = struct.pack("<4sHQH", b"WLRA", 1, n, 0) + A.astype("<f8").tobytes()
    path = tmp_path / "noweights.wlra"
    path.write_bytes(payload)
    got_a, got_w, side = read_instance(path)
    assert np.array_equal(got_a, A)
    assert np.array_equal(got_w, np.ones((3, 3)))
    assert side is None


def test_weightless_file_solves_and_verifies_like_dense_all_ones(tmp_path, capsys, monkeypatch):
    # solve and verify detect while reading: a clear W-present flag must read
    # W as all ones, block by block, and give the same outputs as a file
    # that stores those ones.
    n = 40
    monkeypatch.setattr(pattern_index, "_BLOCK_BYTES", 8 * n * 8)  # five blocks of 8 rows
    A, _ = generate(GenSpec(n=n, r=1, p=5, k_true=2, noise_sigma=0.1, seed=3))
    dense, weightless = tmp_path / "dense.wlra", tmp_path / "weightless.wlra"
    write_instance(dense, A, np.ones((n, n)))
    weightless.write_bytes(struct.pack("<4sHQH", b"WLRA", 1, n, 0)
                           + np.ascontiguousarray(A, dtype="<f8").tobytes())
    outputs = []
    for path in (dense, weightless):
        factors = tmp_path / f"{path.stem}.bin"
        capsys.readouterr()
        assert run(["solve", "--in", path, "--k", 2, "--seed", 1, "--out-factors", factors]) == 0
        solved = capsys.readouterr().out
        assert run(["verify", "--in", path, "--k", 2]) == 0
        outputs.append((solved, factors.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert "r 1" in outputs[1][2] and "p 5" in outputs[1][2]


def test_read_rejects_unknown_header_flags(tmp_path):
    path = _gen(tmp_path)
    data = bytearray(path.read_bytes())
    data[14:16] = struct.pack("<H", 1 | 2 | 4)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unknown header flags"):
        read_instance(path)


def test_read_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.wlra"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        read_instance(path)
    good = _gen(tmp_path)
    data = bytearray(good.read_bytes())
    path.write_bytes(bytes(data[:-4]))  # truncated payload
    with pytest.raises(ValueError):
        read_instance(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_planted_instance(tmp_path, capsys):
    path = _gen(tmp_path, n=48, r=2, p=2, k_true=3, seed=2)
    report = tmp_path / "report.csv"
    factors = tmp_path / "factors.bin"
    capsys.readouterr()
    code = run(["solve", "--in", path, "--k", 3, "--seed", 1, "--rel-tol", 0,
                "--sweeps", 50, "--out-report", report, "--out-factors", factors])
    assert code == 0
    out = capsys.readouterr().out
    lam = float(out.split("lambda ")[1].splitlines()[0])
    assert "bracket [2^" in out

    A, W, _ = read_instance(path)
    upper = float(np.sum((W * A) ** 2))
    assert lam <= 1e-8 * upper

    lines = report.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert all(line.split(",")[8] == "4" for line in lines[1:])  # rp groups

    raw = np.frombuffer(factors.read_bytes(), dtype="<f8")
    assert raw.shape[0] == 2 * 48 * 3
    U = raw[: 48 * 3].reshape(48, 3)
    V = raw[48 * 3:].reshape(48, 3)
    resid = float(np.sum((W * (U @ V.T - A)) ** 2))
    assert resid == pytest.approx(lam, rel=1e-9, abs=1e-12)


def test_solve_missing_file(tmp_path, capsys):
    assert run(["solve", "--in", tmp_path / "nope.wlra", "--k", 2]) == 2
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("flag", ["--out-factors", "--out-report"])
@pytest.mark.parametrize("where", ["missing_dir", "a_directory", "under_a_file",
                                   "missing_dir_under_a_file"])
def test_solve_unwritable_output_exits_2_before_reading(tmp_path, capsys, monkeypatch,
                                                         flag, where):
    path = _gen(tmp_path, n=8)
    (tmp_path / "a_file").write_text("")
    out = {"missing_dir": tmp_path / "missing_dir" / "out", "a_directory": tmp_path,
           "under_a_file": tmp_path / "a_file" / "out",
           "missing_dir_under_a_file": tmp_path / "a_file" / "x" / "out"}[where]
    try:
        open(out, "wb")
    except OSError as e:
        message = f"error: {e}\n"
    reads = []
    monkeypatch.setattr(cli, "_read_exact", lambda *args: reads.append(args))
    capsys.readouterr()
    assert run(["solve", "--in", path, "--k", 2, flag, out]) == 2
    assert capsys.readouterr() == ("", message)  # the error that opening it gives
    assert reads == []


def test_solve_that_fails_leaves_an_earlier_output_whole(tmp_path):
    # The output paths are checked, not opened, before the instance is read.
    path = _gen(tmp_path, n=8)
    data = bytearray(path.read_bytes())
    data[16:24] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(data))
    factors, report = tmp_path / "factors.bin", tmp_path / "report.csv"
    factors.write_bytes(b"earlier")
    report.write_text("earlier\n")
    assert run(["solve", "--in", path, "--k", 2, "--out-factors", factors,
                "--out-report", report]) == 2
    assert factors.read_bytes() == b"earlier" and report.read_text() == "earlier\n"


def test_solve_k_too_large(tmp_path):
    path = _gen(tmp_path, n=8)
    assert run(["solve", "--in", path, "--k", 9]) == 1


def test_solve_assume_mismatch(tmp_path):
    path = _gen(tmp_path, n=32, r=2, p=2)
    assert run(["solve", "--in", path, "--k", 2, "--assume-r", 3]) == 1
    assert run(["solve", "--in", path, "--k", 2, "--assume-r", 2, "--assume-p", 2]) == 0


def test_solve_deterministic_outputs(tmp_path):
    path = _gen(tmp_path, n=24, r=2, p=2, seed=8)
    outs = []
    for tag in ("x", "y"):
        rep = tmp_path / f"rep_{tag}.csv"
        fac = tmp_path / f"fac_{tag}.bin"
        assert run(["solve", "--in", path, "--k", 2, "--seed", 7,
                    "--out-report", rep, "--out-factors", fac]) == 0
        outs.append((rep.read_text(), fac.read_bytes()))
    # factor bytes identical; CSV identical except the wall_s column
    assert outs[0][1] == outs[1][1]
    for la, lb in zip(outs[0][0].splitlines(), outs[1][0].splitlines()):
        fa, fb = la.split(","), lb.split(",")
        assert fa[:6] == fb[:6] and fa[7:] == fb[7:]


@pytest.mark.parametrize("scaled", ["A", "W"])
@pytest.mark.parametrize("j", [-3, 5])
@pytest.mark.parametrize("style", generator.WEIGHT_STYLES)
def test_solve_power_of_two_scaling_is_exact(tmp_path, capsys, style, j, scaled):
    # The library's scaling property through the file, the solve and the
    # printed digits: lambda scales by exactly 4^j, and U V^T read back from
    # the factor file by 2^j with A and not at all with W.
    A, W = generate(GenSpec(n=96, r=4, p=2, k_true=3, noise_sigma=0.1, weight_style=style,
                            seed=11))
    c = 2.0 ** j
    runs = {}
    cases = {"base": (A, W), "scaled": (c * A, W) if scaled == "A" else (A, c * W)}
    for tag, (a, w) in cases.items():
        path, factors = tmp_path / f"{tag}.wlra", tmp_path / f"{tag}.bin"
        write_instance(path, a, w)
        capsys.readouterr()
        assert run(["solve", "--in", path, "--k", 3, "--seed", 5, "--out-factors", factors]) == 0
        lam = float(LAMBDA.search(capsys.readouterr().out).group(1))
        U, V = np.frombuffer(factors.read_bytes(), dtype="<f8").reshape(2, 96, 3)
        runs[tag] = lam, U @ V.T
    (lam, product), (got_lam, got_product) = runs["base"], runs["scaled"]
    assert got_lam == c * c * lam
    assert np.array_equal(got_product, c * product if scaled == "A" else product)


LAMBDA = re.compile(r"^lambda (\S+)$", re.M)


def test_solve_sketchless_flag(tmp_path, capsys):
    path = _gen(tmp_path, n=24, r=2, p=2, seed=4)
    capsys.readouterr()
    assert run(["solve", "--in", path, "--k", 2, "--sketchless"]) == 0
    assert "lambda" in capsys.readouterr().out


def test_solve_sketchless_all_ones_matches_svd_oracle(tmp_path, capsys):
    from oracles import power_iteration_rank_k_residual
    rng = np.random.default_rng(31)
    n, k = 64, 4
    A = rng.standard_normal((n, n))
    path = tmp_path / "ones.wlra"
    write_instance(path, A, np.ones((n, n)))
    capsys.readouterr()
    code = run(["solve", "--in", path, "--k", k, "--sketchless", "--restarts", 3,
                "--rel-tol", 1e-12, "--seed", 2])
    assert code == 0
    lam = float(capsys.readouterr().out.split("lambda ")[1].splitlines()[0])
    oracle = power_iteration_rank_k_residual(A, k, seed=6)
    assert lam <= 1.01 * oracle


# ---------------------------------------------------------------------------
# verify


def test_verify_tampered_sidecar(tmp_path):
    path = _gen(tmp_path, n=16, r=2, p=2)
    data = bytearray(path.read_bytes())
    data[-1] ^= 1  # flip one group id in the side-car
    path.write_bytes(bytes(data))
    assert run(["verify", "--in", path]) == 3


def test_verify_all_ones_instance(tmp_path, capsys):
    path = tmp_path / "ones.wlra"
    write_instance(path, np.ones((8, 8)), np.ones((8, 8)))
    capsys.readouterr()
    assert run(["verify", "--in", path]) == 0
    out = capsys.readouterr().out
    assert "r 1" in out
    assert "upper_bound 64" in out
    assert "sidecar absent" in out


def test_verify_missing_file(tmp_path):
    assert run(["verify", "--in", tmp_path / "ghost.wlra"]) == 2


# ---------------------------------------------------------------------------
# bench


def test_bench_single_size(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--sizes", 256, "--r", 2, "--p", 2, "--k", 2,
                "--sweeps", 2, "--trials", 1, "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "slope n/a" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2  # one row per half-sweep
    assert all(line.split(",")[8] == "4" for line in lines[1:])


def test_bench_rejects_unsorted_sizes(tmp_path):
    assert run(["bench", "--sizes", 512, 256, "--out", tmp_path / "b.csv"]) == 1


def test_bench_unwritable_out_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(cli, "solve", lambda *args: trials.append(args))
    capsys.readouterr()
    assert run(["bench", "--sizes", 16, "--r", 2, "--p", 2, "--k", 1, "--sweeps", 1,
                "--trials", 1, "--out", tmp_path / "missing_dir" / "b.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and trials == []
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "missing_dir" in lines[0]


def test_bench_slope_printed_for_multiple_sizes(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--sizes", 128, 256, 512, "--r", 2, "--p", 2, "--k", 2,
                "--sweeps", 2, "--trials", 1, "--out", out])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "slope " in stdout
    assert "n/a" not in stdout


def test_bench_deterministic_modulo_wall_times(tmp_path):
    texts = []
    for tag in ("p", "q"):
        out = tmp_path / f"bench_{tag}.csv"
        assert run(["bench", "--sizes", 128, "--r", 2, "--p", 2, "--k", 2,
                    "--sweeps", 2, "--trials", 2, "--out", out]) == 0
        texts.append(out.read_text())
    for la, lb in zip(texts[0].splitlines(), texts[1].splitlines()):
        fa, fb = la.split(","), lb.split(",")
        assert fa[:6] == fb[:6] and fa[7:] == fb[7:]


# ---------------------------------------------------------------------------
# bad input: exit code and a one-line message, never a traceback


N_BAD = 8  # side of the instances below; the payload starts after a 16-byte header


def _set_entry(matrix, i, j, value):
    """Byte edit writing value at (i, j) of A (matrix 0) or W (matrix 1)."""
    def edit(data):
        off = 16 + 8 * (N_BAD * N_BAD * matrix + N_BAD * i + j)
        data[off:off + 8] = struct.pack("<d", value)
    return edit


def _edits(*edits):
    def edit(data):
        for e in edits:
            e(data)
    return edit


def _truncate(data):
    del data[-4:]


def _bad_magic(data):
    data[:4] = b"NOPE"


def _bad_version(data):
    data[4:6] = struct.pack("<H", 2)


def _set_flags(flags):
    def edit(data):
        data[14:16] = struct.pack("<H", flags)
    return edit


def _unchanged(data):
    pass


MISSING = object()  # in place of an edit: no instance file at the --in path
UNWRITABLE = object()  # in place of a flag value: a path in a missing directory


FILE_COMMANDS = ("solve", "verify")

# (name, edit of the instance file's bytes, extra flags, exit code, commands)
BAD_INPUTS = [
    ("nan_in_a", _set_entry(0, 1, 2, np.nan), (), 2, FILE_COMMANDS),
    ("inf_in_w", _set_entry(1, 3, 0, np.inf), (), 2, FILE_COMMANDS),
    ("truncated_payload", _truncate, (), 2, FILE_COMMANDS),
    # finite entries whose squared norm overflows: one whose square is inf,
    # and two whose squares are finite but whose sum is not
    ("cost_overflow", _set_entry(0, 1, 2, 1e200), (), 2, FILE_COMMANDS),
    ("cost_overflow_in_sum", _edits(_set_entry(0, 1, 2, 1.2e154), _set_entry(0, 3, 4, 1.2e154)),
     (), 2, FILE_COMMANDS),
    # judged from the header alone, before the (truncated) payload
    ("k_over_header_n_truncated_payload", _truncate, ("--k", N_BAD + 1), 1, ("solve",)),
    ("bad_magic", _bad_magic, (), 2, FILE_COMMANDS),
    ("bad_version", _bad_version, (), 2, FILE_COMMANDS),
    ("unknown_header_flag_bit", _set_flags(1 | 4), (), 2, FILE_COMMANDS),
    ("unknown_flag", _unchanged, ("--bogus",), 1, FILE_COMMANDS),
    ("threads_flag", _unchanged, ("--threads", 2), 1, FILE_COMMANDS),
    ("k_zero", _unchanged, ("--k", 0), 1, FILE_COMMANDS),
    ("eps_zero", _unchanged, ("--eps", 0), 1, FILE_COMMANDS),
    ("gamma_negative", _unchanged, ("--gamma", -1), 1, ("verify",)),
    ("k_zero_missing_file", MISSING, ("--k", 0), 1, FILE_COMMANDS),
    ("eps_zero_missing_file", MISSING, ("--eps", 0), 1, FILE_COMMANDS),
    ("gamma_negative_missing_file", MISSING, ("--gamma", -1), 1, ("verify",)),
    ("gamma_nan", _unchanged, ("--gamma", "nan"), 1, ("verify",)),
    ("eps_nan", _unchanged, ("--eps", "nan"), 1, ("verify",)),
    ("rel_tol_nan", _unchanged, ("--rel-tol", "nan"), 1, ("solve",)),
    ("noise_inf", None, ("--noise", "inf"), 1, ("gen",)),
    ("noise_nan", None, ("--noise", "nan"), 1, ("gen",)),
    ("noise_overflowing_grid", None, ("--noise", "1e308"), 1, ("gen",)),
    # finite grids whose W*A squared norm overflows, a file solve would reject
    ("noise_overflowing_norm_1e200", None, ("--noise", "1e200"), 1, ("gen",)),
    ("noise_overflowing_norm_1e160", None, ("--noise", "1e160"), 1, ("gen",)),
    # no array can hold the n-long band maps; numpy refuses before allocating
    ("n_unholdable", None, ("--n", 2 ** 62), 2, ("gen",)),
    ("size_unholdable", None, ("--sizes", 2 ** 62), 2, ("bench",)),
    ("rp_over_n", None, ("--sizes", 8, 16, "--r", 4, "--p", 4), 1, ("bench",)),
    ("size_zero", None, ("--sizes", 0), 1, ("bench",)),
    ("r_zero", None, ("--sizes", 8, "--r", 0), 1, ("bench",)),
    ("trials_zero", None, ("--sizes", 8, "--trials", 0), 1, ("bench",)),
    # the instance has r=1 and p=8 (W all ones, A's rows distinct)
    ("assume_r_mismatch", _unchanged, ("--assume-r", 2), 1, FILE_COMMANDS),
    ("assume_p_mismatch", _unchanged, ("--assume-p", 1), 1, FILE_COMMANDS),
    # checked before the file is read: nothing is printed first
    ("unwritable_factors", _unchanged, ("--out-factors", UNWRITABLE), 2, ("solve",)),
    ("unwritable_report", _unchanged, ("--out-report", UNWRITABLE), 2, ("solve",)),
    ("unwritable_out", None, ("--out", UNWRITABLE), 2, ("gen",)),
]
PARSER_ERRORS = ("unknown_flag", "threads_flag")  # argparse prints its usage line first
# checked before the file is read (gen: before generating)
FLAG_ERRORS = ("k_zero", "eps_zero", "gamma_negative", "gamma_nan", "eps_nan", "noise_inf",
               "noise_nan")
BAD_CASES = [(name, edit, extra, code, command)
             for name, edit, extra, code, commands in BAD_INPUTS for command in commands]


@pytest.mark.parametrize("name, edit, extra, code, command", BAD_CASES,
                         ids=[f"{case[0]}-{case[4]}" for case in BAD_CASES])
def test_bad_input_exit_codes(tmp_path, capsys, name, edit, extra, code, command):
    if command == "bench":
        args = ["bench", "--out", tmp_path / "bench.csv"]
    elif command == "gen":
        args = ["gen", "--n", 16, "--r", 2, "--p", 2, "--out", tmp_path / "gen.wlra"]
    else:
        path = tmp_path / f"{name}.wlra"
        if edit is not MISSING:
            rng = np.random.default_rng(4)
            write_instance(path, rng.standard_normal((N_BAD, N_BAD)), np.ones((N_BAD, N_BAD)))
            data = bytearray(path.read_bytes())
            edit(data)
            path.write_bytes(bytes(data))
        args = [command, "--in", path, "--k", 2]
    extra = [tmp_path / "missing_dir" / "out" if a is UNWRITABLE else a for a in extra]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*args, *extra]) == code
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    if name not in PARSER_ERRORS:  # one line, no traceback
        assert err.startswith("error: ") and err.count("\n") == 1
    if name.startswith(FLAG_ERRORS):  # names the bad flag and nothing else
        assert extra[0].lstrip("-") in err and re.search(r"\br\b", err) is None
    if name.endswith("_unholdable"):  # the size is at fault, not the planted grids
        assert "grid" not in err
    if name.startswith("noise_overflowing_norm"):
        assert err == ("error: the planted grids overflow: "
                       "the weighted target's squared norm overflows\n")
    if command == "gen":
        assert not (tmp_path / "gen.wlra").exists()


def _n_zero(path):
    path.write_bytes(struct.pack("<4sHQH", b"WLRA", 1, 0, 1))


def _short_header(path):
    path.write_bytes(b"WLRA\x01\x00")


def _planted_1024(path):
    assert run(["gen", "--n", 1024, "--r", 8, "--p", 4, "--out", path]) == 0


# (name, writer of the instance file, command and flags, exit code, line printed)
EDGE_CASES = [
    ("short_header_solve", _short_header, ("solve", "--k", 1), 2,
     "error: truncated instance file"),
    ("short_header_verify", _short_header, ("verify",), 2, "error: truncated instance file"),
    ("n_zero", _n_zero, ("verify",), 2,
     "error: invalid instance: cannot group an empty index set"),
    ("sweeps_zero", _n_zero, ("solve", "--k", 1, "--sweeps", 0), 1,
     "error: max_sweeps must be positive"),
    ("budget_overflow", _planted_1024, ("verify", "--k", 3), 0, "iteration_budget overflow"),
]


@pytest.mark.parametrize("name, write, argv, code, line", EDGE_CASES,
                         ids=[case[0] for case in EDGE_CASES])
def test_edge_case_prints_its_line(tmp_path, capsys, name, write, argv, code, line):
    path = tmp_path / f"{name}.wlra"
    write(path)
    capsys.readouterr()
    assert run([argv[0], "--in", path, *argv[1:]]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", line + "\n")
    else:
        assert line in out.splitlines()


# ---------------------------------------------------------------------------
# solve and verify detect while reading


def _multi_block_file(tmp_path, n=200):
    """An n x n instance file whose rows take more than one detection block."""
    assert BlockDetector(n, n).block_rows < n
    A, W = generate(GenSpec(n=n, r=4, p=2, k_true=2, noise_sigma=0.1, seed=3))
    path = tmp_path / "blocks.wlra"
    write_instance(path, A, W)
    return path


@pytest.mark.parametrize("matrix, value", [(0, np.nan), (1, np.inf)])
@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_non_finite_entry_in_last_block_exits_2(tmp_path, capsys, matrix, value, command):
    path = _multi_block_file(tmp_path)
    n = 200
    data = bytearray(path.read_bytes())
    off = 16 + 8 * (n * n * matrix + n * (n - 1) + 7)  # row n - 1, column 7
    data[off:off + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run([command, "--in", path, "--k", 2]) == 2
    err = capsys.readouterr().err
    assert err == "error: invalid instance: matrix contains non-finite entries\n"


@pytest.mark.parametrize("matrix, value, where", [
    (0, np.nan, "w_one"), (0, np.nan, "w_zero"), (1, np.inf, "a_zero")])
@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_non_finite_entry_mid_band_exits_2(tmp_path, capsys, monkeypatch, matrix, value, where,
                                           command):
    # One row per block: rows 1..3 of each band of four equal rows continue
    # the class of the row before them, and row 6 is inside the second band.
    monkeypatch.setattr(pattern_index, "_BLOCK_BYTES", 1)
    n = 16
    W = np.repeat(np.array([[1.0, 0, 1, 1], [1, 0, 0, 1], [0, 0, 1, 1], [1, 0, 1, 0]]), 4, axis=0)
    W = np.tile(W, (1, 4))
    A = np.repeat(np.arange(1.0, 5.0)[:, None] * np.arange(n), 4, axis=0)  # column 0 is 0
    j = {"w_one": 3, "w_zero": 1, "a_zero": 0}[where]
    path = tmp_path / "banded.wlra"
    write_instance(path, A, W)
    data = bytearray(path.read_bytes())
    off = 16 + 8 * (n * n * matrix + n * 6 + j)
    data[off:off + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(data))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--in", path, "--k", 2]) == 2
    assert [str(w.message) for w in caught] == []  # inf * 0 is rejected, not warned about
    err = capsys.readouterr().err
    assert err == "error: invalid instance: matrix contains non-finite entries\n"


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_payload_off_by_one_byte_exits_2_before_any_block(tmp_path, capsys, monkeypatch,
                                                          delta, command):
    path = _multi_block_file(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-1] if delta < 0 else data + b"\0")
    reads = []
    read = cli._read_exact

    def spy(*args):
        reads.append(args[2])
        return read(*args)

    monkeypatch.setattr(cli, "_read_exact", spy)
    capsys.readouterr()
    assert run([command, "--in", path, "--k", 2]) == 2
    assert capsys.readouterr().err == "error: payload length does not match header\n"
    assert reads == []


_CORRUPT_ENTRIES = (np.nan, np.inf, -np.inf, -0.0, 1e308, 5e-324)


def _mutated(data, rng, kind, n):
    """A copy of an instance file's bytes with one seeded corruption of the given kind."""
    data = bytearray(data)
    if kind == "bit_flip":
        data[rng.integers(len(data))] ^= 1 << int(rng.integers(8))
    elif kind == "byte_set":
        data[rng.integers(len(data))] = rng.integers(256)
    elif kind == "truncation":
        del data[rng.integers(len(data)):]
    elif kind == "extension":
        data += rng.bytes(int(rng.integers(1, 17)))
    elif kind == "header_byte":
        data[rng.integers(16)] = rng.integers(256)
    else:  # an entry of A or W
        off = 16 + 8 * int(rng.integers(2 * n * n))
        value = _CORRUPT_ENTRIES[rng.integers(len(_CORRUPT_ENTRIES))]
        data[off:off + 8] = struct.pack("<d", value)
    return bytes(data)


def test_corrupted_files_exit_with_at_most_one_line(tmp_path, capsys):
    # 300 seeded mutations of a gen file, each through verify and both solve
    # modes: every run exits 0, 2 or 3 with at most one stderr line (a
    # warning counts as one), and none raises.  A header whose n falls
    # below --k is a flag error, exit 1.
    n = 24
    clean = _gen(tmp_path, n=n).read_bytes()
    path = tmp_path / "corrupt.wlra"
    rng = np.random.default_rng(28)
    kinds = ("bit_flip", "byte_set", "truncation", "extension", "header_byte", "entry")
    codes = collections.Counter()
    for i in range(300):
        path.write_bytes(_mutated(clean, rng, kinds[i % len(kinds)], n))
        for command in (["verify"], ["solve"], ["solve", "--sketchless"]):
            capsys.readouterr()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run([*command, "--in", path, "--k", 1])
            err = capsys.readouterr().err
            case = (i, kinds[i % len(kinds)], command, code, err, [str(w.message) for w in caught])
            assert err.count("\n") + len(caught) <= 1, case
            if code == 1:
                assert command[0] == "solve" and err == "error: k=1 exceeds n=0\n", case
            else:
                assert code in (0, 2, 3), case
            assert (code in (0, 3)) == (err == ""), case  # 3: "sidecar mismatch" on stdout
            codes[code] += 1
    assert codes[0] and codes[2] and codes[3], codes


def test_streamed_instance_equals_build_instance_of_the_read_file(tmp_path):
    path = _multi_block_file(tmp_path)
    A, W, sidecar = read_instance(path)
    got, got_sidecar = cli._load(path)
    want = build_instance(A, W)
    for name in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
        for field in ("group_of", "representatives", "sizes"):
            assert np.array_equal(getattr(getattr(got, name), field),
                                  getattr(getattr(want, name), field))
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.targets.tobytes() == want.targets.tobytes()
    assert got_sidecar is None and sidecar is None
    assert upper_bound(got) == pytest.approx(float(np.sum((W * A) ** 2)), rel=1e-12)


def test_solve_holds_less_than_a_quarter_of_the_file(tmp_path, capsys):
    path = _gen(tmp_path, n=512, r=4, p=2, k_true=2, seed=6)
    args = ["solve", "--in", path, "--k", 2, "--out-factors", tmp_path / "f.bin",
            "--out-report", tmp_path / "r.csv"]
    assert run(args) == 0  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        assert run(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < path.stat().st_size / 4


def test_grouped_factor_is_written_a_row_block_at_a_time(tmp_path):
    inst = generate_compressed(GenSpec(n=1 << 16, r=4, p=4, k_true=3, seed=2))
    rows = np.random.default_rng(3).standard_normal((inst.wa_rows.num_groups, 3))
    factor = GroupedFactor(index=inst.wa_rows, rows=rows)
    with open(tmp_path / "expanded.bin", "wb") as f:
        cli._write_rows(f, factor.expand())
    with open(tmp_path / "grouped.bin", "wb") as f:
        tracemalloc.start()
        try:
            cli._write_rows(f, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "grouped.bin").read_bytes() == (tmp_path / "expanded.bin").read_bytes()
    assert peak < factor.expand().nbytes / 2


def test_factor_file_is_u_then_v_as_little_endian_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_BYTES", 64)  # a few rows per write
    path = _gen(tmp_path, n=40, r=2, p=2, k_true=3, seed=12)
    factors = tmp_path / "factors.bin"
    assert run(["solve", "--in", path, "--k", 3, "--seed", 5, "--out-factors", factors]) == 0
    inst, _ = cli._load(path)
    fact, _ = solve(inst, SolveOptions(k=3, seed=5))
    want = (np.ascontiguousarray(fact.U).astype("<f8").tobytes()
            + np.ascontiguousarray(fact.V).astype("<f8").tobytes())
    assert factors.read_bytes() == want


# ---------------------------------------------------------------------------
# parser contract


def test_unknown_flag_exits_1():
    assert run(["gen", "--n", 8, "--out", "x", "--bogus"]) == 1


def test_missing_subcommand_exits_1():
    assert run([]) == 1


# ---------------------------------------------------------------------------
# one failure path: subcommands raise, main reports


_OS_ERROR_HANDLERS = {"OSError", "IOError", "EnvironmentError", "Exception", "BaseException"}


def _functions(tree):
    """(name, node) of each module-level function, and of each method as Class.name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _handles_os_error(handler):
    if handler.type is None:  # a bare except
        return True
    return any(isinstance(n, ast.Name) and n.id in _OS_ERROR_HANDLERS
               for n in ast.walk(handler.type))


def test_cli_errors_are_reported_only_by_main():
    tree = ast.parse(inspect.getsource(cli))
    err_calls = {node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "_err"}
    callers, handlers = [], set()  # a caller once per call
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            if node in err_calls:
                callers.append(name)
            if isinstance(node, ast.ExceptHandler) and _handles_os_error(node):
                handlers.add(name)
    assert set(callers) == {"main", "_Parser.error"}
    assert len(callers) == len(err_calls)  # none outside a function
    assert handlers == {"main"}

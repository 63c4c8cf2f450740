import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from wlra import GenSpec, SolveOptions, build_instance, generate, generate_compressed, solve
from wlra import cli
from wlra.cli import CSV_HEADER, main, read_instance, write_instance
from wlra.pattern_index import BlockDetector


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


def test_gen_unwritable_path(tmp_path):
    code = run(["gen", "--n", 8, "--out", tmp_path / "missing_dir" / "x.wlra"])
    assert code == 2


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


def _unchanged(data):
    pass


MISSING = object()  # in place of an edit: no instance file at the --in path


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
    ("rp_over_n", None, ("--sizes", 8, 16, "--r", 4, "--p", 4), 1, ("bench",)),
    ("size_zero", None, ("--sizes", 0), 1, ("bench",)),
    ("r_zero", None, ("--sizes", 8, "--r", 0), 1, ("bench",)),
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
    if command == "gen":
        assert not (tmp_path / "gen.wlra").exists()


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


def test_streamed_instance_equals_build_instance_of_the_read_file(tmp_path):
    path = _multi_block_file(tmp_path)
    A, W, sidecar = read_instance(path)
    got, got_sidecar, bound = cli._load(path)
    want = build_instance(A, W)
    for name in ("w_rows", "w_cols", "wa_rows", "wa_cols"):
        for field in ("group_of", "representatives", "sizes"):
            assert np.array_equal(getattr(getattr(got, name), field),
                                  getattr(getattr(want, name), field))
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.targets.tobytes() == want.targets.tobytes()
    assert got_sidecar is None and sidecar is None
    assert bound == pytest.approx(float(np.sum((W * A) ** 2)), rel=1e-12)


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


def test_factor_file_is_u_then_v_as_little_endian_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BLOCK_BYTES", 64)  # a few rows per write
    path = _gen(tmp_path, n=40, r=2, p=2, k_true=3, seed=12)
    factors = tmp_path / "factors.bin"
    assert run(["solve", "--in", path, "--k", 3, "--seed", 5, "--out-factors", factors]) == 0
    inst, _, _ = cli._load(path)
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

import struct

import numpy as np
import pytest

from wlra import GenSpec, build_instance, generate
from wlra.cli import CSV_HEADER, main, read_instance, write_instance


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


def _truncate(data):
    del data[-4:]


def _bad_magic(data):
    data[:4] = b"NOPE"


def _bad_version(data):
    data[4:6] = struct.pack("<H", 2)


def _unchanged(data):
    pass


FILE_COMMANDS = ("solve", "verify")

# (name, edit of the instance file's bytes, extra flags, exit code, commands)
BAD_INPUTS = [
    ("nan_in_a", _set_entry(0, 1, 2, np.nan), (), 2, FILE_COMMANDS),
    ("inf_in_w", _set_entry(1, 3, 0, np.inf), (), 2, FILE_COMMANDS),
    ("truncated_payload", _truncate, (), 2, FILE_COMMANDS),
    ("bad_magic", _bad_magic, (), 2, FILE_COMMANDS),
    ("bad_version", _bad_version, (), 2, FILE_COMMANDS),
    ("unknown_flag", _unchanged, ("--bogus",), 1, FILE_COMMANDS),
    ("threads_flag", _unchanged, ("--threads", 2), 1, FILE_COMMANDS),
    ("k_zero", _unchanged, ("--k", 0), 1, FILE_COMMANDS),
    ("eps_zero", _unchanged, ("--eps", 0), 1, FILE_COMMANDS),
    ("gamma_negative", _unchanged, ("--gamma", -1), 1, ("verify",)),
    ("rp_over_n", None, ("--sizes", 8, 16, "--r", 4, "--p", 4), 1, ("bench",)),
    ("size_zero", None, ("--sizes", 0), 1, ("bench",)),
    ("r_zero", None, ("--sizes", 8, "--r", 0), 1, ("bench",)),
]
PARSER_ERRORS = ("unknown_flag", "threads_flag")  # argparse prints its usage line first
BAD_CASES = [(name, edit, extra, code, command)
             for name, edit, extra, code, commands in BAD_INPUTS for command in commands]


@pytest.mark.parametrize("name, edit, extra, code, command", BAD_CASES,
                         ids=[f"{case[0]}-{case[4]}" for case in BAD_CASES])
def test_bad_input_exit_codes(tmp_path, capsys, name, edit, extra, code, command):
    if command == "bench":
        args = ["bench", "--out", tmp_path / "bench.csv"]
    else:
        path = tmp_path / f"{name}.wlra"
        rng = np.random.default_rng(4)
        write_instance(path, rng.standard_normal((N_BAD, N_BAD)), np.ones((N_BAD, N_BAD)))
        data = bytearray(path.read_bytes())
        edit(data)
        path.write_bytes(bytes(data))
        args = [command, "--in", path, "--k", 2]
    capsys.readouterr()
    assert run([*args, *extra]) == code
    err = capsys.readouterr().err
    if name not in PARSER_ERRORS:  # one line, no traceback
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# parser contract


def test_unknown_flag_exits_1():
    assert run(["gen", "--n", 8, "--out", "x", "--bogus"]) == 1


def test_missing_subcommand_exits_1():
    assert run([]) == 1

"""Small-size self-test of the benchmark: every metric printed with its unit,
outputs checked, and a corrupted factor file counted as a failure.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    small = {name: dataclasses.replace(w, n=64 if name == "dense_cli" else 256)
             for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", small)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.05",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


def test_tables_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == {name: spec[:2] for name, spec in PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["dense_cli", "compressed_sketched", "compressed_exact"])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    if trace:
        assert result["metrics"]["grouped_als.half_sweeps"]["value"] >= 2
    else:
        assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_corrupted_factor_file_counts_as_failure(capsys, monkeypatch):
    solve = run.DenseCli.op

    def corrupting(self, case):
        out = solve(self, case)
        raw = bytearray(case.factors.read_bytes())
        raw[7] ^= 0x7F  # scramble the exponent of U[0, 0]
        case.factors.write_bytes(bytes(raw))
        return out

    monkeypatch.setattr(run.DenseCli, "op", corrupting)
    _, result = _run(capsys, "dense_cli", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_rate"]["value"] == 0.0

"""Self-test of the benchmark: tiny-input smoke runs and planted faults.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS.items())
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _command(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for metric in table:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"  {metric['name']} = ") and line.endswith(metric["unit"])
                   for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in table)


def _corrupt(workload_name, result):
    if workload_name == "suite_kronecker":
        key, out = result[-1]  # the last HiCOO-MTTKRP output, a dense matrix
        return result[:-1] + [(key, out * 1.01)]
    result.fits[0] += 0.01
    return result


@pytest.mark.parametrize("warmup_s", [0.0, 0.3])
@pytest.mark.parametrize("workload_name", ["suite_kronecker", "cpals_ooc"])
def test_planted_wrong_result_counts_as_failed(workload_name, warmup_s, tmp_path, monkeypatch):
    """A wrong second unit fails the run, in the timed window or in warm-up."""
    workload = workloads.WORKLOADS[workload_name]
    path, checksum = inputs.ensure_input(workload.spec + "-tiny", 5, tmp_path / "data")
    ref = workload.reference(inputs.load_verified(path, checksum), 5)
    ref_path = tmp_path / "reference.pkl"
    ref_path.write_bytes(pickle.dumps(ref))
    calls = {"n": 0}
    unit = workload.unit

    def planted(state):
        calls["n"] += 1
        result = unit(state)
        return _corrupt(workload_name, result) if calls["n"] == 2 else result

    monkeypatch.setattr(workload, "unit", planted)
    cfg = {"workload": workload_name, "seed": 5, "seconds": 0.5, "input": str(path),
           "reference": str(ref_path), "src": str(ROOT / "src"), "trace": False,
           "warmup_s": warmup_s}
    record = worker.run_worker(cfg, time.perf_counter())
    assert calls["n"] >= 3
    assert record["failed"] == 1
    assert record["attempted"] == calls["n"]
    # warm-up units are checked and counted but not timed
    untimed = record["attempted"] - 1 - len(record["times"])
    assert (untimed > 0) == (warmup_s > 0)


def test_generator_pin_mismatch_fails_loudly(tmp_path, monkeypatch):
    pins = json.loads(inputs.PINS_PATH.read_text())
    pins["kronecker-tiny"]["sha256"] = "0" * 64
    fake = tmp_path / "pins.json"
    fake.write_text(json.dumps(pins))
    monkeypatch.setattr(inputs, "PINS_PATH", fake)
    with pytest.raises(inputs.InputError, match="repro.generators changed"):
        inputs.ensure_input("kronecker-tiny", 9, tmp_path / "data")


def test_input_checksum_mismatch_fails_loudly(tmp_path):
    path, checksum = inputs.ensure_input("kronecker-tiny", 9, tmp_path / "data")
    with pytest.raises(inputs.InputError, match="hashes to"):
        inputs.load_verified(path, "f" * 64)


def test_tail_keeps_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _command("suite_kronecker", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

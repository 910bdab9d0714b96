"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Each run goes through the command `BENCHMARK.json` names, so the metric
names and units it checks are the ones the benchmark declares.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, *args, timeout=300):
    argv = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_no_item_fails(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    for m in declared:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    else:
        assert result["metrics"]["ok_share"]["value"] == 1.0
        assert "failed_share=0.000000" in proc.stdout


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

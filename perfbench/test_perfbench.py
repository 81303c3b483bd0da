"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run the workloads in short mode (small inputs, seconds each), so
they check plumbing and counts, never timings.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_mode_runs_end_to_end(workload):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--short")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    ops = len(workloads.build(workload, 5, short=True))
    assert result["attempted"] >= 2 * ops + 1  # two runs must agree, plus the determinism check
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: u for n, u, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "probe tables --which 2 --snr-db 30: exit 1 (runtime-failure)" in proc.stdout
    assert "determinism (--chunks 1 vs 2): match" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first, second = (
        _result(_bench("--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1", "--short"))
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _, _ in tracer.PER_LAYER}
    for name in tracer.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    metrics = {name: m["value"] for name, m in first["metrics"].items()}
    assert metrics["trace.coverage"] > 0.9
    if workload == "library-redraw":
        assert metrics["montecarlo.unique_block_ratio"] < 0.5
    else:
        assert metrics["montecarlo.unique_block_ratio"] == 1.0
        assert metrics["cli.bytes_written"] > 0
    if workload == "deep-resolve":
        assert metrics["analytic.survival_evals_per_resolved"] == 2**8 + 2  # short mode: depth 8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sample-roc", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_self_time_subtracts_the_union_of_children():
    t = tracer.Tracer()
    # span 0 on thread 0 spans [0, 100]; span 1 is a same-thread child
    # [10, 30]; spans 2 and 3 run on worker threads over [40, 80] and
    # [60, 90], overlapping, so together they cover 50 of span 0
    spans = {
        "name": np.zeros(4, dtype=np.int64),
        "thread": np.array([0, 0, 1, 2]),
        "start": np.array([0, 10, 40, 60]),
        "end": np.array([100, 30, 80, 90]),
        "parent": np.array([-1, 0, 0, 0]),
    }
    assert t._self_ns(spans).tolist() == [30.0, 20.0, 40.0, 30.0]

"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once at tiny sizes (--smoke), untraced and traced, and
must pass its oracle checks and emit exactly the metrics BENCHMARK.json
declares, each with its declared unit; a traced run's counts must repeat
exactly for a seed. Without the library sources next to it, the benchmark
must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, info["oracle_problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    assert info["seed"] == 3
    assert {"nproc", "python", "numpy", "blas", "blas_threads"} <= set(info["machine"])
    if workload == "batch_model_200":
        assert info["failed_frac"] == pytest.approx(0.05)
    else:
        assert info["failed_frac"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    counts = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

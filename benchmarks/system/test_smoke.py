"""Smoke test of the system benchmark at tiny scale.

Outside tier-1's ``testpaths``; run it explicitly:

    python -m pytest -q benchmarks/system/test_smoke.py

Every workload runs once untraced and once traced through the real command
line.  The tests assert that each run prints every metric ``BENCHMARK.json``
declares, by name and with its unit, that the correctness checks pass, that
the trace reconciles, and that the command fails cleanly without ``src/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = _run(str(HERE / "run.py"), "--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    printed = proc.stdout.splitlines()[:-1]
    for metric in declared:
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in printed
        ), f"{metric['name']} not printed"

    if trace:
        prefix = "trace written to "
        path = next(line[len(prefix):] for line in printed if line.startswith(prefix))
        summary = _run(str(HERE / "summarize.py"), path)
        assert summary.returncode == 0, summary.stdout + summary.stderr
        assert result["metrics"]["trace.reconcile_err"]["value"] <= 0.02


def test_command_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: no result, nonzero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "system",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(*BENCHMARK["command"][1:], "--workload", WORKLOADS[0], "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

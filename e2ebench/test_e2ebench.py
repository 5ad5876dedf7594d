"""The benchmark's own tests: smoke runs of every workload pass their checks.

Run with ``python -m pytest e2ebench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from e2ebench import harness  # noqa: E402

harness.require_program()

from e2ebench.inputs import SERVE_MIX  # noqa: E402
from e2ebench.layers import UNITS  # noqa: E402
from e2ebench.run import END_TO_END, WORKLOAD_NAMES  # noqa: E402


def _run(*args: str, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def _ops(stdout: str) -> dict[tuple[str, str], tuple[int, int]]:
    counts = {}
    for line in stdout.splitlines():
        if line.startswith("ops "):
            _, workload, kind, _, attempted, _, failed = line.split()
            counts[(workload, kind)] = (int(attempted), int(failed))
    return counts


def test_smoke_runs_every_workload_and_its_checks():
    done = _run("--workload", "all", "--smoke", "--seed", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]
    ops = _ops(done.stdout)
    for workload in WORKLOAD_NAMES:
        assert f"checks {workload}: ok" in done.stdout
        assert ops[(workload, "query")][0] > 0 and ops[(workload, "query")][1] == 0
        assert ops[(workload, "update")][0] > 0 and ops[(workload, "update")][1] == 0
    # serve-warm runs whole rounds, so hostile requests are a fixed share
    hostile = ops[("serve-warm", "hostile")][0]
    total = sum(a for (workload, _), (a, _) in ops.items() if workload == "serve-warm")
    assert hostile > 0
    assert total * SERVE_MIX.hostile == hostile * SERVE_MIX.operations


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_result_line_has_every_end_to_end_metric(workload):
    done = _run("--workload", workload, "--smoke", "--seed", "4")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == END_TO_END[name]
        assert entry["value"] > 0, name


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS


def test_traced_smoke_reports_every_layer():
    done = _run("--workload", "update-churn", "--smoke", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["metrics"]) == set(UNITS)
    assert result["metrics"]["farm.commit_ms"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "cold-start", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, script=tmp_path / "e2ebench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()

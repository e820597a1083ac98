"""Self-test of the benchmark: python3 -m pytest perfbench

The traced runs take about a minute and a half on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.metric_units().items())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_check_names_match_the_suites():
    sys.path.insert(0, str(ROOT / "src"))
    import deltasums as ds

    checks = ds.appendix_suite() + ds.pipeline_suite() + ds.transforms_suite()
    assert [c.name for c in checks] == tracer.CHECK_NAMES


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_exercises_its_layers(workload):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert list(metrics) == list(tracer.metric_units())
    silent = [
        name
        for name, expected in tracer.expected_workloads().items()
        if expected == workload and metrics[name]["value"] <= 0
    ]
    assert not silent, f"layers not reached on {workload}: {silent}"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep_all", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Smoke test of the benchmark: every workload at tiny sizes, untraced and traced.

    python -m pytest bench/test_smoke.py -q

Checks that every named metric appears with its unit and that every output
check passes. It makes no timing assertions.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path[:0] = [str(BENCH), str(ROOT / "src")]
from harness import E2E_UNITS  # noqa: E402  (every metric the table prints, with unit)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def assert_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced(workload):
    lines, result = result_of(run_bench(ROOT, workload, 0))
    assert_metrics(result["metrics"], SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    table = {ln.split()[1]: ln.split() for ln in lines if ln.startswith("metric ")}
    assert set(table) == set(E2E_UNITS)
    for name, unit in E2E_UNITS.items():
        assert table[name][3] == unit, name
    assert table["fail_frac"][2] == "0"
    facts = json.loads(next(ln for ln in lines if ln.startswith("facts "))[6:])
    for key in ("nproc", "cpu_model", "python", "numpy", "blas_threads", "SNN_THREADS",
                "seed"):
        assert key in facts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    _, result = result_of(run_bench(ROOT, workload, 1))
    assert_metrics(result["metrics"], SPEC["per_layer"])
    assert result["metrics"]["trace.traced_steps_per_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

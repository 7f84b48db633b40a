"""The benchmark's own checks.

    python3 -m pytest perfbench/test_counts.py -q

* two traced runs at one seed report identical deterministic counts
  (every ``exact`` metric of ``layer_map.json``: call counts, session
  events, cohort and cache counts, log bytes);
* an untraced run reports exactly the end-to-end metrics of
  ``BENCHMARK.json``, each non-zero, and a traced run exactly its
  per-layer metrics, which are the entries of ``layer_map.json``;
* without the simulator's source the benchmark exits non-zero and
  prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("session_grid", "flash_crowd", "runner_sweep")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
with open(os.path.join(HERE, "layer_map.json")) as _f:
    LAYER_MAP = json.load(_f)["metrics"]


def _run(workload, trace, cwd=ROOT, seed=1):
    command = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "0.1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(done):
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_layer_map_is_the_per_layer_list():
    assert BENCH["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]}
        for m in LAYER_MAP
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(workload, 1))["metrics"]
    second = _result(_run(workload, 1))["metrics"]
    assert set(first) == {m["name"] for m in BENCH["per_layer"]}
    exact = [m["name"] for m in LAYER_MAP if m["exact"]]
    assert {n: first[n]["value"] for n in exact} == {
        n: second[n]["value"] for n in exact
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_the_end_to_end_metrics(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run("session_grid", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

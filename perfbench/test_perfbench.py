"""Checks of the benchmark itself: its input generators and its result line.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import workloads  # noqa: E402
from test_acceptance import scale_workload  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_scale_workload_is_the_acceptance_generator():
    assert workloads.scale_workload() == scale_workload()
    assert workloads.scale_workload(n=2_500, seed=7) == scale_workload(n=2_500, seed=7)


def test_benchmark_json_describes_its_workloads_as_the_specs_do():
    for declared in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        assert declared["why"] == workloads.SPECS[declared["name"]].why


def test_inputs_depend_only_on_the_seed():
    for spec in workloads.SPECS.values():
        assert spec.inputs(11) == spec.inputs(11), spec.name
        assert spec.inputs(11) != spec.inputs(12), spec.name


def test_workload_shapes():
    burst = workloads.burst_at_zero(workloads.BURST_N, 3)
    assert {p.it for p in burst.processes} == {0}
    sparse = workloads.sparse_gaps(workloads.SPARSE_N, 3).processes
    low, high = workloads.SPARSE_GAP
    assert all(a.it + a.st < b.it and low <= b.it - a.it <= high for a, b in zip(sparse, sparse[1:]))
    # Paired gaps: the idle time, and so the run's cost, does not depend on the seed.
    assert sparse[-1].it == (workloads.SPARSE_N - 1) * (low + high) // 2
    stretched = workloads.sparse_gaps(workloads.SPARSE_N, 3, stretch=4).processes
    assert [p.it for p in stretched] == [4 * p.it for p in sparse]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line(trace, kind):
    done = _bench("--workload", "fuzz-small", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "fuzz-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

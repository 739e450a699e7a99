"""Self-tests of the benchmark: result contract and exact traced counts.

Run from the repository root with ``python3 -m pytest perfbench``; each test
starts the benchmark as a subprocess, so the whole file takes a few minutes.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that depend only on shapes and topologies, never on timing or input values.
EXACT_COUNTS = ("tensor.records", "tensor.matmul.gflop_per_sample", "tensor.tape_mib_at_backward",
                "tensor.grad_mib_after_backward", "training.steps")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def exact(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.startswith(EXACT_COUNTS)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = bench(workload, seed=1, trace=0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs_and_seeds(workload):
    first, again, other_seed = (bench(workload, seed, trace=1) for seed in (1, 1, 2))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == want
    assert exact(first) == exact(again) == exact(other_seed)
    assert first["data.csv_bytes_per_sample"] == again["data.csv_bytes_per_sample"]


def test_normalised_time_divides_by_the_median_of_the_nearest_jobs():
    clock = hostspeed.HostClock(tracing.NullTracer())
    clock.jobs = [0.5, 0.01, 0.04, 0.02, 0.5]
    # the call was followed by job 2; jobs 1, 2 and 3 have the median 0.02
    assert clock.normalised(hostspeed.Timing(wall=1.0, job=2)) == \
        pytest.approx(hostspeed.NOMINAL_S / 0.02)
    # at the start of the run the window holds only the jobs that exist
    assert clock.normalised(hostspeed.Timing(wall=1.0, job=0)) == \
        pytest.approx(hostspeed.NOMINAL_S / statistics.median([0.5, 0.01]))

"""Tiny-size smoke tests of the benchmark.

    python3 -m pytest kfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import floor  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kinfluid import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, "kfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_listed_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["trace.absent_layers"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_zero_reproduces_builtin_profile(tmp_path):
    wl = workloads.Sweep(tmp_path, 0, "tiny")
    _, csv = wl.run()
    builtin = harness.ExperimentConfig(
        **workloads.Sweep.SIZES["tiny"], cfl=0.4, eps_list=wl.config.eps_list,
        output_dir=str(tmp_path / "builtin"),
    )
    rows = harness.run_convergence(builtin).rows
    assert harness.emit_csv(rows, tmp_path / "builtin.csv").read_bytes() == csv


def test_removed_layer_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.LAYERS, "gone.function", (["fluid.no_such_function"], None))
    monkeypatch.setitem(spans.LAYERS, "gone.module", (["no_such_module.f"], None))
    tracer = spans.Tracer()
    wl = workloads.Picard(None, 0, "tiny")
    with tracer.installed():
        wl.run()
    assert tracer.absent_layers == ["gone.function", "gone.module"]
    metrics = tracer.layer_metrics(1)
    assert metrics["gone.function.calls"] == 0
    assert metrics["limit.picard_iterate.calls"] == workloads.Picard.SIZES["tiny"]["iters"]


def test_floor_time_is_a_sum_of_measured_intervals(monkeypatch):
    monkeypatch.setattr(floor, "MARKS", floor.MARKS + ("fluid.no_such_function",))
    clock = floor.FloorClock()
    wl = workloads.Picard(None, 0, "tiny")
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        with clock.measuring():
            wl.run()
        walls.append(time.perf_counter() - t0)
    assert clock.missing_names == ["fluid.no_such_function"]
    floors = clock.floor_seconds()
    assert len(set(floors)) == 1
    assert 0 < floors[0] <= min(walls)
    assert len(clock.op_kinds[-1]) > 1

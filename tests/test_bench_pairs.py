import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summarise_counts_pair_wins_by_direction():
    runs = {
        "parent": [{"solve_s": p, "success_rate": 1.0} for p in (1.0, 2.0, 3.0, 4.0, 5.0)],
        "change": [{"solve_s": c, "success_rate": s} for c, s in ((0.5, 1.0), (2.5, 0.9), (2.0, 1.0), (4.0, 1.0), (4.0, 1.0))],
    }
    out = bench_pairs.summarise(runs, {"solve_s": "lower", "success_rate": "higher"})
    solve = out["solve_s"]
    assert solve["change_wins"] == 3 and solve["pairs"] == 5  # the tie counts for neither side
    assert (solve["parent"]["median"], solve["parent"]["q1"], solve["parent"]["q3"], solve["parent"]["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert solve["change"]["median"] == 2.5 and solve["median_change_pct"] == pytest.approx(-50.0 / 3.0)
    assert out["success_rate"]["change_wins"] == 0
    assert bench_pairs.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0, "values": [7.0]}


def test_entries_record_each_sides_blas_build(tmp_path, monkeypatch):
    # the BLAS build is read from numpy in a subprocess of each side; the
    # kfbench runs are stubbed out
    root = Path(__file__).parents[1]
    blas = bench_pairs.blas_build(root)
    assert list(blas) == list(bench_pairs.BLAS_KEYS) and isinstance(blas["name"], str) and blas["name"]
    record = {"env": {"backend": "numpy"}, "values": {"solve_s": 1.0, "wall_s": 1.0}, "correct": True}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: record)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(root), "--change", str(root), "--workload", "picard", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    entry = json.loads(out.read_text())["entries"]["picard/seed0"]
    assert entry["blas"] == {"parent": blas, "change": blas}

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_floor_split_groups_sum_to_the_floor():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "floor_split.py"), "--root", str(ROOT),
         "--workload", "picard", "--size", "tiny", "--repeats", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["failed_operations"] == 0 and doc["unmarked_names"] == []
    assert len(doc["floor_s_per_repeat"]) == 3 and doc["floor_s"] in doc["floor_s_per_repeat"]
    groups = doc["groups"]
    assert {"picard_iterate", "tridiag_dirichlet_solve", "two_phase_step"} <= groups.keys()
    assert sum(g["seconds"] for g in groups.values()) == pytest.approx(doc["floor_s"], rel=1e-12)
    for group in groups.values():
        assert sum(k["intervals"] for k in group["kinds"]) == group["intervals"]
        kinds_us = sum(k["intervals"] * k["us_per_interval"] for k in group["kinds"])
        assert kinds_us == pytest.approx(1e6 * group["seconds"], rel=1e-12)
        assert group["us_per_interval"] == pytest.approx(kinds_us / group["intervals"], rel=1e-12)
    # tiny picard: 4 iterates of 8 levels, one viscous solve a level, and
    # the direct march's 8 steps
    assert groups["tridiag_dirichlet_solve"]["intervals"] == 32
    assert groups["two_phase_step"]["intervals"] == 8

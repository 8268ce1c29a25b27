import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_cli_rss_reports_each_command_per_repeat():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_rss.py"), "--root", str(ROOT), "--size", "tiny", "--repeats", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["seed"], doc["size"]) == (0, "tiny")
    growth = doc["maxrss_growth"][str(ROOT)]
    assert growth.keys() == {"simulate-kinetic_mib", "check-entropy_mib"}
    for values in growth.values():
        assert len(values) == 2 and all(0.0 <= mib < 64.0 for mib in values)

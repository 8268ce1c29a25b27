"""Time one workload's set-up in a fresh interpreter: importing kinfluid,
generating the inputs, building the config, grid and initial data, and a
tiny warm-up run (where JIT compilation would happen if numba were present).

Usage: python3 -X importtime kfbench/setup_probe.py <workload> <seed> <size> <workdir>

The interpreter's import timings of the set-up are the standard-error lines
between two IMPORT_MARK lines. The last standard-output line is a JSON object:
the wall seconds of the whole set-up, and of the part after the imports.
"""
import sys
import time

IMPORT_MARK = "# kfbench set-up imports"

T0 = time.perf_counter()
sys.stderr.write(IMPORT_MARK + "\n")

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and kinfluid)

T1 = time.perf_counter()
sys.stderr.write(IMPORT_MARK + "\n")


def main(argv):
    name, seed, size, workdir = argv
    wl = workloads.WORKLOADS[name](Path(workdir), int(seed), size)
    wl.warm_up()
    t2 = time.perf_counter()
    print(json.dumps({"wall_s": t2 - T0, "after_imports_s": t2 - T1}))


if __name__ == "__main__":
    main(sys.argv[1:])

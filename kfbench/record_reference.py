#!/usr/bin/env python3
"""Record the sweep reference that every full-size sweep repeat is checked
against: the convergence CSV of each amplitude level.

    python3 kfbench/record_reference.py

Re-record only for a change that is meant to move the sweep's numbers, and
say so where the change is described. Before writing, this checks that
every level passes the sweep's other checks, that every level marches with
the same dt (so all seeds do the same work) and that level 0, fed through
a custom_state file, reproduces the built-in wave profile's CSV bit for bit.
"""
import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from kinfluid import harness  # noqa: E402


def main():
    workdir = HERE / "_work" / "reference"
    sweeps, dts = {}, set()
    try:
        for level in range(workloads.AMPLITUDE_LEVELS):
            wl = workloads.Sweep(workdir / str(level), level, "full")
            result, csv = wl.run()
            wl.check_against_reference = False
            errors = wl.check((result, csv))[0]
            if errors:
                sys.exit(f"level {level} fails its checks: {errors}")
            dts.add((result.limit.dt,) + tuple(run.dt for run in result.runs))
            sweeps[str(level)] = csv.decode("ascii")
            print(f"level {level}: scale {workloads.amplitude_scale(level)}, slope {result.slope:.4f}")
        if len(dts) != 1:
            sys.exit(f"dt differs across amplitude levels: {sorted(dts)}")
        builtin = dataclasses.replace(wl.config, initial_profile="local_maxwellian_wave", custom_state=None)
        rows = harness.run_convergence(builtin).rows
        csv_builtin = harness.emit_csv(rows, workdir / "builtin.csv").read_text()
        if csv_builtin != sweeps["0"]:
            sys.exit("level 0 does not reproduce the built-in wave profile")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {"sweep": sweeps}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Peak-RSS growth of the two CLI commands of kfbench's cli_audit workload.

    python3 tools/cli_rss.py --root DIR [--root DIR ...] [--seed 0] [--size full] [--repeats 3]

For each checkout root, a fresh interpreter of that checkout builds the
cli_audit config, makes kfbench's warm-up run and calls simulate-kinetic
in-process, as kfbench does; a second fresh interpreter then calls
check-entropy on the run it wrote. Each reports the growth of its ru_maxrss
(RUSAGE_SELF, MiB) across the command, so neither command's peak hides the
other's. Children, such as a run's sampler process, are not counted. The
roots alternate within each repeat. Prints one JSON object. Standard library
only.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """
import contextlib, io, json, resource, sys
from pathlib import Path
sys.path.insert(0, "kfbench")
import workloads
from kinfluid import cli

command, workdir, seed, size = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
if command == "simulate-kinetic":
    wl = workloads.CliAudit(workdir, seed, size)
    wl.warm_up()
    main = cli.main_simulate_kinetic
    argv = ["--config", str(wl.config_path), "--eps", str(wl.EPS), "--out", str(wl.out)]
else:
    main, argv = cli.main_check_entropy, ["--run", str(workdir / "run")]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = main(argv)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"exit": code, "growth_mib": (after - before) / 1024.0}))
"""

COMMANDS = ("simulate-kinetic", "check-entropy")


def probe(root: Path, command: str, workdir: Path, seed: int, size: str) -> float:
    """The ru_maxrss growth, in MiB, of one command in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, command, str(workdir), str(seed), size],
                          cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    rec = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {"exit": None}
    if rec["exit"] != 0:
        raise RuntimeError(f"{command} in {root} failed ({proc.returncode}, {rec['exit']}):\n{proc.stderr[-2000:]}")
    return rec["growth_mib"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, action="append", required=True, help="a checkout; repeat for several")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    out = {str(root): {f"{command}_mib": [] for command in COMMANDS} for root in args.root}
    for _ in range(args.repeats):
        for root in args.root:
            with tempfile.TemporaryDirectory() as workdir:
                for command in COMMANDS:
                    growth = probe(root.resolve(), command, Path(workdir), args.seed, args.size)
                    out[str(root)][f"{command}_mib"].append(growth)
    print(json.dumps({"seed": args.seed, "size": args.size, "maxrss_growth": out}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

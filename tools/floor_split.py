#!/usr/bin/env python3
"""Where one kfbench workload's floor time goes, in one process.

    python3 tools/floor_split.py --root DIR --workload picard --seed 0 --repeats 40

Imports kinfluid from DIR/src and the workload and floor clock from
DIR/kfbench, so each checkout is measured with its own benchmark code. Sets
the workload up, warms it up, then runs it --repeats times under the floor
clock (kfbench/floor.py), checking every outcome. The clock credits each
interval kind with its fastest occurrence over all repeats; an operation's
floor is the sum of the floors of its intervals.

Prints one JSON object: the floor seconds of each repeat and, for the repeat
with the median floor, that floor split by the innermost mark open in each
interval ("-" outside every mark). Each group holds its floor seconds, its
interval count and the mean floor microseconds per interval, and each of its
interval kinds by the marks at the interval's two ends. The groups sum to the
floor. Reads kfbench, writes nothing there; standard library besides what the
workload imports.
"""
import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path


def split(kinds, floors) -> dict:
    """Floor seconds of one operation's interval kinds (kind -> count),
    grouped by the innermost open mark."""
    groups = {}
    for kind, count in kinds.items():
        stack, start, end = kind
        group = groups.setdefault(stack[-1] if stack else "-", {"seconds": 0.0, "intervals": 0, "kinds": []})
        seconds = count * floors[kind]
        group["seconds"] += seconds
        group["intervals"] += count
        group["kinds"].append({"from": start, "to": end, "intervals": count, "us_per_interval": 1e6 * floors[kind]})
    for group in groups.values():
        group["us_per_interval"] = 1e6 * group["seconds"] / group["intervals"]
        group["kinds"].sort(key=lambda k: -k["intervals"] * k["us_per_interval"])
    return dict(sorted(groups.items(), key=lambda kv: -kv[1]["seconds"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path("."), help="root of the checkout to measure")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=40)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    root = args.root.resolve()
    if not ((root / "kfbench" / "floor.py").is_file() and (root / "src" / "kinfluid" / "__init__.py").is_file()):
        ap.error(f"{root} holds no kfbench/floor.py and src/kinfluid")
    sys.path[:0] = [str(root / "src"), str(root / "kfbench")]
    import run as kfbench_run  # standard library only at import; caps threads before numpy loads

    kfbench_run.cap_threads(len(os.sched_getaffinity(0)))
    import kinfluid
    import workloads
    from floor import FloorClock

    if not Path(kinfluid.__file__).resolve().is_relative_to(root / "src"):
        ap.error(f"kinfluid imported from {kinfluid.__file__}, not from {root / 'src'}")

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.WORKLOADS[args.workload](Path(workdir), args.seed, args.size)
        wl.warm_up()
        clock = FloorClock()
        failed = 0
        for _ in range(args.repeats):
            with clock.measuring():
                _, outcome = kfbench_run.run_once(wl)
            failed += sum(1 for errors in kfbench_run.check_once(wl, outcome) if errors)

    floors = clock.floor_seconds()
    median_op = sorted(range(len(floors)), key=floors.__getitem__)[len(floors) // 2]
    print(json.dumps({
        "root": str(root), "git_sha": kfbench_run.git_sha(), "workload": args.workload,
        "seed": args.seed, "size": args.size, "repeats": args.repeats, "failed_operations": failed,
        "unmarked_names": clock.missing_names, "floor_s_per_repeat": floors,
        "floor_s_median": statistics.median(floors), "floor_s": floors[median_op],
        "groups": split(clock.op_kinds[median_op], clock.floors),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

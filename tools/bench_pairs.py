#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload picard \
        --seed 0 --pairs 10 --seconds 33 --out BENCH_<pr>.json

Runs `kfbench/run.py --trace 0` of the parent checkout and of the change
checkout, each from its own root, in --pairs pairs per workload. The side
that runs first alternates from pair to pair, so a drift of the machine's
speed does not favour one side. Each side's metrics are summarised by their
median and quartiles; each metric also records in how many pairs the change
did better (ties count for neither side). The median wall seconds per repeat
of each run is recorded as "wall_s" beside the floor-clock solve_s, and
each side's BLAS build as "blas": the name, version and OpenBLAS
configuration that numpy reports.

Entries are keyed "<workload>/seed<seed>"; when --out exists, its other
entries are kept, so a second seed or workload can be added by a second call.
Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ENV_PREFIX = "# env "
WALL_PREFIX = "# wall seconds per repeat: "
BLAS_KEYS = ("name", "version", "openblas configuration")
BLAS_PROBE = (
    "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    f"print(json.dumps({{key: blas.get(key) for key in {BLAS_KEYS!r}}}))"
)


def blas_build(root: Path) -> dict:
    """The BLAS build that numpy reports in the interpreter that runs the
    checkout at root: its name, version and OpenBLAS configuration. Read in
    a subprocess, so that this tool imports no numpy."""
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"numpy.show_config in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def run_once(root: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One untraced kfbench run of the checkout at root: its env record,
    end-to-end metric values and median wall seconds per repeat."""
    cmd = [sys.executable, "kfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines if line.startswith(ENV_PREFIX))
    walls = next(json.loads(line[len(WALL_PREFIX):]) for line in lines if line.startswith(WALL_PREFIX))
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["wall_s"] = statistics.median(walls)
    return {"env": env, "values": values, "correct": result["correct"]}


def spread(values: list) -> dict:
    """Median, quartiles and interquartile range of one side's values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def summarise(runs: dict, better: dict) -> dict:
    """Per metric: each side's spread, the pairs the change won and the
    relative change of the medians. runs maps "parent"/"change" to the
    per-pair value dicts, in pair order; better maps a metric name to
    "lower" or "higher"."""
    out = {}
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        direction = better.get(name, "lower")
        sign = -1.0 if direction == "lower" else 1.0
        p_side, c_side = spread(parent), spread(change)
        base = p_side["median"]
        out[name] = {
            "better": direction,
            "parent": p_side,
            "change": c_side,
            "change_wins": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
            "pairs": len(parent),
            "median_change_pct": 100.0 * (c_side["median"] - base) / base if base else None,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=33.0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<pr>.json to write")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["wall_s"] = "lower"
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    entries = doc.setdefault("entries", {})
    blas = {side: blas_build(root) for side, root in roots.items()}

    for workload in args.workload:
        runs = {"parent": [], "change": []}
        env, order, failed = {}, [], {"parent": 0, "change": 0}
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(sides[0])
            for side in sides:
                rec = run_once(roots[side], workload, args.seed, args.seconds, args.size)
                env.setdefault(side, rec["env"])
                runs[side].append(rec["values"])
                failed[side] += not rec["correct"]
                print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs} {side}: "
                      f"solve_s {rec['values']['solve_s']:.4f} wall_s {rec['values']['wall_s']:.4f}",
                      file=sys.stderr)
        entries[f"{workload}/seed{args.seed}"] = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds, "size": args.size,
            "first_side_per_pair": order, "runs_not_correct": failed, "env": env, "blas": blas,
            "metrics": summarise(runs, better),
        }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""kinfluid benchmark.

    python3 kfbench/run.py --workload {sweep,picard,cli_audit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; kinfluid is imported from its src/ tree.
Repeats the workload's operation until the next repeat would overrun
--seconds (at least once), checks every output and prints, as the last line,
one JSON object with the metrics that BENCHMARK.json names: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Earlier lines
starting with '#' record the environment, the per-operation times, any
failures and, for a traced run, the self time of every span.

An untraced run reports solve_s as the operation's floor time (floor.py);
its wall times go to the '#' lines. A traced run alternates unmarked and
traced repeats, so it reports its own overhead (traced minus untraced
median wall time).
"""
import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 20
SETUP_IMPORT_MARK = "# kfbench set-up imports"  # written by setup_probe.py
PROBE_TIMEOUT_S = 60


def cap_threads(nproc: int) -> dict:
    """Cap every BLAS/OpenMP thread setting at nproc (unset means nproc).
    Must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            val = int(os.environ.get(var, nproc))
        except ValueError:
            val = nproc
        os.environ[var] = str(max(1, min(val, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_self_seconds(stderr: str) -> dict:
    """Self seconds of each module a `python3 -X importtime` probe imported
    between its two SETUP_IMPORT_MARK lines."""
    between = stderr.split(SETUP_IMPORT_MARK + "\n")[1]
    seconds = {}
    for line in between.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            seconds[fields[2].strip()] = int(fields[0]) * 1e-6
    return seconds


def setup_probe(args, workdir: Path) -> tuple:
    """Set up the workload once in a fresh interpreter: (its JSON result,
    the self seconds of each module it imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "setup_probe.py"), args.workload,
         str(args.seed), args.size, str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    imports = import_self_seconds(proc.stderr)
    if not imports:
        raise RuntimeError("set-up probe reported no import times")
    return json.loads(proc.stdout.splitlines()[-1]), imports


def setup_seconds(probes) -> tuple:
    """Wall and floor set-up seconds of each probe.

    Set-up is almost all imports, so it drifts with the machine like
    solve_s does (floor.py). A probe's floor time is the sum, over the
    modules it imports, of each module's fastest import over all probes,
    plus the fastest time after the imports over all probes."""
    fastest = {}
    for _, imports in probes:
        for module, sec in imports.items():
            fastest[module] = min(sec, fastest.get(module, sec))
    after_imports = min(result["after_imports_s"] for result, _ in probes)
    walls = [result["wall_s"] for result, _ in probes]
    floors = [after_imports + sum(fastest[m] for m in imports) for _, imports in probes]
    return walls, floors


def run_once(wl):
    """Run one repeat; return (seconds, outcome or the exception it raised)."""
    t0 = time.perf_counter()
    try:
        outcome = wl.run()
    except Exception as exc:  # a raising operation is counted as failed
        outcome = exc
    return time.perf_counter() - t0, outcome


def check_once(wl, outcome) -> list:
    """One list of failure messages per operation of the repeat."""
    if isinstance(outcome, Exception):
        return [[f"raised {type(outcome).__name__}: {outcome}"]] * wl.ops_per_iteration
    try:
        return wl.check(outcome)
    except Exception as exc:  # a check that cannot run fails the repeat
        return [[f"check raised {type(exc).__name__}: {exc}"]] * wl.ops_per_iteration


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every grid (smoke test only)")
    args = ap.parse_args(argv)

    if not (SRC / "kinfluid" / "__init__.py").is_file():
        print(f"error: kinfluid sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)

    sys.path.insert(0, str(SRC))
    import numpy
    import kinfluid
    if not Path(kinfluid.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: kinfluid imported from {kinfluid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from floor import FloorClock
    from spans import Tracer

    from importlib.metadata import PackageNotFoundError, version
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    env = {
        "backend": getattr(kinfluid, "BACKEND", None),
        "numpy": numpy.__version__, "scipy": scipy_version,
        "python": sys.version.split()[0], "nproc": nproc, "git_sha": git_sha(),
        "threads": threads, "workload": args.workload, "seed": args.seed,
        "amplitude_scale": workloads.amplitude_scale(args.seed), "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
    }
    print("# env " + json.dumps(env, sort_keys=True))

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        # The set-up probes are spread over the run: a quarter before the
        # measured repeats, then between repeats in step with the measured
        # time, the rest after. A few seconds without fast periods then
        # cannot hold them all. Probe time is not measured time.
        n_probes = 0 if args.trace else SETUP_PROBES
        probes = []

        def probe_until(count) -> float:
            """Probe until there are count probes; return the seconds taken."""
            t0 = time.perf_counter()
            while len(probes) < min(count, n_probes):
                probes.append(setup_probe(args, workdir / f"probe{len(probes)}"))
            return time.perf_counter() - t0

        probe_until(n_probes // 4)
        wl = workloads.WORKLOADS[args.workload](workdir / "main", args.seed, args.size)
        wl.warm_up()

        tracer = Tracer() if args.trace else None
        clock = None if args.trace else FloorClock()
        times, traced_times, errors = [], [], []
        sides = [(None, times)] if tracer is None else [(None, times), (tracer, traced_times)]
        start = time.perf_counter()
        probe_s, repeats = 0.0, 0
        while True:
            for side_tracer, side_times in sides:
                if side_tracer:
                    context = side_tracer.installed()
                else:
                    context = clock.measuring() if clock else contextlib.nullcontext()
                with context:
                    dt, outcome = run_once(wl)
                side_times.append(dt)
                errors += check_once(wl, outcome)
            # alternate which side runs first, so drift does not bias the overhead
            sides.reverse()
            repeats += 1
            elapsed = time.perf_counter() - start - probe_s
            if elapsed + elapsed / repeats > args.seconds:
                break
            probe_s += probe_until(math.ceil(n_probes * elapsed / args.seconds))
        probe_until(n_probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(errors)
    failed = sum(1 for e in errors if e)
    wall_s = statistics.median(times)
    print(f"# wall seconds per repeat: {times!r}")
    for msgs in [e for e in errors if e][:20]:
        print("# failed: " + "; ".join(msgs))

    if tracer is None:
        setup_walls, setup_floors = setup_seconds(probes)
        floor_times = clock.floor_seconds()
        print(f"# floor seconds per repeat: {floor_times!r}")
        print(f"# interval kinds per repeat: {len(clock.op_kinds[-1])}; unmarked names: {clock.missing_names!r}")
        print(f"# set-up wall seconds per fresh interpreter: {setup_walls!r}")
        print(f"# set-up floor seconds per fresh interpreter: {setup_floors!r}")
        values = {
            "solve_s": statistics.median(floor_times),
            "setup_s": statistics.median(setup_floors),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        listed = spec["end_to_end"]
    else:
        traced_solve_s = statistics.median(traced_times)
        print(f"# traced solve_s per repeat: {traced_times!r}")
        print(f"# absent layers: {tracer.absent_layers!r}; missing lookup names: {tracer.missing_names!r}")
        print("# span self time (all traced repeats): name, parent, calls, self_s")
        for (name, parent), (calls, self_s) in sorted(tracer.pairs().items(), key=lambda kv: -kv[1][1]):
            print(f"#   {name:<26} {parent or '-':<22} {calls:>8d} {self_s:12.6f}")
        values = tracer.layer_metrics(len(traced_times))
        values.update({
            "trace.solve_s": traced_solve_s,
            "trace.untraced_solve_s": wall_s,
            "trace.overhead_s": traced_solve_s - wall_s,
            "trace.overhead_pct": 100.0 * (traced_solve_s - wall_s) / wall_s,
            "trace.absent_layers": float(len(tracer.absent_layers)),
            "error_rate": failed / attempted,
        })
        listed = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

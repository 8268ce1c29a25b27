"""Command-line entry points.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 entropy-audit failure.
"""
import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .core import ConfigError, SolverError
from .harness import (
    ExperimentConfig,
    emit_csv,
    reaudit_run,
    run_convergence,
    run_coupled,
    run_limit,
    save_run_series,
    save_state,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_AUDIT = 3


def _exit_codes(main):
    """A ConfigError raised in main, or an output file that cannot be
    written, exits 1 and a SolverError exits 2, each with one line on stderr."""

    @functools.wraps(main)
    def wrapped(argv=None) -> int:
        try:
            return main(argv)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:  # every read of an input is a ConfigError already
            print(f"config error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER

    return wrapped


class _Parser(argparse.ArgumentParser):
    """Usage errors are config errors (exit 1): argparse's own exit code 2
    means a solver failure here."""

    def error(self, message):
        raise ConfigError(message)


def _output_dir(path) -> Path:
    """Make the output directory before the run; a path that cannot hold one
    is a ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory: {exc}") from exc
    return out


def _book(book: dict) -> str:
    """A run's books or audit summary as key=value pairs for its summary line."""
    return " ".join(f"{key}={value:.6g}" for key, value in book.items())


@_exit_codes
def main_simulate_kinetic(argv=None) -> int:
    ap = _Parser(prog="simulate-kinetic", description="Run the coupled kinetic/gas system at one eps.")
    ap.add_argument("--config", required=True)
    ap.add_argument("--eps", type=float, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    cfg = ExperimentConfig.from_json(args.config, output_dir=args.out)
    eps = args.eps if args.eps is not None else cfg.eps_list[0]
    if not (math.isfinite(eps) and eps > 0):  # as an eps_list entry is checked
        raise ConfigError(f"--eps must be finite and positive, got {eps!r}")
    out = _output_dir(cfg.output_dir)
    run = run_coupled(cfg, eps, out)
    save_run_series(run, out, cfg)
    print(
        f"eps={eps:g} steps_dt={run.dt:g} wall={run.wall_seconds:.2f}s "
        f"{_book(run.audit.summary)} {_book(run.book)} {_book(run.cost)} -> {out}"
    )
    if not run.audit.passes(cfg.audit_tolerance):
        print("entropy audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


@_exit_codes
def main_simulate_limit(argv=None) -> int:
    ap = _Parser(prog="simulate-limit", description="Run the relaxed two-phase system.")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    cfg = ExperimentConfig.from_json(args.config, output_dir=args.out)
    out = _output_dir(cfg.output_dir)
    run = run_limit(cfg, out)
    save_state(
        out / "limit_series",
        {**{name: run.samples[name] for name in run.samples.dtype.names}, **run.stacks},
        meta={"config": asdict(cfg), "dt": run.dt, **run.book, **run.cost},
        streamed=run.files,
    )
    print(f"dt={run.dt:g} {_book(run.book)} {_book(run.cost)} -> {out}")
    return EXIT_OK


@_exit_codes
def main_converge(argv=None) -> int:
    ap = _Parser(prog="converge", description="Eps sweep with rate fit against the limit trajectory.")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    cfg = ExperimentConfig.from_json(args.config, output_dir=args.out)
    out = _output_dir(cfg.output_dir)
    result = run_convergence(cfg)
    csv_path = emit_csv(result.rows, out / "convergence.csv")
    meta = {
        "config": asdict(cfg),
        "slope": result.slope,
        "prefactor": result.prefactor,
        "local_slopes": result.local_slopes,
        "monotone": result.monotone,
        "degenerate": result.degenerate,
        "workers": result.workers,
        "wall_seconds": result.wall_seconds,
        "runs": [run.record for run in result.runs],
        "limit": result.limit.cost,
    }
    (out / "convergence_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    if result.degenerate:
        head = f"sup_H degenerate ({result.degeneracy}); no slope fitted"
    else:
        local = ",".join(f"{k:.4f}" for k in result.local_slopes)
        head = f"fitted slope={result.slope:.4f} local slopes={local} monotone={result.monotone}"
    worst = min(run.audit.slack_entropy_budget for run in result.runs)
    print(f"{head} worst_slack={worst:.6g} workers={result.workers} -> {csv_path}")
    # each run is judged as simulate-kinetic judges it; a failed audit is the
    # one stderr line, in place of the monotonicity warning
    failed = [run.eps for run in result.runs if not run.audit.passes(cfg.audit_tolerance)]
    if failed:
        print(f"entropy audit failed at eps={','.join(f'{eps:g}' for eps in failed)}", file=sys.stderr)
        return EXIT_AUDIT
    if not (result.degenerate or result.monotone):
        print("warning: sup_H not monotone across eps", file=sys.stderr)
    return EXIT_OK


@_exit_codes
def main_check_entropy(argv=None) -> int:
    ap = _Parser(prog="check-entropy", description="Re-audit an emitted coupled run directory.")
    ap.add_argument("--run", required=True)
    args = ap.parse_args(argv)
    audit, tol = reaudit_run(args.run)
    print(_book(audit.summary))
    if not audit.passes(tol):
        print("entropy audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_simulate_kinetic())

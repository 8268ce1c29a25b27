"""Command-line entry points.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 entropy-audit failure.
"""
import argparse
import functools
import json
import math
import sys
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


def _load_config(path, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(path)
    for key, val in overrides.items():
        if val is not None:
            setattr(cfg, key, val)
    cfg.__post_init__()
    return cfg


def _exit_codes(main):
    """A ConfigError raised in main exits 1 and a SolverError exits 2, each
    with one line on stderr."""

    @functools.wraps(main)
    def wrapped(argv=None) -> int:
        try:
            return main(argv)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except SolverError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER

    return wrapped


@_exit_codes
def main_simulate_kinetic(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="simulate-kinetic", description="Run the coupled kinetic/gas system at one eps.")
    ap.add_argument("--config", required=True)
    ap.add_argument("--eps", type=float, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    cfg = _load_config(args.config, output_dir=args.out)
    eps = args.eps if args.eps is not None else cfg.eps_list[0]
    if not (math.isfinite(eps) and eps > 0):  # as an eps_list entry is checked
        raise ConfigError(f"--eps must be finite and positive, got {eps!r}")
    run = run_coupled(cfg, eps)
    out = save_run_series(run, Path(cfg.output_dir), cfg)
    print(
        f"eps={eps:g} steps_dt={run.dt:g} wall={run.wall_seconds:.2f}s "
        f"entropy_budget_slack={run.audit.slack_entropy_budget:.6g} "
        f"max_wall_flux={run.max_wall_flux:.3e} -> {out}"
    )
    if not run.audit.passes(cfg.audit_tolerance):
        print("entropy audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


@_exit_codes
def main_simulate_limit(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="simulate-limit", description="Run the relaxed two-phase system.")
    ap.add_argument("--config", required=True)
    ap.add_argument("--mode", choices=("direct", "picard"), default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    mode = None if args.mode is None else ("limit_direct" if args.mode == "direct" else "limit_picard")
    cfg = _load_config(args.config, output_dir=args.out, solver_mode=mode)
    if cfg.solver_mode == "coupled":
        cfg.solver_mode = "limit_direct"
    run = run_limit(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_state(
        out / "limit_series",
        {"times": run.times, "rho": run.rho, "u": run.u, "n": run.n, "v": run.v, "mass_rho": run.mass_rho},
        meta={"config": cfg.echo(), "dt": run.dt, "min_one_plus_h": run.min_one_plus_h},
    )
    msg = f"mode={cfg.solver_mode} dt={run.dt:g} min(1+h)={run.min_one_plus_h:g}"
    if run.picard_reports:
        tail = run.picard_reports[-1]
        msg += f" iterations={tail.m} cauchy_l2={tail.cauchy_l2:.3e}"
    print(msg + f" -> {out}")
    return EXIT_OK


@_exit_codes
def main_converge(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="converge", description="Eps sweep with rate fit against the limit trajectory.")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    cfg = _load_config(args.config, output_dir=args.out)
    result = run_convergence(cfg)
    out = Path(cfg.output_dir)
    csv_path = emit_csv(result.rows, out / "convergence.csv")
    meta = {
        "config": cfg.echo(),
        "slope": None if result.degenerate else result.slope,
        "prefactor": None if result.degenerate else result.prefactor,
        "monotone": result.monotone,
        "degenerate": result.degenerate,
        "wall_seconds": result.wall_seconds,
        "audit_slacks": [r.audit.slack_entropy_budget for r in result.runs],
    }
    (out / "convergence_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    if result.degenerate:
        print(f"sup_H degenerate (zero gap); no slope fitted -> {csv_path}")
    else:
        print(f"fitted slope={result.slope:.4f} monotone={result.monotone} -> {csv_path}")
        if not result.monotone:
            print("warning: sup_H not monotone across eps", file=sys.stderr)
    return EXIT_OK


@_exit_codes
def main_check_entropy(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="check-entropy", description="Re-audit an emitted coupled run directory.")
    ap.add_argument("--run", required=True)
    args = ap.parse_args(argv)
    audit, meta = reaudit_run(args.run)
    tol = meta.get("config", {}).get("audit_tolerance", 0.05)
    print(
        f"entropy_budget_slack={audit.slack_entropy_budget:.6g} at t={audit.slack_at:g} "
        f"inferred_modified_constant={audit.inferred_modified_constant:.6g}"
    )
    if not audit.passes(tol):
        print("entropy audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_simulate_kinetic())

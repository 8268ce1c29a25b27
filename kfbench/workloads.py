"""The three benchmark workloads: inputs generated from a seed, one timed
operation each, and the checks that decide whether an operation succeeded.

Why these workloads:
- sweep: the paper's headline result (the acceptance eps sweep). The batched
  velocity-relaxation solve dominates; diagnostics are a few percent.
- picard: the criterion-9 fixed-point solve plus the direct two-phase march
  it is checked against. No kinetic phase and no diagnostics, so it is the
  workload on which a kinetic-layer change must predict no change; the
  one-row viscous solve dominates.
- cli_audit: simulate-kinetic then check-entropy through the CLI entry
  points, on a wide grid (short relaxation systems, a long viscous row) with
  a sample on every step, so diagnostics and file emission/loading get their
  largest share.

Seeds: seed 0 reproduces the acceptance data bit for bit. Seed s scales the
wave amplitudes by 1 - 0.025 * (s mod 8), a band of [0.825, 1.0]. The step
counts do not depend on the amplitude inside this band, so every seed does
the same amount of work. The program receives the amplitudes only as
generated input: a custom_state file (sweep, cli_audit) or the initial
TwoPhaseState (picard).
"""
import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from kinfluid import cli, harness, limit
from kinfluid.core import FluidState, PhaseGrid, TwoPhaseState, l2_distance

AMPLITUDE_LEVELS = 8
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# relative tolerance of every sweep CSV value against the recorded reference
REFERENCE_RTOL = 1e-6


def amplitude_level(seed: int) -> int:
    return seed % AMPLITUDE_LEVELS


def amplitude_scale(seed: int) -> float:
    return 1.0 - 0.025 * amplitude_level(seed)


def write_state(prefix: Path, arrays: dict) -> Path:
    """Write arrays in the program's custom_state format (flat little-endian
    float64 files plus a JSON shape descriptor) without calling the program."""
    prefix.parent.mkdir(parents=True, exist_ok=True)
    desc = {"arrays": {}, "meta": {}}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        path = prefix.with_name(f"{prefix.name}__{name}.bin")
        path.write_bytes(arr.tobytes())
        desc["arrays"][name] = {"file": path.name, "shape": list(arr.shape), "dtype": "<f8"}
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(desc, indent=2, sort_keys=True))
    return json_path


def wave_state(grid: PhaseGrid, scale: float) -> dict:
    """The local-Maxwellian wave profile with both amplitudes scaled; at
    scale 1 the arithmetic is that of the built-in profile, bit for bit."""
    xhat = (grid.x - grid.x_lo) / grid.length
    amp_rho = 0.1 * scale
    amp_u = 0.05 * scale
    return {
        "rho0": 1.0 + amp_rho * np.sin(2.0 * math.pi * xhat),
        "u0": amp_u * np.sin(2.0 * math.pi * xhat) * np.sin(math.pi * xhat) ** 2,
        "n0": np.ones(grid.nx),
        "v0": np.zeros(grid.nx),
    }


def _tiny_coupled_warm_up(workdir: Path, boundary: str):
    cfg = harness.ExperimentConfig(
        nx=8, nv=16, t_final=0.01, eps_list=[0.5], n_samples=1,
        boundary=boundary, output_dir=str(workdir / "warm"),
    )
    harness.run_coupled(cfg, 0.5)


class Sweep:
    """The acceptance eps sweep: run_convergence plus its CSV emission."""

    name = "sweep"
    ops_per_iteration = 1
    SIZES = {
        "full": dict(nx=128, nv=128, t_final=0.5, n_samples=32),
        "tiny": dict(nx=32, nv=32, t_final=0.1, n_samples=4),
    }

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.check_against_reference = size == "full"
        self.level = amplitude_level(seed)
        dims = self.SIZES[size]
        grid = PhaseGrid(nx=dims["nx"], nv=dims["nv"])
        state = write_state(workdir / "input" / "wave", wave_state(grid, amplitude_scale(seed)))
        self.config = harness.ExperimentConfig(
            **dims, cfl=0.4, eps_list=[0.4, 0.2, 0.1, 0.05],
            initial_profile="custom", custom_state=str(state),
            boundary="specular", output_dir=str(workdir / "out"),
        )
        # the program's own wall-compatibility check of the seeded amplitudes
        harness.make_well_prepared(self.config)
        self.first_csv = None

    def warm_up(self):
        _tiny_coupled_warm_up(self.workdir, "specular")

    def run(self):
        result = harness.run_convergence(self.config)
        csv_path = harness.emit_csv(result.rows, self.workdir / "out" / "convergence.csv")
        return result, csv_path.read_bytes()

    def check(self, outcome) -> list:
        """One list of failure messages per operation."""
        result, csv = outcome
        errors = []
        if result.degenerate or not result.slope >= 0.4:
            errors.append(f"slope {result.slope} < 0.4")
        if not result.monotone:
            errors.append("sup_H not monotone")
        gaps = [r.f_to_M_l1 for r in result.rows]
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        if not all(r <= 0.9 for r in ratios):
            errors.append(f"f_to_M_l1 ratios {ratios}")
        ck_min = min(r.ck_margin_min for r in result.runs)
        if not ck_min >= -1e-12:
            errors.append(f"CK margin {ck_min}")
        for run in result.runs:
            allowance = 0.05 * abs(run.reports[0].F)
            if not run.audit.slack_entropy_budget >= -allowance:
                errors.append(f"eps={run.eps}: audit slack {run.audit.slack_entropy_budget}")
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            errors.append("CSV differs from the first repeat")
        if self.check_against_reference:
            errors += self.check_reference(csv)
        return [errors]

    def check_reference(self, csv: bytes) -> list:
        reference = json.loads(REFERENCE_PATH.read_text())["sweep"][str(self.level)]
        got = [line.split(",") for line in csv.decode("ascii").split()]
        want = [line.split(",") for line in reference.split()]
        if got[0] != want[0] or len(got) != len(want):
            return ["CSV layout differs from the reference"]
        errors = []
        for row_got, row_want in zip(got[1:], want[1:]):
            for col, a, b in zip(got[0], row_got, row_want):
                if not abs(float(a) - float(b)) <= REFERENCE_RTOL * abs(float(b)):
                    errors.append(f"eps={row_want[0]} {col}: {a} vs reference {b}")
        return errors


class Picard:
    """Criterion 9: the fixed-point solve and the direct two-phase march."""

    name = "picard"
    ops_per_iteration = 1
    SIZES = {"full": dict(nx=128, t_final=0.25, iters=9), "tiny": dict(nx=32, t_final=0.05, iters=4)}

    def __init__(self, workdir: Path, seed: int, size: str):
        dims = self.SIZES[size]
        self.iters = dims["iters"]
        self.grid = grid = PhaseGrid(nx=dims["nx"], nv=2)
        x = grid.x
        amp = 0.04 * amplitude_scale(seed)
        self.state0 = TwoPhaseState(
            rho=1.0 + amp * np.sin(2 * np.pi * x),
            u=amp * np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2,
            fluid=FluidState(n=1.0 + 0.5 * amp * np.cos(2 * np.pi * x), v=np.zeros(grid.nx), gamma=2.0),
        )
        t_final = dims["t_final"]
        nt = int(math.ceil(t_final / (0.4 * grid.dx / 1.8)))
        self.setup = limit.PicardSetup(grid=grid, t_final=t_final, nt=nt, gamma=2.0)

    def warm_up(self):
        grid = PhaseGrid(nx=8, nv=2)
        st = TwoPhaseState(rho=np.ones(8), u=np.zeros(8), fluid=FluidState(n=np.ones(8), v=np.zeros(8)))
        setup = limit.PicardSetup(grid=grid, t_final=0.01, nt=2)
        limit.picard_solve(limit.to_symhyp(st, grid), setup, max_iter=2)
        limit.two_phase_step(st, setup.dt, grid)

    def run(self):
        traj, reports = limit.picard_solve(
            limit.to_symhyp(self.state0, self.grid), self.setup, max_iter=self.iters
        )
        st = self.state0
        for _ in range(self.setup.nt):
            st = limit.two_phase_step(st, self.setup.dt, self.grid)
        return traj, reports, st

    def check(self, outcome) -> list:
        traj, reports, st = outcome
        grid, setup = self.grid, self.setup
        errors = []
        ratios = {r.m: r.contraction_ratio for r in reports if 2 <= r.m <= self.iters}
        if len(ratios) != self.iters - 1 or not all(r <= 0.9 for r in ratios.values()):
            errors.append(f"contraction ratios {ratios}")
        final = limit.from_symhyp(
            limit.SymHypState(g=traj.g[-1], u=traj.u[-1], h=traj.h[-1], v=traj.v[-1], t=setup.t_final),
            grid, gamma=2.0,
        )
        gap = (
            l2_distance(final.rho, st.rho, grid)
            + l2_distance(final.u, st.u, grid)
            + l2_distance(final.fluid.n, st.fluid.n, grid)
            + l2_distance(final.fluid.v, st.fluid.v, grid)
        )
        budget = 10.0 * (setup.dt + grid.dx)
        if not gap <= budget:
            errors.append(f"cross-solver gap {gap} > {budget}")
        return [errors]


class CliAudit:
    """simulate-kinetic then check-entropy, called in-process."""

    name = "cli_audit"
    ops_per_iteration = 2
    # t_final 0.5 at this CFL gives exactly one step per sample
    SIZES = {
        "full": dict(nx=256, nv=64, t_final=0.5, n_samples=1280),
        "tiny": dict(nx=32, nv=16, t_final=0.05, n_samples=16),
    }
    EPS = 0.05

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        dims = self.SIZES[size]
        grid = PhaseGrid(nx=dims["nx"], nv=dims["nv"])
        state = write_state(workdir / "input" / "wave", wave_state(grid, amplitude_scale(seed)))
        self.out = workdir / "run"
        raw = dict(
            **dims, eps_list=[self.EPS], cfl=0.4, initial_profile="custom",
            custom_state=str(state), boundary="diffuse", output_dir=str(self.out),
        )
        self.config_path = workdir / "input" / "config.json"
        self.config_path.write_text(json.dumps(raw, indent=2))
        # the program's own wall-compatibility check of the seeded amplitudes
        harness.make_well_prepared(harness.ExperimentConfig.from_json(self.config_path))

    def warm_up(self):
        _tiny_coupled_warm_up(self.workdir, "diffuse")

    def run(self):
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            sim = cli.main_simulate_kinetic(
                ["--config", str(self.config_path), "--eps", str(self.EPS), "--out", str(self.out)]
            )
            audit = cli.main_check_entropy(["--run", str(self.out)]) if sim == 0 else None
        return sim, audit, log.getvalue()

    def check(self, outcome) -> list:
        sim, audit, log = outcome
        sim_errors = [] if sim == 0 else [f"simulate-kinetic exit code {sim}: {log}"]
        if audit is None:
            return [sim_errors, ["check-entropy not run"]]
        audit_errors = [] if audit == 0 else [f"check-entropy exit code {audit}: {log}"]
        # The worst slack is often the 0 at t = 0, so the whole audit summary
        # is compared; the modified-budget constant reads every sample.
        run_audit = json.loads((self.out / "run_meta.json").read_text())["audit"]
        reaudit, _ = harness.reaudit_run(self.out)
        for key, value in run_audit.items():
            if getattr(reaudit, key) != value:
                audit_errors.append(f"re-audited {key} {getattr(reaudit, key)} != run's {value}")
        return [sim_errors, audit_errors]


WORKLOADS = {w.name: w for w in (Sweep, Picard, CliAudit)}

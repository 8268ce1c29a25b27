"""Experiment orchestration: configs, well-prepared initial data, coupled and
limit runs, the eps-sweep with its rate fit, and file emission.

Runs are deterministic: dt is fixed up front (an exact divisor of t_final
aligned with the sampling cadence), there is no randomness, and aggregation
follows eps_list order, so identical configs produce bit-identical CSVs.
"""
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    FluidState,
    KineticState,
    PhaseGrid,
    SolverError,
    TwoPhaseState,
    l1_distance,
    quad_v,
    quad_x,
)
from .entropy import (
    AuditRecord,
    EntropyReport,
    csiszar_kullback_margin,
    entropy_inequality_audit,
    evaluate_entropy_report,
    relative_entropy,
)
from .fluid import momentum_exchange, ns_step, sound_speed
from .kinetic import kinetic_step, wall_kernels
from .limit import PicardError, PicardSetup, SymHypState, _two_phase_substeps, from_symhyp, picard_solve, to_symhyp
from .moments import compute_moments, maxwellian, maxwellian_profile


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# accepted values for each field annotation of ExperimentConfig
_TYPE_CHECKS = {
    int: _is_int,
    float: _is_real,
    str: lambda x: isinstance(x, str),
    str | None: lambda x: x is None or isinstance(x, str),
    list[float]: lambda x: isinstance(x, (list, tuple)) and all(map(_is_real, x)),
}

_PROFILES = ("local_maxwellian_wave", "equilibrium", "custom")

# Largest number of time levels one run computes: its step count, and so
# n_samples, or for a fixed-point run picard_iters times its step count. Far
# above the runs the acceptance suite and the benchmark make (at most 1280
# steps); a 128 x 128 coupled run of this many steps takes several minutes. A
# t_final, CFL bound or iterate count that would need more is a config error,
# not a run that never ends.
MAX_STEPS = 100_000


@dataclass
class ExperimentConfig:
    nx: int = 64
    nv: int = 64
    x_lo: float = 0.0
    x_hi: float = 1.0
    v_max: float = 8.0
    eps_list: list[float] = field(default_factory=lambda: [0.4, 0.2, 0.1, 0.05])
    t_final: float = 0.5
    cfl: float = 0.4
    gamma: float = 2.0
    initial_profile: str = "local_maxwellian_wave"
    custom_state: str | None = None
    boundary: str = "specular"
    wall_temperature: float = 1.0
    output_dir: str = "out"
    n_samples: int = 32
    picard_iters: int = 10
    audit_tolerance: float = 0.05

    def __post_init__(self):
        self._check_fields()
        if not self.eps_list or any(e <= 0 for e in self.eps_list):
            raise ConfigError("eps_list must hold positive values")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("eps_list must be sorted in descending order")
        if not self.t_final > 0:
            raise ConfigError("t_final must be positive")
        if not 0 < self.cfl <= 1:
            raise ConfigError("cfl must lie in (0, 1]")
        if self.initial_profile not in _PROFILES:
            raise ConfigError(f"initial_profile must be one of {_PROFILES}")
        if self.initial_profile == "custom" and not self.custom_state:
            raise ConfigError("custom profile needs custom_state")
        if not 1 <= self.n_samples <= MAX_STEPS:
            raise ConfigError(f"n_samples must lie in [1, MAX_STEPS = {MAX_STEPS}]")
        if self.nx < 2:
            raise ConfigError("nx must be at least 2 (wall values extrapolate from two cells)")
        if not self.gamma > 1:
            raise ConfigError("gamma must exceed 1")
        if self.picard_iters < 1:
            raise ConfigError("picard_iters must be at least 1")
        if not self.audit_tolerance >= 0:
            raise ConfigError("audit_tolerance must be nonnegative (the slack at t = 0 is 0)")
        try:
            wall_kernels(self.boundary, self.grid(), self.wall_temperature)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _check_fields(self):
        """Every field matches its annotation and every float is finite."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not _TYPE_CHECKS[f.type](value):
                kind = f.type.__name__ if isinstance(f.type, type) else f.type
                raise ConfigError(f"{f.name} must be of type {kind}, got {value!r}")
            if f.type in (float, list[float]):
                floats = value if f.type == list[float] else [value]
                if not all(map(math.isfinite, floats)):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")

    @classmethod
    def from_json(cls, path, **overrides) -> "ExperimentConfig":
        """The config a JSON object describes, with each override that is not
        None in place of the object's value; validated once, as built."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update((key, val) for key, val in overrides.items() if val is not None)
        return cls(**raw)

    def grid(self) -> PhaseGrid:
        return PhaseGrid(nx=self.nx, nv=self.nv, x_lo=self.x_lo, x_hi=self.x_hi, v_max=self.v_max)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

_COMPAT_TOL = 1e-6


def _wave_profile(grid: PhaseGrid):
    xhat = (grid.x - grid.x_lo) / grid.length
    rho0 = 1.0 + 0.1 * np.sin(2.0 * math.pi * xhat)
    u0 = 0.05 * np.sin(2.0 * math.pi * xhat) * np.sin(math.pi * xhat) ** 2
    n0 = np.ones(grid.nx)
    v0 = np.zeros(grid.nx)
    return rho0, u0, n0, v0


def _macroscopic_profile(config: ExperimentConfig, grid: PhaseGrid):
    if config.initial_profile == "equilibrium":
        z = np.zeros(grid.nx)
        return np.ones(grid.nx), z, np.ones(grid.nx), z.copy()
    if config.initial_profile == "local_maxwellian_wave":
        return _wave_profile(grid)
    arrays, _ = load_state(config.custom_state)
    try:
        prof = (arrays["rho0"], arrays["u0"], arrays["n0"], arrays["v0"])
    except KeyError as exc:
        raise ConfigError(f"custom state misses array {exc}") from exc
    if any(a.shape != (grid.nx,) for a in prof):
        raise ConfigError("custom state arrays must have shape (nx,)")
    if not all(np.isfinite(a).all() for a in prof):
        raise ConfigError("custom state arrays must be finite")
    return prof


def _wall_value(field: np.ndarray) -> tuple[float, float]:
    """Linear extrapolation of a cell-centered field to the two wall faces."""
    return 1.5 * field[0] - 0.5 * field[1], 1.5 * field[-1] - 0.5 * field[-2]


def make_well_prepared(config: ExperimentConfig) -> tuple[KineticState, FluidState, TwoPhaseState]:
    """Build eps-independent initial data: the kinetic density is the local
    Maxwellian of the particle profile and the fluid data coincide with the
    limit fluid data, so both well-preparedness residuals vanish up to
    quadrature error. Order-0 wall compatibility (u.r = 0, v = 0) is checked,
    and so is a positive density in every cell of the discrete Maxwellian."""
    grid = config.grid()
    rho0, u0, n0, v0 = _macroscopic_profile(config, grid)
    scale = max(1.0, float(np.abs(u0).max()), float(np.abs(v0).max()))
    # smooth compatible data extrapolates to O(dx^2)-small wall values
    tol = max(_COMPAT_TOL, 4.0 * grid.dx**2) * scale
    for name, fld in (("u0", u0), ("v0", v0)):
        for val in _wall_value(fld):
            if abs(val) > tol:
                raise ConfigError(f"{name} violates wall compatibility: wall value {val:g}")
    if not (float(rho0.min()) > 0 and float(n0.min()) > 0):
        raise ConfigError("initial densities must be positive")

    kin = maxwellian(rho0, u0, grid)
    if not float(quad_v(kin.f, grid).min()) > 0:
        raise ConfigError("initial particle density vanishes in a cell of the discrete Maxwellian")
    fl = FluidState(n=n0, v=v0, gamma=config.gamma)
    limit0 = TwoPhaseState(rho=rho0, u=u0, fluid=fl)
    return kin, fl, limit0


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class CoupledRun:
    eps: float
    times: np.ndarray
    reports: list[EntropyReport]
    rho: np.ndarray  # (K, nx) sampled moment fields
    u: np.ndarray
    n: np.ndarray
    v: np.ndarray
    f_final: KineticState
    fluid_final: FluidState
    mass_kinetic: np.ndarray
    mass_fluid: np.ndarray
    max_wall_flux: float
    max_exchange_asym: float
    truncation_leak: float
    ck_margin_min: float
    audit: AuditRecord
    dt: float
    wall_seconds: float


def _cadence(config: ExperimentConfig, dt_target: float) -> tuple[float, int, int]:
    """Round dt_target down so that n_samples divides the step count and
    nt*dt = t_final exactly; returns (dt, nt, steps per sample). A run of
    more than MAX_STEPS steps is a ConfigError."""
    ratio = config.t_final / (config.n_samples * dt_target) if dt_target > 0 else math.inf
    # nt = ceil(ratio) * n_samples <= MAX_STEPS; also false for an overflowed or nan ratio
    if not ratio <= MAX_STEPS // config.n_samples:
        raise ConfigError(
            f"t_final = {config.t_final:g} at dt <= {dt_target:.3g} needs more than "
            f"MAX_STEPS = {MAX_STEPS} steps"
        )
    per = max(1, math.ceil(ratio))
    nt = per * config.n_samples
    return config.t_final / nt, nt, per


def _sample_arrays(config: ExperimentConfig, grid: PhaseGrid):
    """Sample buffers shared by coupled and limit runs: times (K,) and
    rho, u, n, v (K, nx), with K = n_samples + 1."""
    k = config.n_samples + 1
    return (np.empty(k), *(np.empty((k, grid.nx)) for _ in range(4)))


def _pick_dt(config: ExperimentConfig, grid: PhaseGrid, fl) -> tuple[float, int, int]:
    """Fixed dt of a coupled run: CFL-limited from the initial data, then
    rounded to the sampling cadence."""
    ximax = grid.v_max - 0.5 * grid.dv
    s_fluid = float((np.abs(fl.v) + sound_speed(fl.n, fl.gamma)).max())
    bound = min(
        2.0 * grid.dx / ximax,              # transport half-steps
        2.0 * grid.dv / (2.0 * grid.v_max), # drag half-steps, |v| <= v_max
        grid.dx / s_fluid,
    )
    return _cadence(config, config.cfl * bound)


def run_coupled(config: ExperimentConfig, eps: float) -> CoupledRun:
    """Time-march the coupled kinetic/gas system, sampling entropy reports at
    the configured cadence and auditing the run at the end."""
    t0 = time.perf_counter()
    grid = config.grid()
    if grid.nv < 4:
        raise ConfigError("coupled runs need nv >= 4 (the entropy diagnostics' velocity stencil)")
    walls = wall_kernels(config.boundary, grid, config.wall_temperature)
    kin, fl, _ = make_well_prepared(config)
    dt, nt, per = _pick_dt(config, grid, fl)

    times, rho, u, n, v = _sample_arrays(config, grid)
    mass_kin = np.empty(len(times))
    mass_flu = np.empty(len(times))
    reports: list[EntropyReport] = []
    max_wall = 0.0
    max_asym = 0.0
    leak = 0.0

    def sample(idx, kin, fl, mom):
        """Record time level idx; mom are the moments of kin."""
        times[idx] = kin.t
        rho[idx] = mom.rho
        u[idx] = mom.u
        n[idx] = fl.n
        v[idx] = fl.v
        mass_flu[idx] = quad_x(fl.n, grid)
        report, l1_gap = evaluate_entropy_report(kin, fl, mom, grid)
        reports.append(report)
        mass_kin[idx] = report.mass
        return csiszar_kullback_margin(report, l1_gap)

    # the moments of the current kin: sampled, then the next step's gas drag
    mom = compute_moments(kin, grid)
    ck_min = sample(0, kin, fl, mom)
    try:
        for step in range(nt):
            kin_new, krep = kinetic_step(kin, fl, dt, grid, eps, walls)
            fl_new = ns_step(fl, mom.rho, mom.u, dt, grid)
            dpk, dpf = momentum_exchange(mom.rho, mom.u, fl.v, dt, grid)
            kin, fl = kin_new, fl_new
            mom = compute_moments(kin, grid)
            max_asym = max(max_asym, abs(dpk + dpf))
            max_wall = max(max_wall, krep.max_wall_flux)
            leak += krep.truncation_leak
            if (step + 1) % per == 0:
                ck_min = min(ck_min, sample((step + 1) // per, kin, fl, mom))
    except SolverError as exc:
        raise dump_failure_state(config, exc, {"f": kin.f, "n": fl.n, "v": fl.v}, "step", step, kin.t) from exc

    audit = entropy_inequality_audit(times, reports, eps)
    return CoupledRun(
        eps=eps, times=times, reports=reports,
        rho=rho, u=u, n=n, v=v,
        f_final=kin, fluid_final=fl,
        mass_kinetic=mass_kin, mass_fluid=mass_flu,
        max_wall_flux=max_wall, max_exchange_asym=max_asym,
        truncation_leak=leak, ck_margin_min=float(ck_min),
        audit=audit, dt=dt, wall_seconds=time.perf_counter() - t0,
    )


@dataclass
class LimitRun:
    times: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    n: np.ndarray
    v: np.ndarray
    mass_rho: np.ndarray
    max_exchange_asym: float
    dt: float
    min_one_plus_h: float
    picard_reports: list | None = None


def _sampled_state(run: CoupledRun | LimitRun, idx: int, gamma: float) -> TwoPhaseState:
    """The two-phase state (rho, u, n, v) of sample idx of a coupled or limit run."""
    fluid = FluidState(n=run.n[idx], v=run.v[idx], gamma=gamma)
    return TwoPhaseState(rho=run.rho[idx], u=run.u[idx], fluid=fluid, t=run.times[idx])


def run_limit(config: ExperimentConfig, picard: bool = False) -> LimitRun:
    """March the relaxed two-phase system on the same sampling cadence as the
    coupled runs: directly, or by config.picard_iters fixed-point iterates
    when picard is set. A fixed-point run of more than MAX_STEPS time levels
    in all is a ConfigError."""
    grid = config.grid()
    _, _, st = make_well_prepared(config)

    dt, nt, per = _cadence(config, config.cfl * min(
        grid.dx / (float(np.abs(st.u).max()) + 1.0),
        grid.dx / float((np.abs(st.fluid.v) + sound_speed(st.fluid.n, config.gamma)).max()),
    ))
    if picard and config.picard_iters * nt > MAX_STEPS:
        raise ConfigError(
            f"picard_iters = {config.picard_iters} iterates of {nt} steps each exceed "
            f"MAX_STEPS = {MAX_STEPS} time levels"
        )
    picard_reports = None
    max_asym = 0.0
    if picard:
        setup = PicardSetup(grid=grid, t_final=config.t_final, nt=nt, gamma=config.gamma)
        try:
            traj, picard_reports = picard_solve(to_symhyp(st, grid), setup, max_iter=config.picard_iters)
        except PicardError as exc:
            last = asdict(exc.trajectory)
            raise dump_failure_state(config, exc, last, "iterate", exc.iterate, config.t_final) from exc
        rows = SymHypState(g=traj.g[::per], u=traj.u[::per], h=traj.h[::per], v=traj.v[::per])
        sampled = from_symhyp(rows, grid, config.gamma)
        times = np.arange(config.n_samples + 1) * per * dt
        rho, u, n, v = sampled.rho, sampled.u, sampled.fluid.n, sampled.fluid.v
    else:
        times, rho, u, n, v = _sample_arrays(config, grid)

        def sample(idx, st):
            times[idx] = st.t
            rho[idx] = st.rho
            u[idx] = st.u
            n[idx] = st.fluid.n
            v[idx] = st.fluid.v

        sample(0, st)
        try:
            for step in range(nt):
                st, dpp, dpf = _two_phase_substeps(st, dt, grid)
                max_asym = max(max_asym, abs(dpp + dpf))
                if (step + 1) % per == 0:
                    sample((step + 1) // per, st)
        except SolverError as exc:
            arrays = {"rho": st.rho, "u": st.u, "n": st.fluid.n, "v": st.fluid.v}
            raise dump_failure_state(config, exc, arrays, "step", step, st.t) from exc

    return LimitRun(
        times=times, rho=rho, u=u, n=n, v=v, mass_rho=np.array([quad_x(r, grid) for r in rho]),
        max_exchange_asym=max_asym, dt=dt,
        min_one_plus_h=float(n.min()),
        picard_reports=picard_reports,
    )


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    eps: float
    sup_H: float
    sup_L1_rho: float
    sup_L1_n: float
    f_to_M_l1: float


@dataclass
class ConvergenceResult:
    rows: list[ConvergenceRow]
    slope: float
    prefactor: float  # empirical: sup_H ~ prefactor * eps**slope (reported, never asserted)
    local_slopes: list[float]  # of each consecutive eps pair; sup_H is not one power law
    monotone: bool
    degenerate: bool
    runs: list[CoupledRun]
    limit: LimitRun
    wall_seconds: float


def run_convergence(config: ExperimentConfig) -> ConvergenceResult:
    """For each eps: coupled run vs the single limit trajectory, compared
    sample by sample (both runs share the sampling cadence); sup-in-time
    relative entropy and L1 gaps; log-log slope fit of sup_H against eps, and
    the slope between each consecutive pair of eps values."""
    if len(config.eps_list) < 3:
        raise ConfigError("eps sweep needs at least 3 values")
    t0 = time.perf_counter()
    grid = config.grid()
    limit = run_limit(config)
    samples = range(len(limit.times))
    gamma = config.gamma

    rows = []
    runs = []
    for eps in config.eps_list:
        run = run_coupled(config, eps)
        sup_h = max(
            relative_entropy(_sampled_state(run, k, gamma), _sampled_state(limit, k, gamma), grid) for k in samples
        )
        sup_rho = max(l1_distance(run.rho[k], limit.rho[k], grid) for k in samples)
        sup_n = max(l1_distance(run.n[k], limit.n[k], grid) for k in samples)
        m_end = maxwellian_profile(limit.rho[-1], limit.u[-1], grid)
        f_gap = l1_distance(run.f_final.f, m_end, grid)
        rows.append(ConvergenceRow(eps=eps, sup_H=sup_h, sup_L1_rho=sup_rho, sup_L1_n=sup_n, f_to_M_l1=f_gap))
        runs.append(run)

    sup_hs = np.array([r.sup_H for r in rows])
    # gaps at the double-precision quadrature floor carry no rate information
    degenerate = bool(np.any(sup_hs <= 1e-20))
    if degenerate:
        slope = prefactor = math.nan
        local_slopes = [math.nan] * (len(rows) - 1)
    else:
        log_eps, log_h = np.log(config.eps_list), np.log(sup_hs)
        coeffs = np.polyfit(log_eps, log_h, 1)
        slope = float(coeffs[0])
        prefactor = float(math.exp(coeffs[1]))
        local_slopes = (np.diff(log_h) / np.diff(log_eps)).tolist()
    monotone = bool(np.all(np.diff(sup_hs) < 0))  # eps_list descends, so sup_H must too
    return ConvergenceResult(
        rows=rows, slope=slope, prefactor=prefactor, local_slopes=local_slopes, monotone=monotone,
        degenerate=degenerate, runs=runs, limit=limit,
        wall_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

_REPORT_FIELDS = tuple(f.name for f in fields(EntropyReport))  # one series per field

CSV_COLUMNS = ("eps", "sup_H", "sup_L1_rho", "sup_L1_n", "f_to_M_l1")


def emit_csv(rows: list[ConvergenceRow], path) -> Path:
    """Fixed-column CSV, 17 significant digits, C-locale decimal points."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(f"{getattr(r, c):.17g}" for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def save_state(prefix, arrays: dict[str, np.ndarray], meta: dict | None = None) -> Path:
    """Flat little-endian float64 binaries plus a JSON shape descriptor."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    desc = {"arrays": {}, "meta": meta or {}}
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr), dtype="<f8")
        bin_path = prefix.with_name(prefix.name + f"__{name}.bin")
        bin_path.write_bytes(arr.tobytes())
        desc["arrays"][name] = {"file": bin_path.name, "shape": list(arr.shape), "dtype": "<f8"}
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(desc, indent=2, sort_keys=True))
    return json_path


def load_state(descriptor_path) -> tuple[dict[str, np.ndarray], dict]:
    """Read the arrays a save_state descriptor names. An unreadable or
    malformed descriptor, an array file outside the descriptor's directory,
    or a file whose size does not match its shape is a ConfigError."""
    descriptor_path = Path(descriptor_path)
    try:
        desc = json.loads(descriptor_path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read state descriptor {descriptor_path}: {exc}") from exc
    if not isinstance(desc, dict) or not isinstance(desc.get("arrays"), dict):
        raise ConfigError(f"{descriptor_path}: descriptor needs an 'arrays' object")
    base = descriptor_path.parent.resolve()
    arrays = {}
    for name, info in desc["arrays"].items():
        if not isinstance(info, dict) or not {"file", "shape", "dtype"} <= info.keys():
            raise ConfigError(f"{descriptor_path}: array {name!r} needs file, shape and dtype")
        if info["dtype"] != "<f8":
            raise ConfigError(f"{descriptor_path}: array {name!r} has dtype {info['dtype']!r}, not <f8")
        shape = info["shape"]
        if not isinstance(shape, list) or not all(_is_int(k) and k >= 0 for k in shape):
            raise ConfigError(f"{descriptor_path}: array {name!r} has shape {shape!r}")
        if not isinstance(info["file"], str):
            raise ConfigError(f"{descriptor_path}: array {name!r} has file {info['file']!r}")
        path = (base / info["file"]).resolve()
        if not path.is_relative_to(base):
            raise ConfigError(f"{descriptor_path}: array file {info['file']!r} lies outside {base}")
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read array {name!r}: {exc}") from exc
        if len(raw) != 8 * math.prod(shape):
            raise ConfigError(
                f"{path}: {len(raw)} bytes do not hold a float64 array of shape {tuple(shape)}"
            )
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return arrays, desc.get("meta", {})


def dump_failure_state(
    config: ExperimentConfig, exc: SolverError, arrays: dict, kind: str, index: int, t: float
) -> SolverError:
    """Save the arrays that the failing step or fixed-point iterate `index`
    started from as failure_<kind>_<index> in the output directory and
    return the SolverError that reports exc and the dump. A step's arrays
    are the state at time t; an iterate's are the (g, u, h, v) trajectory of
    the last completed iterate, t its horizon."""
    dump = save_state(Path(config.output_dir) / f"failure_{kind}_{index}", arrays, meta={kind: index, "t": t})
    return SolverError(f"{kind} {index}: {exc} (state dumped to {dump})")


def save_run_series(run: CoupledRun, out_dir, config: ExperimentConfig) -> Path:
    """Emit a coupled run: sampled series + final state + metadata sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = {name: np.array([getattr(r, name) for r in run.reports]) for name in _REPORT_FIELDS}
    series.update(
        times=run.times, mass_kinetic=run.mass_kinetic, mass_fluid=run.mass_fluid,
        rho=run.rho, u=run.u, n=run.n, v=run.v,
    )
    save_state(out / "series", series)
    save_state(out / "state_final", {"f": run.f_final.f, "n": run.fluid_final.n, "v": run.fluid_final.v})
    meta = {
        "config": asdict(config),
        "eps": run.eps,
        "dt": run.dt,
        "wall_seconds": run.wall_seconds,
        "audit": {
            "slack_entropy_budget": run.audit.slack_entropy_budget,
            "slack_at": run.audit.slack_at,
            "inferred_modified_constant": run.audit.inferred_modified_constant,
        },
        "max_wall_flux": run.max_wall_flux,
        "max_exchange_asym": run.max_exchange_asym,
        "truncation_leak": run.truncation_leak,
        "ck_margin_min": run.ck_margin_min,
    }
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return out


def reaudit_run(run_dir) -> tuple[AuditRecord, float]:
    """Recompute the entropy-budget audit of an emitted run directory and
    return it with the run's audit tolerance; a directory without readable,
    complete run files is a ConfigError."""
    run_dir = Path(run_dir)
    try:
        meta = json.loads((run_dir / "run_meta.json").read_text())
        arrays, _ = load_state(run_dir / "series.json")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{run_dir} is not a run directory: {exc}") from exc
    if not isinstance(meta, dict) or not _is_real(meta.get("eps")) or not meta["eps"] > 0:
        raise ConfigError(f"{run_dir}/run_meta.json has no positive eps")
    config = meta.get("config", {})
    tol = config.get("audit_tolerance") if isinstance(config, dict) else None
    if not (_is_real(tol) and tol >= 0):
        raise ConfigError(f"{run_dir}/run_meta.json: config needs a nonnegative audit_tolerance")
    names = ("times", *_REPORT_FIELDS)
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ConfigError(f"{run_dir}/series.json misses {missing}")
    times = arrays["times"]
    if len({arrays[name].shape for name in names}) != 1 or times.ndim != 1 or not times.size:
        raise ConfigError(f"{run_dir}/series.json: the series must be 1-D, non-empty and of one length")
    reports = [
        EntropyReport(**{name: float(arrays[name][k]) for name in _REPORT_FIELDS})
        for k in range(times.shape[0])
    ]
    audit = entropy_inequality_audit(times, reports, meta["eps"])
    return audit, tol

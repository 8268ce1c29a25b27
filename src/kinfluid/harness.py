"""Experiment orchestration: configs, well-prepared initial data, coupled and
limit runs, the eps-sweep with its rate fit, and file emission.

Runs are deterministic: dt is fixed up front (an exact divisor of t_final
aligned with the sampling cadence), there is no randomness, and aggregation
follows eps_list order, so identical configs produce bit-identical CSVs.
"""
import json
import math
import numbers
import os
import pickle
import time
from dataclasses import asdict, dataclass, field, fields, replace
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
from .fluid import ns_step, sound_speed
from .kinetic import KineticWork, kinetic_step, wall_kernels
from .limit import _two_phase_substeps
from .moments import MomentSet, compute_moments, maxwellian, maxwellian_profile


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

# Largest number of steps one run takes, and so of n_samples. Far above the
# runs the acceptance suite and the benchmark make (at most 1280 steps); a
# 128 x 128 coupled run of this many steps takes several minutes. A t_final or
# CFL bound that would need more is a config error, not a run that never ends.
MAX_STEPS = 100_000

# Largest number of cells, nx * nv, of one run's phase space, and so of the
# other blocks a run sizes before its first step: the two wall blocks of
# (nv/2)^2 entries each, and the sample record of n_samples + 1 rows of four
# (nx,) fields. A coupled run's KineticWork holds about 11 arrays of nx * nv
# doubles (the state between sub-steps, the drift, four scratch arrays, the
# Courant numbers and the relaxation's packed levels, about 4), and the run
# two more states, so one of MAX_CELLS = 2^24 cells takes about 1.6 GiB, and
# each of the other blocks at most 0.5 GiB: far above the runs the tests, CI
# and the benchmark make (at most 2^14 cells, 128 x 128 and 256 x 64). The
# run's sampler process writes six of the work arrays in its own copy, and
# its ring holds SAMPLE_RING = 4 states, about 1.25 GiB more at the bound. An
# eps sweep holds up to one such run per worker process at once, so a sweep
# at the bound takes about 2.9 GiB per worker. A grid above it is a config
# error, checked before any array is built, not an allocation that fails or
# commits memory as the run goes.
MAX_CELLS = 1 << 24


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
        if not self.audit_tolerance >= 0:
            raise ConfigError("audit_tolerance must be nonnegative (the slack at t = 0 is 0)")
        sizes = {
            "nx * nv": self.nx * self.nv,
            "(nv/2)^2": (self.nv // 2) ** 2,
            "(n_samples + 1) * nx": (self.n_samples + 1) * self.nx,
        }
        for name, size in sizes.items():
            if size > MAX_CELLS:
                raise ConfigError(f"{name} = {size} exceeds MAX_CELLS = {MAX_CELLS}")
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


_REPORT_FIELDS = tuple(f.name for f in fields(EntropyReport))


def _sample_record(config: ExperimentConfig, scalars) -> np.recarray:
    """The (n_samples + 1,) record array of a run's samples, a row per time
    level: times, the sampled fields rho, u, n and v as (nx,) fields, then
    the run's per-sample scalars. A row reads rec[k].F, a column rec.F, and
    rec.rho is the (K, nx) stack of the samples. The record lies in an
    anonymous shared mapping, so the rows that a process forked after it is
    built writes, as a coupled run's sampler does, are read here."""
    import mmap  # here, as in _end_with: at module level it would add to every CLI start

    dtype = np.dtype([
        ("times", float),
        *((name, float, (config.nx,)) for name in ("rho", "u", "n", "v")),
        *((name, float) for name in scalars),
    ])
    return np.recarray(config.n_samples + 1, dtype=dtype, buf=mmap.mmap(-1, (config.n_samples + 1) * dtype.itemsize))


@dataclass
class CoupledRun:
    eps: float
    # a _sample_record whose scalars are every EntropyReport field and mass_fluid
    reports: np.recarray
    f_final: KineticState
    fluid_final: FluidState
    # max_wall_flux, wall_outflow and truncation_leak; the CFL ratios
    # max_cfl_transport, a run constant, and max_cfl_drag; and min_n over
    # t = 0 and every step, not only the samples
    book: dict[str, float]
    ck_margin_min: float
    audit: AuditRecord
    dt: float
    wall_seconds: float
    # steps, and the seconds of the step loop's four parts: kinetic_seconds
    # (kinetic_step), gas_seconds (ns_step), moments_seconds
    # (compute_moments) and sample_seconds (the entropy report and margin of
    # each sample, t = 0 included, timed in the sampler process); and
    # sample_wait_seconds, the march's hand-off of every sample to the
    # sampler and its wait for the last
    cost: dict[str, float]

    @property
    def record(self) -> dict:
        """The run's scalars by name, as run_meta.json and each runs entry
        of convergence_meta.json carry them."""
        return {
            "eps": self.eps, "dt": self.dt, "wall_seconds": self.wall_seconds, **self.cost,
            "audit": self.audit.summary, "ck_margin_min": self.ck_margin_min, **self.book,
        }


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


# Samples in flight at once between a coupled run's march and its sampler
# process: the slots of the ring that the march copies each sampled state
# into. The march waits only when every slot is full. Four slots of a
# 128 x 128 run take about 0.5 MiB.
SAMPLE_RING = 4


def _ring_slot(flat: np.ndarray, grid: PhaseGrid) -> tuple[np.ndarray, ...]:
    """The views (f, rho, u, mom, n, v, t) of one ring slot: a sampled state,
    the moments of its f and its time, t as a (1,) array."""
    nx, nv = grid.nx, grid.nv
    f, *rest = np.split(flat, np.cumsum([nx * nv, nx, nx, nx, nx, nx]))
    return f.reshape(nx, nv), *rest


class _Sampler:
    """A coupled run's sampler process, forked once the run's KineticWork is
    built. It evaluates the entropy report and the Csiszar-Kullback margin
    of each sample in its fork-inherited copy of the work set, while the
    march goes on, and writes the sample's row into the run's record, which
    lies in a shared mapping.

    The march copies each sampled state into a free slot of a ring of
    SAMPLE_RING slots in another shared mapping and sends the sample's index
    down a pipe. The sampler answers each sample with one byte, b".", once
    its slot is free again. It folds the margins with Python's min in
    sample order, as a march that sampled in process would. When the march
    closes the pipe, the sampler writes its smallest margin and its seconds
    into the ring's header, sends b"=" and ends. A sample that fails ends it
    with b"!" and the pickled failure: a SolverError names the dump of the
    sample's state, failure_step_<k> for the sample after step k, which the
    sampler writes from its slot. A sampler that ends without either, say
    killed, is a SolverError."""

    def __init__(self, config: ExperimentConfig, work: KineticWork, reports: np.recarray, per: int):
        import mmap  # here, as in _end_with: at module level it would add to every CLI start

        self.config, self.work, self.reports, self.per = config, work, reports, per
        grid = work.grid
        size = grid.nx * grid.nv + 5 * grid.nx + 1
        stride = -(-size // 8) * 8  # each slot starts on a 64-byte boundary
        ring = np.frombuffer(mmap.mmap(-1, 8 * (8 + SAMPLE_RING * stride)), dtype=float)
        self.header = ring[:2]  # the smallest margin and the sampler's seconds
        self.slots = [_ring_slot(ring[8 + k * stride :][:size], grid) for k in range(SAMPLE_RING)]
        self.sent = self.freed = 0
        self.wait_seconds = 0.0
        self.ended = False  # the sampler's last message is read
        self.failure = None
        index_r, self.index_w = os.pipe()
        self.answer_r, answer_w = os.pipe()
        parent = os.getpid()
        try:
            self.pid = os.fork()
        except OSError as exc:
            for fd in (index_r, self.index_w, self.answer_r, answer_w):
                os.close(fd)
            raise SolverError(f"cannot start the sampler process: {exc}") from exc
        if self.pid == 0:
            self._serve(parent, index_r, answer_w)
        os.close(index_r)
        os.close(answer_w)

    def _sample(self, idx: int) -> float:
        """Write row idx of the run's record from its slot; returns the
        sample's margin. A failing report dumps the slot's state."""
        f, rho, u, mom, n, v, t = self.slots[idx % SAMPLE_RING]
        t = float(t[0])
        try:
            kin = KineticState(f=f, t=t)
            fl = FluidState(n=n, v=v, gamma=self.config.gamma)
            report, l1_gap = evaluate_entropy_report(kin, fl, MomentSet(rho=rho, mom=mom, u=u), self.work)
            self.reports[idx] = (t, rho, u, n, v, *vars(report).values(), quad_x(n, self.work.grid))
            return csiszar_kullback_margin(report, l1_gap)
        except SolverError as exc:
            step = max(idx * self.per - 1, 0)  # sample idx > 0 follows step idx * per - 1
            raise dump_failure_state(self.config, exc, {"f": f, "n": n, "v": v}, step, t) from exc

    def _serve(self, parent: int, index_r: int, answer_w: int):
        """The sampler process: sample until the march closes the pipe, then
        end the process."""
        status = 1
        try:
            os.close(self.index_w)
            os.close(self.answer_r)
            _end_with(parent)
            ck_min, sample_s = None, 0.0
            while message := os.read(index_r, 4):
                t_a = time.perf_counter()
                margin = self._sample(int.from_bytes(message, "little"))
                ck_min = margin if ck_min is None else min(ck_min, margin)
                sample_s += time.perf_counter() - t_a
                os.write(answer_w, b".")
            self.header[:] = math.nan if ck_min is None else ck_min, sample_s
            os.write(answer_w, b"=")
            status = 0
        except Exception as exc:  # handed to the march, which raises it
            message = b"!" + pickle.dumps(exc)
            while message:
                message = message[os.write(answer_w, message) :]
        finally:
            os._exit(status)

    def _receive(self):
        """Read what the sampler sent, waiting for it; once it has ended,
        raise its failure, if any."""
        data = os.read(self.answer_r, 1 << 16)
        last = data.lstrip(b".")
        self.freed += len(data) - len(last)
        if data and not last:
            return
        while chunk := os.read(self.answer_r, 1 << 16):
            last += chunk
        self.ended = True
        if last.startswith(b"!"):
            self.failure = pickle.loads(last[1:])
        elif last != b"=":
            self.failure = SolverError("the sampler process ended abruptly")
        if self.failure is not None:
            raise self.failure

    def put(self, idx: int, kin: KineticState, fl: FluidState, mom: MomentSet):
        """Hand sample idx, the state (kin, fl) and the moments mom of kin, to
        the sampler, once a slot is free."""
        t_a = time.perf_counter()
        while self.sent - self.freed >= SAMPLE_RING:
            self._receive()
        for slot, value in zip(self.slots[idx % SAMPLE_RING], (kin.f, mom.rho, mom.u, mom.mom, fl.n, fl.v, kin.t)):
            slot[...] = value
        try:
            os.write(self.index_w, idx.to_bytes(4, "little"))
        except BrokenPipeError:  # the sampler has ended
            self.finish()
        self.sent += 1
        self.wait_seconds += time.perf_counter() - t_a

    def finish(self) -> tuple[float, float]:
        """Wait for the sampler to take every sample handed to it: its
        smallest margin and its seconds, or its failure raised."""
        t_a = time.perf_counter()
        if self.index_w >= 0:
            os.close(self.index_w)
            self.index_w = -1
        while not self.ended:
            self._receive()
        if self.failure is not None:
            raise self.failure
        self.wait_seconds += time.perf_counter() - t_a
        return float(self.header[0]), float(self.header[1])

    def stop(self):
        """Reap the sampler, killed first unless it has ended, and close
        the pipes."""
        import signal

        if not self.ended:
            os.kill(self.pid, signal.SIGKILL)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped already, under SIGCHLD set to SIG_IGN
            pass
        for fd in (self.index_w, self.answer_r):
            if fd >= 0:
                os.close(fd)


def run_coupled(config: ExperimentConfig, eps: float) -> CoupledRun:
    """Time-march the coupled kinetic/gas system, sampling entropy reports at
    the configured cadence and auditing the run at the end. The reports are
    made in the run's sampler process (_Sampler) while the march goes on.
    When both fail, the failure at the earlier step is raised: the
    sampler's, as it samples only steps the march has made."""
    t0 = time.perf_counter()
    grid = config.grid()
    if grid.nv < 4:
        raise ConfigError("coupled runs need nv >= 4 (the entropy diagnostics' velocity stencil)")
    walls = wall_kernels(config.boundary, grid, config.wall_temperature)
    kin, fl, _ = make_well_prepared(config)
    dt, nt, per = _pick_dt(config, grid, fl)

    reports = _sample_record(config, (*_REPORT_FIELDS, "mass_fluid"))
    clock = time.perf_counter
    step = 0  # a failure before the first step, such as a run constant failing its check, dumps t = 0
    sampler = None
    try:
        work = KineticWork(grid, dt, eps)
        book = {
            "max_wall_flux": 0.0, "wall_outflow": 0.0, "truncation_leak": 0.0,
            "max_cfl_transport": work.cfl_transport, "max_cfl_drag": 0.0, "min_n": float(fl.n.min()),
        }
        sampler = _Sampler(config, work, reports, per)
        # the moments of the current kin: sampled, then the next step's gas drag
        t_a = clock()
        mom = compute_moments(kin, grid, work.f)
        kinetic_s = gas_s = 0.0
        moments_s = clock() - t_a
        sampler.put(0, kin, fl, mom)
        for step in range(nt):
            t_a = clock()
            kin_new, krep = kinetic_step(kin, fl, walls, work)
            t_b = clock()
            fl_new = ns_step(fl, mom.rho, mom.u, dt, grid)
            t_c = clock()
            kin, fl = kin_new, fl_new
            mom = compute_moments(kin, grid, work.f)
            t_d = clock()
            kinetic_s += t_b - t_a
            gas_s += t_c - t_b
            moments_s += t_d - t_c
            book["max_wall_flux"] = max(book["max_wall_flux"], krep.max_wall_flux)
            book["wall_outflow"] += krep.wall_outflow
            book["truncation_leak"] += krep.truncation_leak
            book["max_cfl_drag"] = max(book["max_cfl_drag"], krep.cfl_drag)
            book["min_n"] = min(book["min_n"], float(fl.n.min()))
            if (step + 1) % per == 0:
                sampler.put((step + 1) // per, kin, fl, mom)
        ck_min, sample_s = sampler.finish()
    except Exception as exc:
        if sampler is not None:
            sampler.finish()  # raises the sampler's failure, from an earlier step
        if not isinstance(exc, SolverError):
            raise
        raise dump_failure_state(config, exc, {"f": kin.f, "n": fl.n, "v": fl.v}, step, kin.t) from exc
    finally:
        if sampler is not None:
            sampler.stop()

    cost = {
        "steps": nt, "kinetic_seconds": kinetic_s, "gas_seconds": gas_s,
        "moments_seconds": moments_s, "sample_seconds": sample_s, "sample_wait_seconds": sampler.wait_seconds,
    }
    return CoupledRun(
        eps=eps, reports=reports, f_final=kin, fluid_final=fl,
        book=book, ck_margin_min=ck_min, audit=entropy_inequality_audit(reports, eps),
        dt=dt, wall_seconds=time.perf_counter() - t0, cost=cost,
    )


@dataclass
class LimitRun:
    samples: np.recarray  # a _sample_record whose one scalar is mass_rho
    # max_exchange_asym, and min_one_plus_h over t = 0 and every step, not only the samples
    book: dict[str, float]
    dt: float
    # steps, and the seconds of the step loop's two parts: substep_seconds
    # (_two_phase_substeps) and sample_seconds (each sample's row, t = 0
    # included)
    cost: dict[str, float]


def run_limit(config: ExperimentConfig) -> LimitRun:
    """March the relaxed two-phase system directly, on the same sampling
    cadence as the coupled runs, keeping the smallest n = 1 + h of every step."""
    grid = config.grid()
    _, _, st = make_well_prepared(config)

    dt, nt, per = _cadence(config, config.cfl * min(
        grid.dx / (float(np.abs(st.u).max()) + 1.0),
        grid.dx / float((np.abs(st.fluid.v) + sound_speed(st.fluid.n, config.gamma)).max()),
    ))
    samples = _sample_record(config, ("mass_rho",))
    book = {"max_exchange_asym": 0.0, "min_one_plus_h": float(st.fluid.n.min())}

    clock = time.perf_counter

    def sample(idx, st):
        """Record time level idx; returns the seconds it took."""
        t_a = clock()
        samples[idx] = (st.t, st.rho, st.u, st.fluid.n, st.fluid.v, quad_x(st.rho, grid))
        return clock() - t_a

    substep_s, sample_s = 0.0, sample(0, st)
    try:
        for step in range(nt):
            t_a = clock()
            st, dpp, dpf = _two_phase_substeps(st, dt, grid)
            substep_s += clock() - t_a
            book["max_exchange_asym"] = max(book["max_exchange_asym"], abs(dpp + dpf))
            book["min_one_plus_h"] = min(book["min_one_plus_h"], float(st.fluid.n.min()))
            if (step + 1) % per == 0:
                sample_s += sample((step + 1) // per, st)
    except SolverError as exc:
        arrays = {"rho": st.rho, "u": st.u, "n": st.fluid.n, "v": st.fluid.v}
        raise dump_failure_state(config, exc, arrays, step, st.t) from exc

    cost = {"steps": nt, "substep_seconds": substep_s, "sample_seconds": sample_s}
    return LimitRun(samples=samples, book=book, dt=dt, cost=cost)


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------


# one (len(eps_list),) record array of the sweep table, a row per eps; its
# fields are the columns of convergence.csv
_SWEEP_DTYPE = np.dtype([(name, float) for name in ("eps", "sup_H", "sup_L1_rho", "sup_L1_n", "f_to_M_l1")])


@dataclass
class ConvergenceResult:
    rows: np.recarray  # of _SWEEP_DTYPE
    # None for a degenerate sweep, as in convergence_meta.json
    slope: float | None
    prefactor: float | None  # empirical: sup_H ~ prefactor * eps**slope (reported, never asserted)
    local_slopes: list[float] | None  # of each consecutive eps pair; sup_H is not one power law
    monotone: bool
    # why no slope is fitted ("zero gap" or "no eps dependence"); None when one is
    degeneracy: str | None
    runs: list[CoupledRun]
    limit: LimitRun
    workers: int  # the worker processes the coupled runs went to
    wall_seconds: float

    @property
    def degenerate(self) -> bool:
        return self.degeneracy is not None


def _stacked_state(samples: np.recarray, gamma: float) -> TwoPhaseState:
    """The two-phase state whose fields are the (K, nx) stacks of a sample
    record."""
    return TwoPhaseState(rho=samples.rho, u=samples.u, fluid=FluidState(n=samples.n, v=samples.v, gamma=gamma))


def _run_eps(config: ExperimentConfig, eps: float) -> CoupledRun:
    """One coupled run of a sweep, in a worker process. run_coupled is looked
    up here, in the worker, which inherits it from the sweep's process as
    that process holds it: a run_coupled replaced by a wrapper, which may be
    a closure that does not pickle, runs as replaced. Runs fail at the same
    time, so each dumps a failure into its own directory, eps_<eps> under
    the output directory."""
    return run_coupled(replace(config, output_dir=str(Path(config.output_dir) / f"eps_{eps!r}")), eps)


def _end_with(parent: int):
    """Initializer of a sweep's worker and of a run's sampler process: the
    kernel kills the process when the thread that forked it ends (Linux
    PR_SET_PDEATHSIG), so when its parent, pid parent, ends. A worker whose
    sweep's process was killed would otherwise wait on its call queue for
    ever, and a sampler busy with a sample would finish it first."""
    import ctypes
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(1, signal.SIGKILL) != 0:  # 1 = PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent ended before the call
        os._exit(1)


def run_convergence(config: ExperimentConfig) -> ConvergenceResult:
    """For each eps: coupled run vs the single limit trajectory, compared as
    (K, nx) sample stacks, level by level (both runs share the sampling
    cadence); sup-in-time relative entropy and L1 gaps; log-log slope fit of
    sup_H against eps, and the slope between each consecutive pair of eps
    values.

    The coupled runs share nothing, so they run at the same time, in
    min(len(eps_list), CPUs available) worker processes forked from this
    one; the limit march runs here while they do, and the comparison and
    the fit once they are done. Each run is deterministic on its own and the
    results are taken in eps_list order, so the table does not depend on
    the worker count. A failing limit march cancels the runs that have not
    started and is raised once the runs under way end. A run that fails
    cancels the runs that have not started, and the sweep raises the first
    failure in eps_list order; a worker that ends abruptly is a
    SolverError."""
    if len(config.eps_list) < 3:
        raise ConfigError("eps sweep needs at least 3 values")
    # imported here, as in _end_with: at module level they would add to every
    # CLI start
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    t0 = time.perf_counter()
    grid = config.grid()
    # forked, not spawned, a worker starts with numpy and kinfluid imported;
    # fork is safe here, as the runs start no threads and call no BLAS, and
    # the workers are forked at the first submit, before the pool starts its
    # own thread
    workers = min(len(config.eps_list), len(os.sched_getaffinity(0)))
    pool = ProcessPoolExecutor(
        workers, mp_context=get_context("fork"), initializer=_end_with, initargs=(os.getpid(),)
    )
    try:
        futures = [pool.submit(_run_eps, config, eps) for eps in config.eps_list]
        limit = run_limit(config)
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # waits for the runs under way and cancels the ones not started
        pool.shutdown(cancel_futures=True)
    # the runs start in eps_list order, so a failed run comes before every
    # cancelled one, whose result() would raise CancelledError
    try:
        runs = [fut.result() for fut in futures]
    except BrokenProcessPool as exc:  # a worker killed, say for want of memory
        raise SolverError(f"a sweep worker process ended abruptly: {exc}") from exc
    lim = limit.samples
    ref = _stacked_state(lim, config.gamma)
    m_end = maxwellian_profile(lim.rho[-1], lim.u[-1], grid)

    rows = np.recarray(len(config.eps_list), dtype=_SWEEP_DTYPE)
    for k, (eps, run) in enumerate(zip(config.eps_list, runs)):
        samples = run.reports
        rows[k] = (
            eps,
            relative_entropy(_stacked_state(samples, config.gamma), ref, grid).max(),
            quad_x(np.abs(samples.rho - lim.rho), grid).max(),
            quad_x(np.abs(samples.n - lim.n), grid).max(),
            l1_distance(run.f_final.f, m_end, grid),
        )

    # gaps at the double-precision quadrature floor carry no rate information,
    # and neither do gaps that do not move with eps (a quadrature error of the
    # initial data that every run inherits)
    degeneracy = None
    if np.any(rows.sup_H <= 1e-20):
        degeneracy = "zero gap"
    elif np.ptp(rows.sup_H) <= 1e-9 * rows.sup_H.max():
        degeneracy = "no eps dependence"
    slope = prefactor = local_slopes = None
    if degeneracy is None:
        log_eps, log_h = np.log(rows.eps), np.log(rows.sup_H)
        # least squares in closed form: np.polyfit's LAPACK solve rounds by
        # the BLAS kernel picked for the CPU
        d_eps = log_eps - log_eps.mean()
        slope = float(np.sum(d_eps * (log_h - log_h.mean())) / np.sum(d_eps * d_eps))
        prefactor = math.exp(log_h.mean() - slope * log_eps.mean())
        local_slopes = (np.diff(log_h) / np.diff(log_eps)).tolist()
    monotone = bool(np.all(np.diff(rows.sup_H) < 0))  # eps_list descends, so sup_H must too
    return ConvergenceResult(
        rows=rows, slope=slope, prefactor=prefactor, local_slopes=local_slopes, monotone=monotone,
        degeneracy=degeneracy, runs=runs, limit=limit, workers=workers,
        wall_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

CSV_COLUMNS = _SWEEP_DTYPE.names


def emit_csv(rows: np.ndarray, path) -> Path:
    """Fixed-column CSV, 17 significant digits, C-locale decimal points."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(f"{r[c]:.17g}" for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def save_state(prefix, arrays: dict[str, np.ndarray], meta: dict | None = None) -> Path:
    """Flat little-endian float64 binaries plus a JSON shape descriptor."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    desc = {"arrays": {}, "meta": meta or {}}
    for name, arr in arrays.items():
        # one contiguous copy at most (of a record's field), written from its buffer
        arr = np.ascontiguousarray(np.asarray(arr), dtype="<f8")
        bin_path = prefix.with_name(prefix.name + f"__{name}.bin")
        arr.tofile(bin_path)
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


def dump_failure_state(config: ExperimentConfig, exc: SolverError, arrays: dict, step: int, t: float) -> SolverError:
    """Save the arrays of the state at time t that the failing step started
    from as failure_step_<step> in the output directory and return the
    SolverError that reports exc and the dump."""
    dump = save_state(Path(config.output_dir) / f"failure_step_{step}", arrays, meta={"step": step, "t": t})
    return SolverError(f"step {step}: {exc} (state dumped to {dump})")


def save_run_series(run: CoupledRun, out_dir, config: ExperimentConfig) -> Path:
    """Emit a coupled run: sampled series + final state + metadata sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_state(out / "series", {name: run.reports[name] for name in run.reports.dtype.names})
    save_state(out / "state_final", {"f": run.f_final.f, "n": run.fluid_final.n, "v": run.fluid_final.v})
    meta = {"config": asdict(config), **run.record}
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
    # as ExperimentConfig and --eps check them: JSON's Infinity is no eps or tolerance
    eps = meta.get("eps") if isinstance(meta, dict) else None
    if not (_is_real(eps) and math.isfinite(eps) and eps > 0):
        raise ConfigError(f"{run_dir}/run_meta.json has no finite positive eps")
    config = meta.get("config", {})
    tol = config.get("audit_tolerance") if isinstance(config, dict) else None
    if not (_is_real(tol) and math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"{run_dir}/run_meta.json: config needs a finite nonnegative audit_tolerance")
    names = ("times", *_REPORT_FIELDS)
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ConfigError(f"{run_dir}/series.json misses {missing}")
    times = arrays["times"]
    if len({arrays[name].shape for name in names}) != 1 or times.ndim != 1 or not times.size:
        raise ConfigError(f"{run_dir}/series.json: the series must be 1-D, non-empty and of one length")
    return entropy_inequality_audit(arrays, eps), tol

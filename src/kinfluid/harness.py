"""Experiment orchestration: configs, well-prepared initial data, coupled and
limit runs, the eps-sweep with its rate fit, and file emission.

Runs are deterministic: dt is fixed up front (an exact divisor of t_final
aligned with the sampling cadence), there is no randomness, and aggregation
follows eps_list order, so identical configs produce bit-identical CSVs.
"""
import errno
import json
import math
import numbers
import os
import pickle
import time
import weakref
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import _kernels
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
# (nv/2)^2 entries each, and the four (n_samples + 1, nx) stacks of the
# sampled fields. A coupled run's KineticWork holds about 11 arrays of nx * nv
# doubles (the state between sub-steps, the drift, four scratch arrays, the
# Courant numbers and the relaxation's packed levels, about 4), and the run
# two more states, so one of MAX_CELLS = 2^24 cells takes about 1.6 GiB, and
# each of the other blocks at most 0.5 GiB: far above the runs the tests, CI
# and the benchmark make (at most 2^14 cells, 128 x 128 and 256 x 64). The
# run's sampler process writes six of the work arrays in its own copy and
# reads each sample into one more state, about 0.9 GiB more at the bound (its
# pipe holds at most 1 MiB). An eps sweep holds up to workers such runs at
# once, each in a child process, so a sweep at the bound takes about 2.5 GiB
# per worker. A grid above it is a config error, checked before any array is
# built, not an allocation that fails or commits memory as the run goes.
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
    arrays, _ = load_state(config.custom_state, ("rho0", "u0", "n0", "v0"))
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

# the sampled fields of a run, each a (K, nx) stack of its K samples
_FIELDS = ("rho", "u", "n", "v")


def _shared(shape: tuple, dtype, file=None) -> np.ndarray:
    """A zeroed array in a shared mapping, so that what a process forked
    after it is built writes in it, as a coupled run's sampler does, is
    read here. The mapping is of file, an open file that is first reserved
    in full, so that a full disk is an OSError here and not a SIGBUS at a
    later write; file closes when the mapping goes, or here if either step
    fails. With file None the mapping is anonymous."""
    import mmap  # here, as in _end_with: at module level it would add to every CLI start

    size = math.prod(shape) * np.dtype(dtype).itemsize
    if file is None:
        return np.ndarray(shape, dtype, buffer=mmap.mmap(-1, size))
    try:
        os.posix_fallocate(file.fileno(), 0, size)
        mapping = mmap.mmap(file.fileno(), size)
    except BaseException:
        file.close()
        raise
    weakref.finalize(mapping, file.close)
    return np.ndarray(shape, dtype, buffer=mapping)


def _sample_record(config: ExperimentConfig, scalars) -> np.recarray:
    """The (n_samples + 1,) record array of a run's per-sample scalars, a
    row per time level: times, then scalars. A row reads rec[k].F and a
    column rec.F. It lies in an anonymous shared mapping."""
    dtype = np.dtype([("times", float), *((name, float) for name in scalars)])
    return _shared((config.n_samples + 1,), dtype).view(np.recarray)


def _field_stacks(config: ExperimentConfig, out) -> tuple[dict, dict]:
    """The (n_samples + 1, nx) stacks of a run's sampled fields rho, u, n
    and v, each in a shared mapping, and the open files they map, by name.
    With out None the mappings are anonymous. Else each stack maps a new
    file of the directory out that has no name until save_state links it
    into place (series__<name>.bin, say): so the samples are written once,
    into the file they are emitted in, and a run that fails or is killed
    leaves nothing behind. Where the file system has no unnamed files, the stack is
    anonymous, and save_state writes it as any other array."""
    shape = (config.n_samples + 1, config.nx)
    stacks, files = {}, {}
    for name in _FIELDS:
        file = None
        if out is not None:
            try:
                file = files[name] = open(os.open(out, os.O_RDWR | os.O_TMPFILE, 0o666), "r+b", buffering=0)
            except OSError as exc:  # EISDIR from a kernel without O_TMPFILE
                if exc.errno not in (errno.EOPNOTSUPP, errno.EISDIR):
                    raise
        stacks[name] = _shared(shape, "<f8", file)
    return stacks, files


@dataclass
class CoupledRun:
    eps: float
    # a _sample_record whose scalars are every EntropyReport field and mass_fluid
    reports: np.recarray
    stacks: dict[str, np.ndarray]  # of _field_stacks
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
    # (kinetic_step), gas_seconds (ns_step, timed in the process that made
    # each), moments_seconds (compute_moments) and sample_seconds (the entropy
    # report and margin of each sample, t = 0 included, timed in the sampler
    # process); sample_wait_seconds, the march's hand-off of every step to
    # the sampler, its waits for the gas replies and its wait for the last
    # sample; march_cpu, the CPU the march ran on as its sampler was placed,
    # and sampler_cpu, the CPU the sampler was pinned to, each -1 where the
    # march makes the gas sub-steps or nothing was pinned; and
    # sampler_gas_steps, the steps whose gas sub-step the sampler made
    # (_Sampler)
    cost: dict[str, float]
    # the open files of the stacks streamed to their output directory, by
    # name (_field_stacks), for save_run_series to link into place
    files: dict = field(default_factory=dict)

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


def _end_with(parent: int):
    """The first call of each _Child: the kernel kills the process when the
    thread that forked it ends (Linux PR_SET_PDEATHSIG), so when its parent,
    pid parent, ends, where a sweep's run would run on to its end and a
    sampler finish its sample."""
    import ctypes
    import signal

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
    if prctl(1, signal.SIGKILL) != 0:  # 1 = PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent ended before the call
        os._exit(1)


class _Child:
    """A child process forked to run call() once. Its one message, on its
    one pipe to this process, is b"=" and the pickled result, or b"!" and
    the pickled exception that call raised; the pipe's end without either
    (the child killed, say) is SolverError(abrupt). The child starts with
    _end_with and inherits all that call uses, so nothing is pickled on the
    way in; any other traffic goes down pipes that call holds, as a run's
    sampler's steps and gas replies do (_Sampler).

    Fork only from the main thread, with no other Python thread started and
    no BLAS call under way: a child copies the locks held at the fork, not
    the threads that hold them. The one other thread at every fork here is
    OpenBLAS's worker (/proc/self/status reads Threads: 2 once numpy is
    imported); OpenBLAS's own fork handler stops it, and either process
    starts it again at its next BLAS call. CPython 3.12 and later warn of
    each such fork, as they count the kernel's threads."""

    def __init__(self, call, abrupt: str):
        self.fd, out = os.pipe()
        self.abrupt, self.ended = abrupt, False  # ended: the message is read
        parent = os.getpid()
        try:
            self.pid = os.fork()
        except OSError as exc:
            for fd in (self.fd, out):
                os.close(fd)
            raise SolverError(f"cannot fork a child process: {exc}") from exc
        if self.pid == 0:
            status = 1
            try:
                os.close(self.fd)
                _end_with(parent)
                try:
                    message = b"=" + pickle.dumps(call())
                except Exception as exc:  # raised again in the parent, by result()
                    message = b"!" + pickle.dumps(exc)
                while message:
                    message = message[os.write(out, message) :]
                status = 0
            finally:
                os._exit(status)
        os.close(out)

    def result(self):
        """The child's result, or its exception raised, once its message has
        come."""
        if not self.ended:
            chunks = []
            while chunk := os.read(self.fd, 1 << 16):
                chunks.append(chunk)
            self.ended, message = True, b"".join(chunks)
            try:
                self.outcome = message[:1], pickle.loads(message[1:])
            except (EOFError, pickle.UnpicklingError):  # no message, or a cut one
                self.outcome = b"!", SolverError(self.abrupt)
        kind, value = self.outcome
        if kind != b"=":
            raise value
        return value

    def stop(self):
        """Reap the child, killed first unless its message is read, and close
        the pipe."""
        import signal

        if not self.ended:
            os.kill(self.pid, signal.SIGKILL)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped already, under SIGCHLD set to SIG_IGN
            pass
        os.close(self.fd)


# Samples in flight at once between a coupled run's march and its sampler
# process: the pipe between them is sized to hold this many, where the system
# allows, up to 1 MiB (Linux's default pipe-max-size). The march waits only
# while the pipe is full, so a sample above 1 MiB goes over in lockstep.
SAMPLES_IN_FLIGHT = 4

# The gas sub-steps a sampler makes between two looks at its run's wait for
# a CPU (_Sampler), which hands them back after two stretches in a row with
# waits over twice their seconds. Short stretches, so that a run without a
# CPU to spare pays little: the first looks of a sweep's runs read waits
# 4-10 times the gas seconds. Twice, and two stretches, so that a stall of a
# CPU that the overlap did not cause does not end it: a run alone on two
# CPUs reads a stretch at 1-3 times now and then, at most two in a row.
GAS_LOOK_STEPS = 16


def _cpu_quota(cgroups="/proc/self/cgroup", root="/sys/fs/cgroup") -> float:
    """The CPUs' worth of time that this process's cgroup may take at once:
    its CPU quota over its period (cgroup v2 cpu.max, or v1 cpu.cfs_quota_us
    over cpu.cfs_period_us), the smaller where both are set; inf where none
    is set or can be read."""
    quotas = [math.inf]
    try:
        entries = [line.split(":", 2) for line in Path(cgroups).read_text().splitlines() if line.count(":") >= 2]
    except OSError:
        return math.inf
    for hierarchy, controllers, path in entries:
        base = Path(root, "" if hierarchy == "0" else controllers, path.lstrip("/"))
        try:
            if hierarchy == "0":
                quota, period = (base / "cpu.max").read_text().split()
            elif "cpu" in controllers.split(","):
                quota, period = ((base / f"cpu.cfs_{part}_us").read_text().strip() for part in ("quota", "period"))
            else:
                continue
            if quota not in ("max", "-1"):
                quotas.append(int(quota) / int(period))
        except (OSError, ValueError, ZeroDivisionError):
            pass
    return min(quotas)


def _cpus() -> tuple[list[int], int]:
    """This process's CPU set, sorted, and the most CPUs that it may keep
    busy at once: as many as the set holds, fewer where its cgroup's CPU
    quota (_cpu_quota) allows less, and at least one."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus, max(1, int(min(len(cpus), _cpu_quota())))


def _cpu_wait(*pids: int) -> float:
    """The seconds that the processes pids have spent ready to run but
    waiting for a CPU, together (the second field of each one's
    /proc/<pid>/schedstat); 0 where they cannot be read."""
    try:
        waits = []
        for pid in pids:
            with open(f"/proc/{pid}/schedstat", "rb") as stat:
                waits.append(int(stat.read().split()[1]))
        return sum(waits) * 1e-9
    except (OSError, ValueError, IndexError):
        return 0.0


def _current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or -1
    where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


class _Sampler:
    """A coupled run's sampler process, a _Child forked once the run's
    KineticWork is built, and the one place that decides where the run's
    gas sub-steps are made. While the march goes on, it makes each sample's
    entropy report and Csiszar-Kullback margin in its fork-inherited copy of
    the work set and writes the sample's row into the run's record and its
    fields into the run's stacks, each a shared mapping. The march writes
    each sampled state, whole, down the sampler's pipe, which holds
    SAMPLES_IN_FLIGHT of them where the system allows; the sampler reads
    each into one buffer.

    Where the run's process may keep two CPUs busy (_cpus), the sampler
    also makes each step's gas sub-step (ns_step) beside the march's
    kinetic sub-step, and owns the gas state from fl on: at each step the
    march writes the moments rho and u of its f down the pipe, within the
    sample where one is due, and reads the new gas state (n, v) back down a
    second pipe (gas_step). The sampler reads the whole step before it
    writes, so neither process waits on a full pipe while the other does.
    The march stays where the kernel puts it; the sampler pins itself once,
    as it starts and where the kernel allows, to the CPU of the set next
    after the one the march ran on as the sampler was forked (march_cpu),
    so that runs whose marches the kernel has spread over the CPUs spread
    their samplers too. Nothing is pinned where that CPU cannot be read.

    The gas sub-steps pay only while the run has a CPU to spare: the march
    waits for each reply. So after every GAS_LOOK_STEPS of them the sampler
    looks at how long it and the march waited for a CPU meanwhile
    (_cpu_wait). The second look in a row to find they waited more than
    twice as long as the gas sub-steps took ends the overlap: that reply
    says so (its last double), and from the next step on the march makes
    the gas sub-steps, as on one CPU; the sampler stays on its CPU.

    Its result is its smallest margin (Python's min in sample order, as in
    process), its side of the run's cost (finish) and the SolverError of its
    gas sub-step, after which it stops, or None. A sample's SolverError
    names the dump of the sampled state, failure_step_<k> for the sample
    after step k."""

    def __init__(self, config: ExperimentConfig, work: KineticWork, reports: np.recarray, stacks: dict, per: int,
                 fl: FluidState):
        import fcntl  # here, as in _end_with: at module level it would add to every CLI start

        self.config, self.work, self.reports, self.stacks, self.per = config, work, reports, stacks, per
        nx, nv = work.grid.nx, work.grid.nv
        self.size = nx * nv + 5 * nx + 1  # doubles of a sample: f, rho, u, mom, n, v and t
        self.wait_seconds = self.gas_seconds = 0.0  # the march's: its hand-offs and waits, its gas sub-steps
        cpus, busy = _cpus()
        self.gas = fl if busy >= 2 else None  # the gas state the sampler advances, None where the march does
        self.march_cpu = _current_cpu() if busy >= 2 else -1
        self.sampler_cpu = cpus[(cpus.index(self.march_cpu) + 1) % len(cpus)] if self.march_cpu in cpus else -1
        samples_r, samples_w = os.pipe()
        replies_r, replies_w = os.pipe()  # carries nothing where the march makes the gas sub-steps
        self.pipe = open(samples_w, "wb", buffering=0)
        self.replies = open(replies_r, "rb")
        try:
            fcntl.fcntl(samples_w, fcntl.F_SETPIPE_SZ, min(SAMPLES_IN_FLIGHT * 8 * self.size, 1 << 20))
        except OSError:  # refused: the default pipe, which holds fewer
            pass
        # closed here once the sampler is forked
        with open(samples_r, "rb") as samples, open(replies_w, "wb") as replies:
            try:
                self.child = _Child(lambda: self._serve(samples, replies), "the sampler process ended abruptly")
            except SolverError:  # not forked, so no stop() will close them
                self.pipe.close()
                self.replies.close()
                raise

    def _sample(self, idx: int, sample: np.ndarray) -> float:
        """Write row idx of the run's record and stacks from sample, as put
        writes it; returns the sample's margin. A failing report dumps the
        sampled state."""
        nx, nv = self.work.grid.nx, self.work.grid.nv
        f, t = sample[: nx * nv].reshape(nx, nv), float(sample[-1])
        rho, u, mom, n, v = sample[nx * nv : -1].reshape(5, nx)
        try:
            kin = KineticState(f=f, t=t)
            fl = FluidState(n=n, v=v, gamma=self.config.gamma)
            report, l1_gap = evaluate_entropy_report(kin, fl, MomentSet(rho=rho, mom=mom, u=u), self.work)
            self.reports[idx] = (t, *vars(report).values(), quad_x(n, self.work.grid))
            for stack, sampled in zip(self.stacks.values(), (rho, u, n, v)):
                stack[idx] = sampled
            return csiszar_kullback_margin(report, l1_gap)
        except SolverError as exc:
            step = max(idx * self.per - 1, 0)  # sample idx > 0 follows step idx * per - 1
            raise dump_failure_state(self.config, exc, {"f": f, "n": n, "v": v}, step, t) from exc

    def _serve(self, samples, replies) -> tuple[float, dict, SolverError | None]:
        """The sampler process: take each step the march hands over, until
        the march closes its end of the pipe or the run's last sample."""
        self.pipe.close()
        self.replies.close()
        clock, grid = time.perf_counter, self.work.grid
        cpu = self.sampler_cpu
        if cpu >= 0:
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:  # refused: the sampler runs where the kernel puts it
                cpu = -1
        nt = self.per * self.config.n_samples
        sample = _kernels.aligned_empty(self.size)  # f starts on a 64-byte boundary
        moments = sample[grid.nx * grid.nv : grid.nx * (grid.nv + 2)]  # rho and u, sampled or not
        margins, sample_s, gas_s, gas_steps, failure = [], 0.0, 0.0, 0, None
        run = (os.getpid(), os.getppid())  # the sampler and its march
        looked = (0.0, _cpu_wait(*run))  # the gas seconds and the run's wait for a CPU at the last look
        short = 0  # the looks in a row that found the run short of a CPU
        for step in range(nt + 1):
            sampled = step % self.per == 0
            if not (sampled or self.gas is not None):
                continue
            took = sample if sampled else moments
            if samples.readinto(took) != took.nbytes:  # short only at the pipe's end, a failed march's included
                break
            if self.gas is not None and step < nt:
                t_a = clock()
                try:
                    self.gas = ns_step(self.gas, *moments.reshape(2, grid.nx), self.work.dt, grid)
                except SolverError as exc:
                    failure = exc
                gas_s += clock() - t_a
                gas_steps += 1
                back = False
                if gas_steps % GAS_LOOK_STEPS == 0:
                    waited = _cpu_wait(*run)
                    short = short + 1 if waited - looked[1] > 2 * (gas_s - looked[0]) else 0
                    back, looked = short == 2, (gas_s, waited)
                if failure is None:
                    try:
                        replies.writelines((self.gas.n, self.gas.v, np.float64(back)))
                        replies.flush()
                    except BrokenPipeError:  # the march failed, and takes no more replies
                        pass
                    if back:  # the march makes the gas sub-steps from the next step on
                        self.gas = None
            if sampled:
                t_a = clock()
                margins.append(self._sample(step // self.per, sample))
                sample_s += clock() - t_a
            if failure is not None:
                break
        return float(min(margins, default=math.nan)), (gas_s, sample_s, cpu, gas_steps), failure

    def put(self, step: int, kin: KineticState, fl: FluidState, mom: MomentSet):
        """Hand the sampler what it takes of the state (kin, fl) at the start
        of step, with mom the moments of kin: the state, whole, where a
        sample is due, else, where the sampler makes the gas sub-steps, the
        rho and u of mom. Waits only while the pipe is full."""
        if step % self.per == 0:
            what, buffers = "a sample's", (kin.f, mom.rho, mom.u, mom.mom, fl.n, fl.v, np.float64(kin.t))
        elif self.gas is not None:
            what, buffers = "a gas request's", (mom.rho, mom.u)
        else:
            return
        t_a = time.perf_counter()
        # once the sampler has ended, a BrokenPipeError
        sent, size = os.writev(self.pipe.fileno(), buffers), sum(b.nbytes for b in buffers)
        if sent != size:
            raise SolverError(f"the sampler pipe took {sent} of {what} {size} bytes")
        self.wait_seconds += time.perf_counter() - t_a

    def gas_step(self, fl: FluidState, mom: MomentSet) -> FluidState:
        """The gas state after the step that starts from fl, whose f has the
        moments mom: made here, into gas_seconds, where the march makes the
        gas sub-steps, else the sampler's reply, which says whether it makes
        the next one. Without a reply, the sampler's failure is raised: an
        earlier sample's, the gas sub-step's or its abrupt end."""
        t_a = time.perf_counter()
        if self.gas is None:
            fl = ns_step(fl, mom.rho, mom.u, self.work.dt, self.work.grid)
            self.gas_seconds += time.perf_counter() - t_a
            return fl
        nx = self.work.grid.nx
        reply = np.empty(2 * nx + 1)  # n, v and whether the march makes the gas sub-steps from now on
        if self.replies.readinto(reply) != reply.nbytes:
            raise self.finish()[2] or SolverError(self.child.abrupt)
        self.wait_seconds += time.perf_counter() - t_a
        if reply[-1]:
            self.gas = None
        return FluidState(n=reply[:nx], v=reply[nx:-1], gamma=self.config.gamma)

    def finish(self) -> tuple[float, dict, SolverError | None]:
        """Wait for the sampler to take every step handed to it: its smallest
        margin, its side of the run's cost, under CoupledRun.cost's keys, and
        the SolverError of its gas sub-step or None; or its failure raised."""
        t_a = time.perf_counter()
        self.pipe.close()
        self.replies.close()  # so a reply it still writes is a BrokenPipeError, not a wait
        margin, (gas_s, sample_s, cpu, gas_steps), failure = self.child.result()
        self.wait_seconds += time.perf_counter() - t_a
        return margin, {"gas_seconds": self.gas_seconds + gas_s, "sample_seconds": sample_s,
                        "sample_wait_seconds": self.wait_seconds, "march_cpu": self.march_cpu,
                        "sampler_cpu": cpu, "sampler_gas_steps": gas_steps}, failure

    def stop(self):
        """Reap the sampler, killed first unless it has ended, and close the
        pipes."""
        self.child.stop()
        self.pipe.close()
        self.replies.close()


def run_coupled(config: ExperimentConfig, eps: float, out=None) -> CoupledRun:
    """Time-march the coupled kinetic/gas system, sampling entropy reports at
    the configured cadence and auditing the run at the end. The reports are
    made in the run's sampler process (_Sampler) while the march goes on.
    The sampler also decides where each step's gas sub-step is made, and
    the march takes each new gas state from it (_Sampler.gas_step): made
    beside the kinetic sub-step, by the sampler on a CPU other than the
    march's, or in the march. The march's own CPU set is never changed, and
    the gas state's bits are the same in either process.
    When several fail, the failure at the earlier step is raised: a
    sample's, as the sampler samples only steps the march has made, before
    a gas sub-step's; and a step's kinetic sub-step's before its gas
    sub-step's, as when the march makes both.

    out is the directory that save_run_series will emit the run to, or None:
    the sampler then writes the sampled fields straight into their files
    there, and this process never reads them (_field_stacks)."""
    t0 = time.perf_counter()
    grid = config.grid()
    if grid.nv < 4:
        raise ConfigError("coupled runs need nv >= 4 (the entropy diagnostics' velocity stencil)")
    walls = wall_kernels(config.boundary, grid, config.wall_temperature)
    kin, fl, _ = make_well_prepared(config)
    dt, nt, per = _pick_dt(config, grid, fl)

    reports = _sample_record(config, (*_REPORT_FIELDS, "mass_fluid"))
    stacks, files = _field_stacks(config, out)
    clock = time.perf_counter
    step = 0  # a failure before the first step, such as a run constant failing its check, dumps t = 0
    sampler = None
    try:
        work = KineticWork(grid, dt, eps)
        book = {
            "max_wall_flux": 0.0, "wall_outflow": 0.0, "truncation_leak": 0.0,
            "max_cfl_transport": work.cfl_transport, "max_cfl_drag": 0.0, "min_n": float(fl.n.min()),
        }
        sampler = _Sampler(config, work, reports, stacks, per, fl)
        # the moments of the current kin: sampled, then the next step's gas drag
        t_a = clock()
        mom = compute_moments(kin, grid, work.f)
        kinetic_s = 0.0
        moments_s = clock() - t_a
        sampler.put(0, kin, fl, mom)
        for step in range(nt):
            t_a = clock()
            kin_new, krep = kinetic_step(kin, fl, walls, work)
            t_b = clock()
            kin, fl = kin_new, sampler.gas_step(fl, mom)  # timed into the sampler's side of the cost
            t_c = clock()
            mom = compute_moments(kin, grid, work.f)
            kinetic_s += t_b - t_a
            moments_s += clock() - t_c
            book["max_wall_flux"] = max(book["max_wall_flux"], krep.max_wall_flux)
            book["wall_outflow"] += krep.wall_outflow
            book["truncation_leak"] += krep.truncation_leak
            book["max_cfl_drag"] = max(book["max_cfl_drag"], krep.cfl_drag)
            book["min_n"] = min(book["min_n"], float(fl.n.min()))
            sampler.put(step + 1, kin, fl, mom)
        ck_min, sampled, _ = sampler.finish()
    except Exception as exc:
        if sampler is not None:
            sampler.finish()  # raises the sampler's failure, from an earlier step
        if not isinstance(exc, SolverError):
            raise
        raise dump_failure_state(config, exc, {"f": kin.f, "n": fl.n, "v": fl.v}, step, kin.t) from exc
    finally:
        if sampler is not None:
            sampler.stop()

    cost = {"steps": nt, "kinetic_seconds": kinetic_s, "gas_seconds": sampled.pop("gas_seconds"),
            "moments_seconds": moments_s, **sampled}
    return CoupledRun(
        eps=eps, reports=reports, stacks=stacks, f_final=kin, fluid_final=fl,
        book=book, ck_margin_min=ck_min, audit=entropy_inequality_audit(reports, eps),
        dt=dt, wall_seconds=time.perf_counter() - t0, cost=cost, files=files,
    )


@dataclass
class LimitRun:
    samples: np.recarray  # a _sample_record whose one scalar is mass_rho
    stacks: dict[str, np.ndarray]  # of _field_stacks
    # max_exchange_asym, and min_one_plus_h over t = 0 and every step, not only the samples
    book: dict[str, float]
    dt: float
    # steps, and the seconds of the step loop's two parts: substep_seconds
    # (_two_phase_substeps) and sample_seconds (each sample's row, t = 0
    # included)
    cost: dict[str, float]
    # as CoupledRun.files, for save_state to link into place
    files: dict = field(default_factory=dict)


def run_limit(config: ExperimentConfig, out=None) -> LimitRun:
    """March the relaxed two-phase system directly, on the same sampling
    cadence as the coupled runs, keeping the smallest n = 1 + h of every step.
    out is as run_coupled's: the directory whose limit_series files the
    samples are written into, or None."""
    grid = config.grid()
    _, _, st = make_well_prepared(config)

    dt, nt, per = _cadence(config, config.cfl * min(
        grid.dx / (float(np.abs(st.u).max()) + 1.0),
        grid.dx / float((np.abs(st.fluid.v) + sound_speed(st.fluid.n, config.gamma)).max()),
    ))
    samples = _sample_record(config, ("mass_rho",))
    stacks, files = _field_stacks(config, out)
    book = {"max_exchange_asym": 0.0, "min_one_plus_h": float(st.fluid.n.min())}

    clock = time.perf_counter

    def sample(idx, st):
        """Record time level idx; returns the seconds it took."""
        t_a = clock()
        samples[idx] = (st.t, quad_x(st.rho, grid))
        for stack, sampled in zip(stacks.values(), (st.rho, st.u, st.fluid.n, st.fluid.v)):
            stack[idx] = sampled
        return clock() - t_a

    try:
        substep_s, sample_s = 0.0, sample(0, st)
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
    return LimitRun(samples=samples, stacks=stacks, book=book, dt=dt, cost=cost, files=files)


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
    workers: int  # the most coupled runs, each in a child process, run at once
    wall_seconds: float

    @property
    def degenerate(self) -> bool:
        return self.degeneracy is not None


def _stacked_state(stacks: dict, gamma: float) -> TwoPhaseState:
    """The two-phase state whose fields are a run's (K, nx) stacks."""
    return TwoPhaseState(
        rho=stacks["rho"], u=stacks["u"], fluid=FluidState(n=stacks["n"], v=stacks["v"], gamma=gamma)
    )


def run_convergence(config: ExperimentConfig) -> ConvergenceResult:
    """For each eps: coupled run vs the single limit trajectory, compared as
    (K, nx) sample stacks, level by level (both runs share the sampling
    cadence); sup-in-time relative entropy and L1 gaps; log-log slope fit of
    sup_H against eps, and the slope between each consecutive pair of eps
    values.

    The coupled runs share nothing, so they run at the same time, each in
    a _Child, at most min(len(eps_list), CPUs available) at once, started in
    eps_list order, while the limit march runs here. Each run is
    deterministic and the results are taken in eps_list order, so the table
    does not depend on the worker count. Once a run or the limit march
    fails, no further run starts; the runs under way end, then the limit
    march's failure is raised, else the first failure in eps_list order."""
    if len(config.eps_list) < 3:
        raise ConfigError("eps sweep needs at least 3 values")
    import select  # here, as in _end_with: at module level it would add to every CLI start

    t0 = time.perf_counter()
    grid = config.grid()
    workers = min(len(config.eps_list), _cpus()[1])
    children = []  # a _Child per run started, in eps_list order

    def start_runs():  # the next runs, until workers of them run
        while len(children) < len(config.eps_list) and sum(not c.ended for c in children) < workers:
            eps = config.eps_list[len(children)]
            # runs fail at the same time, so each dumps into a directory of its own
            run = replace(config, output_dir=str(Path(config.output_dir) / f"eps_{eps!r}"))
            abrupt = f"a sweep worker process ended abruptly: its run at eps = {eps!r} sent no result"
            children.append(_Child(lambda run=run, eps=eps: run_coupled(run, eps), abrupt))

    def wait_runs(more: bool):  # until none is under way; starts the next while more and none failed
        while running := [c for c in children if not c.ended]:
            ready = select.select([c.fd for c in running], [], [])[0]
            for child in (c for c in running if c.fd in ready):
                try:
                    child.result()
                except Exception:  # raised again below, the first in eps_list order
                    more = False
            if more:
                start_runs()

    limit = None
    try:
        start_runs()
        try:
            limit = run_limit(config)
        finally:
            wait_runs(more=limit is not None)
        runs = [child.result() for child in children]
    finally:
        for child in children:
            child.stop()
    lim = limit.stacks
    ref = _stacked_state(lim, config.gamma)
    m_end = maxwellian_profile(lim["rho"][-1], lim["u"][-1], grid)

    rows = np.recarray(len(config.eps_list), dtype=_SWEEP_DTYPE)
    for k, (eps, run) in enumerate(zip(config.eps_list, runs)):
        samples = run.stacks
        rows[k] = (
            eps,
            relative_entropy(_stacked_state(samples, config.gamma), ref, grid).max(),
            quad_x(np.abs(samples["rho"] - lim["rho"]), grid).max(),
            quad_x(np.abs(samples["n"] - lim["n"]), grid).max(),
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


def _linked(file, path: Path) -> bool:
    """Give the open file that has no name (_field_stacks) the name path;
    False where path lies on another file system."""
    fd = file.fileno()
    try:
        # a src_dir_fd makes this linkat(2), which follows the /proc link
        os.link(f"/proc/self/fd/{fd}", path, src_dir_fd=fd, follow_symlinks=True)
    except OSError as exc:
        if exc.errno != errno.EXDEV:
            raise
        return False
    return True


def save_state(prefix, arrays: dict[str, np.ndarray], meta: dict | None = None, streamed: dict | None = None) -> Path:
    """Flat little-endian float64 binaries plus a JSON shape descriptor,
    which is removed first and written last, so that none describes a
    partly written set. Each file is a new one: a file of the same name that
    a run or a reader maps keeps its bytes. streamed maps the name of an
    array to the open file that already holds it, a run's stack
    (_field_stacks), which is linked into place in place of a write, where
    it lies on the file system of prefix; elsewhere it is written as any
    other array."""
    prefix = Path(prefix)
    streamed = streamed or {}
    prefix.parent.mkdir(parents=True, exist_ok=True)
    json_path = prefix.with_suffix(".json")
    json_path.unlink(missing_ok=True)
    desc = {"arrays": {}, "meta": meta or {}}
    for name, arr in arrays.items():
        # one contiguous copy at most, written from its buffer
        arr = np.ascontiguousarray(np.asarray(arr), dtype="<f8")
        bin_path = prefix.with_name(prefix.name + f"__{name}.bin")
        bin_path.unlink(missing_ok=True)
        if not (name in streamed and _linked(streamed[name], bin_path)):
            arr.tofile(bin_path)
        desc["arrays"][name] = {"file": bin_path.name, "shape": list(arr.shape), "dtype": "<f8"}
    json_path.write_text(json.dumps(desc, indent=2, sort_keys=True))
    return json_path


def load_state(descriptor_path, names=None) -> tuple[dict[str, np.ndarray], dict]:
    """Read the arrays a save_state descriptor lists, or only those of them
    in names. An unreadable or malformed descriptor, an array file outside
    the descriptor's directory, or a listed file whose size does not match
    its shape, read or not, is a ConfigError."""
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
            nbytes = os.stat(path).st_size
            if nbytes == 8 * math.prod(shape) and (names is None or name in names):
                arrays[name] = np.fromfile(path, dtype="<f8")
                nbytes = arrays[name].nbytes  # as read, should the file have changed since
        except OSError as exc:
            raise ConfigError(f"cannot read array {name!r}: {exc}") from exc
        if nbytes != 8 * math.prod(shape):
            raise ConfigError(f"{path}: {nbytes} bytes do not hold a float64 array of shape {tuple(shape)}")
        if name in arrays:
            arrays[name] = arrays[name].reshape(shape)
    return arrays, desc.get("meta", {})


def dump_failure_state(config: ExperimentConfig, exc: SolverError, arrays: dict, step: int, t: float) -> SolverError:
    """Save the arrays of the state at time t that the failing step started
    from as failure_step_<step> in the output directory and return the
    SolverError that reports exc and the dump."""
    dump = save_state(Path(config.output_dir) / f"failure_step_{step}", arrays, meta={"step": step, "t": t})
    return SolverError(f"step {step}: {exc} (state dumped to {dump})")


def save_run_series(run: CoupledRun, out_dir, config: ExperimentConfig) -> Path:
    """Emit a coupled run: sampled series + final state + metadata sidecar.
    series.json is removed first and written last. The stacks that the run
    streamed (run_coupled's out) are linked into place, not written again,
    where out_dir lies on their file system."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "series.json").unlink(missing_ok=True)
    save_state(out / "state_final", {"f": run.f_final.f, "n": run.fluid_final.n, "v": run.fluid_final.v})
    meta = {"config": asdict(config), **run.record}
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    scalars = {name: run.reports[name] for name in run.reports.dtype.names}
    save_state(out / "series", {**scalars, **run.stacks}, streamed=run.files)
    return out


def reaudit_run(run_dir) -> tuple[AuditRecord, float]:
    """Recompute the entropy-budget audit of an emitted run directory and
    return it with the run's audit tolerance; a directory without readable,
    complete run files is a ConfigError."""
    run_dir = Path(run_dir)
    try:
        meta = json.loads((run_dir / "run_meta.json").read_text())
        arrays, _ = load_state(run_dir / "series.json", ("times", *_REPORT_FIELDS))
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

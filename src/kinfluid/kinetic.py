"""Time integration of the scaled kinetic equation with wall scattering kernels.

One full step is the Strang composition
    transport(dt/2) -> drag(dt/2) -> relaxation(dt) -> drag(dt/2) -> transport(dt/2)
where transport is conservative upwind advection in x, drag is conservative
upwind advection in velocity toward the fluid velocity, and the relaxation
step is an implicit, exponentially fitted diffusion-drift solve in velocity
whose discrete stationary states are exactly the discrete local Maxwellians.

Every sub-step preserves f >= 0 and conserves mass (transport up to the wall
flux it reports; the velocity-space steps exactly, by zero-flux cut-offs).
"""
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import CFL_SLACK, CFLError, FluidState, KineticState, PhaseGrid, SolverError
from .moments import compute_moments


@dataclass
class KineticStepReport:
    """Mass books for one step: the largest instantaneous wall trace seen in
    any sub-step and the diagnostic leak through the velocity cut at +-v_max;
    and the CFL ratios of its transport and drag half-steps."""

    max_wall_flux: float = 0.0
    truncation_leak: float = 0.0
    cfl_transport: float = 0.0
    cfl_drag: float = 0.0


_WALL_TOL = 1e-12


def wall_kernels(boundary: str, grid: PhaseGrid, wall_temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """The (nv/2, nv/2) scattering blocks (b_lo, b_hi) of the two walls: each
    maps a boundary cell's outgoing half-row to the incoming half of its wall
    interface, f[0, :nv/2] @ b_lo and f[-1, nv/2:] @ b_hi (Cercignani 1988,
    ch. III).
    They are the velocity reversal ("specular"), the rank-one dv |xi_out| (x) w
    with w the wall Maxwellian at unit incoming mass flux ("diffuse"), or zero
    ("dirichlet_zero", absorbing). Checked here, once, with s = xi[nv/2:] the
    incoming speeds at the left wall: every non-absorbing block returns the
    outgoing mass flux (b @ s = s[::-1]) and the diffuse one fixes its wall
    Maxwellian. b_hi is b_lo with both axes reversed, as xi[::-1] == -xi."""
    h = grid.nv // 2
    s = grid.xi[h:]
    if boundary == "specular":
        b_lo = np.eye(h)[::-1].copy()
    elif boundary == "diffuse":
        if not wall_temperature > 0:
            raise ValueError("wall_temperature must be positive")
        with np.errstate(over="ignore"):  # a subnormal temperature gives mw = 0
            mw = np.exp(-0.5 * s * s / wall_temperature)
        z = grid.dv * float(np.sum(s * mw))
        if not z > 0:
            raise ValueError(
                f"the diffuse wall Maxwellian at wall_temperature = {wall_temperature:g} "
                "underflows to zero on every incoming velocity"
            )
        b_lo = grid.dv * np.outer(s[::-1], mw / z)
        # the wall Maxwellian's outgoing trace is re-emitted as itself
        err = float(np.max(np.abs(mw[::-1] @ b_lo - mw)))
        if not err <= _WALL_TOL * float(mw.max()):
            raise ValueError(f"diffuse kernel does not fix the wall Maxwellian (error {err:g})")
    elif boundary == "dirichlet_zero":
        b_lo = np.zeros((h, h))
    else:
        raise ValueError(f"boundary must be one of ('specular', 'diffuse', 'dirichlet_zero'), got {boundary!r}")
    if boundary != "dirichlet_zero":
        err = float(np.max(np.abs(b_lo @ s - s[::-1])))
        if not err <= _WALL_TOL * grid.v_max:
            raise ValueError(f"{boundary} kernel does not return the outgoing mass flux (error {err:g})")
    return b_lo, np.ascontiguousarray(b_lo[::-1, ::-1])


def _wall_traces(row_lo, row_hi, grid) -> tuple[float, float]:
    """Outward trace integrals int (xi.r) gamma_f dxi at the two walls,
    evaluated from the wall interface rows, which hold the upwind interface
    values. Summed over mirror pairs so the specular identity cancels
    exactly in floating point."""
    t_lo = grid.xi * row_lo
    t_hi = grid.xi * row_hi
    s_lo = 0.5 * grid.dv * float(np.sum(t_lo + t_lo[::-1]))
    s_hi = 0.5 * grid.dv * float(np.sum(t_hi + t_hi[::-1]))
    return -s_lo, s_hi


class KineticWork:
    """The work arrays of kinetic_step for one grid, built once per run: the
    state between sub-steps, the drag's signed drift and its upwind mask,
    four flat scratch arrays that each sub-step's kernel runs in, and the
    relaxation's _kernels.CyclicReduction. Six arrays of nx*nv doubles and
    one of nx*nv booleans, the scratch ones a row longer for the transport's
    interface rows. The reduction's first level is the scratch arrays, where
    the relaxation assembles its matrix; its higher levels take about four
    arrays more, and the views of every level are built here, once. Between
    steps they hold nothing, and the moments and the entropy report of a
    sample run in them. Every phase-space array starts on a 64-byte
    boundary (_kernels.aligned_empty), so the kernels' speed does not depend
    on where the heap puts them.

    It also holds the run constants of one (dt, eps), which fill writes in
    place: the transport half-step's Courant numbers as one more flat nx*nv
    array, its CFL ratio, and the relaxation's two velocity-factor rows."""

    def __init__(self, grid: PhaseGrid):
        shape = (grid.nx, grid.nv)
        size = grid.nx * grid.nv
        self.grid = grid
        self.f = _kernels.aligned_empty(shape)
        self.drift = _kernels.aligned_empty(shape)
        self.upwind = _kernels.aligned_empty(shape, bool)
        self.scratch = tuple(_kernels.aligned_empty(size + grid.nv) for _ in range(4))
        self.reduction = _kernels.CyclicReduction(grid.nx, grid.nv, self.scratch)
        self.speeds = _kernels.aligned_empty(size)
        self.fp_rows = (np.empty(grid.nv), np.empty(grid.nv))
        self.cfl_transport = math.nan
        self.filled_for = None

    def fill(self, dt: float, eps: float) -> None:
        """Write the run constants of steps of dt at eps in place, unless
        they hold them already; their checks raise as the sub-steps' own."""
        if self.filled_for == (dt, eps):
            return
        self.filled_for = None  # until every constant is written
        self.cfl_transport, _ = _transport_speeds(0.5 * dt, self.grid, out=self.speeds)
        _fp_rows(dt, self.grid, eps, out=self.fp_rows)
        self.filled_for = (dt, eps)


def _transport_speeds(dt, grid, out=None):
    """(cfl, speeds) of a transport sub-step of dt: its CFL ratio, a
    CFLError above 1, and its Courant numbers xi*dt/dx as one flat array of
    nx*nv entries, each row the same (in out when given)."""
    ximax = grid.v_max - 0.5 * grid.dv  # largest cell-center speed
    cfl = dt * ximax / grid.dx
    if cfl > CFL_SLACK:
        raise CFLError(f"transport CFL violated: dt*ximax/dx = {cfl:g}")
    speeds = np.empty(grid.nx * grid.nv) if out is None else out
    np.copyto(speeds.reshape(grid.nx, grid.nv), grid.xi * (dt / grid.dx))
    return cfl, speeds


def _transport_raw(farr, grid, dt, walls, out=None, scratch=None, speeds=None):
    """Conservative upwind advection in x with the wall interfaces' incoming
    halves scattered by the blocks walls = (b_lo, b_hi) of wall_kernels;
    returns (f, trace_lo, trace_hi). The mass change equals
    -dt*(trace_lo + trace_hi) exactly (conservative telescoping). out and
    scratch (KineticWork.scratch) are the kernel's out and work arrays;
    speeds are its Courant numbers for dt (KineticWork.speeds), built here,
    with the CFL check, when None."""
    if speeds is None:
        _, speeds = _transport_speeds(dt, grid)
    # each wall interface's incoming half is the boundary cell's outgoing
    # half scattered. The products are einsum's, not BLAS's: BLAS picks its
    # kernel by CPU at load time, and its kernels round the same product
    # differently
    b_lo, b_hi = walls
    nx, nv = farr.shape
    h = nv // 2
    in_lo = np.einsum("j,jk->k", farr[0, :h], b_lo)
    in_hi = np.einsum("j,jk->k", farr[-1, h:], b_hi)
    work = scratch[:2] if scratch else (np.empty((nx + 1) * nv), np.empty(nx * nv))
    fnew = _kernels.upwind_transport(farr, speeds, in_lo, in_hi, out=out, work=work)
    # the kernel's first and last interface rows are the upwind wall traces
    rows = work[0]
    trace_lo, trace_hi = _wall_traces(rows[:nv], rows[nx * nv : (nx + 1) * nv], grid)
    return fnew, trace_lo, trace_hi


def _drift(fluid_v, grid, out=None):
    """(a, a < 0) of the drag's drift a = v - xi_{j+1/2} at the upper
    interface of each cell: a as an (nx, nv) array whose last column, the
    velocity cut, is 0, and the boolean mask of the interfaces whose upwind
    value is the next cell's."""
    v = np.asarray(fluid_v, dtype=float)
    a, upwind = out if out else (np.empty((grid.nx, grid.nv)), np.empty((grid.nx, grid.nv), dtype=bool))
    # the per-cell v copied, then the per-velocity edges taken off in place:
    # one iterator buffer, where np.subtract.outer takes two
    np.copyto(a, v[:, None])
    a -= grid.xi_edges[1:]
    a[:, -1] = 0.0
    np.less(a, 0.0, out=upwind)
    return a, upwind


def _drag_constants(fluid_v, dt, grid, out=None):
    """What the drag sub-steps of dt under fluid velocity v share:
    (cfl, drift, leak_weights), with the CFL ratio checked (a CFLError above
    1), the _drift of v (in out when given) and, per cell, the outflow
    speeds max(v - xi_max, 0) and max(xi_min - v, 0) through the two
    velocity cuts."""
    v = np.asarray(fluid_v, dtype=float)
    edges = grid.xi_edges
    # the interior edges are symmetric about 0, so max |v - edge| over
    # them is max |v| plus the largest interior edge, in floating point too
    amax = float(np.abs(v).max()) + edges[-2]
    cfl = float(dt * amax / grid.dv)
    if cfl > CFL_SLACK:
        raise CFLError(f"velocity-advection CFL violated: dt*|a|max/dv = {cfl:g}")
    a_bot = v - edges[0]
    a_top = v - edges[-1]
    leak_weights = (np.maximum(a_top, 0.0), np.maximum(-a_bot, 0.0))
    return cfl, _drift(v, grid, out), leak_weights


def _drag_raw(farr, fluid_v, dt, grid, consts=None, out=None, scratch=None):
    """Upwind advection in velocity with per-cell drift v - xi: through
    each interface the flux a f_up, the signed drift times the upwind value.

    Zero flux is imposed at the velocity cut; the would-be outflow there is
    returned as the suppressed-leak diagnostic (zero unless |v| exceeds
    v_max). consts: the _drag_constants of fluid_v and dt, built here, with
    the CFL check, when None; their drift and upwind mask live in
    KineticWork.drift and KineticWork.upwind in a run. out and scratch
    (KineticWork.scratch) are the kernel's out and work arrays."""
    _, (a, upwind), (w_top, w_bot) = _drag_constants(fluid_v, dt, grid) if consts is None else consts
    leak = dt * grid.dx * grid.dv * float(np.sum(w_top * farr[:, -1] + w_bot * farr[:, 0]))
    work = scratch[:2] if scratch else None
    fnew = _kernels.upwind_drag(farr, a, upwind, dt / grid.dv, out=out, work=work)
    return fnew, leak


def _fp_rows(dt, grid, eps, out=None):
    """The velocity factors (lower, upper) of the relaxation's off-diagonals
    for a sub-step of dt at eps: -a exp(-dv xi_{j+1/2} / 2) and
    -a exp(+dv xi_{j+1/2} / 2) over the interior edges, with
    a = dt/(eps dv^2), each padded with its corner entry 0 (first and last).
    A ValueError for an eps that is not positive, a SolverError when a
    overflows; out: two arrays of nv entries."""
    if not eps > 0:  # written so that NaN fails too
        raise ValueError(f"eps must be positive, got {eps!r}")
    dv = grid.dv
    scale = eps * dv * dv  # 0 when eps is near the smallest double
    a = dt / scale if scale > 0.0 else math.inf
    if not math.isfinite(a):
        raise SolverError(f"relaxation coefficient dt/(eps dv^2) overflows at eps = {eps:g}")
    lower, upper = out if out else (np.empty(grid.nv), np.empty(grid.nv))
    half = 0.5 * dv
    edges = grid.xi_edges[1:-1]
    lower[0] = 0.0
    np.multiply(-a, np.exp(-half * edges), out=lower[1:])
    np.multiply(-a, np.exp(half * edges), out=upper[:-1])
    upper[-1] = 0.0
    return lower, upper


def _fp_raw(farr, u, dt, grid, eps, out=None, work=None, rows=None):
    """Backward-Euler solve of the velocity diffusion-drift relaxation
    toward the local Maxwellian M_{rho,u}, with u frozen over the sub-step.

    The interface weights are the geometric-mean fit to the local Maxwellian,
    so discrete Maxwellians with the given u are exact stationary states, the
    system matrix is an M-matrix (positivity) and its columns sum to one
    (exact per-cell mass conservation).

    The coefficients are assembled in the level-0 arrays of work, the run's
    _kernels.CyclicReduction (KineticWork.reduction; a fresh one when None),
    which the solve then runs in; out may be farr. rows: the _fp_rows of dt
    and eps (KineticWork.fp_rows), built here, with their checks, when None."""
    lo_row, up_row = _fp_rows(dt, grid, eps) if rows is None else rows
    if work is None:
        work = _kernels.CyclicReduction(*farr.shape)
    lower, diag, upper = work.lower, work.diag, work.upper
    flat_l, flat_d, flat_u = (w.reshape(-1) for w in (lower, diag, upper))
    # exp(+-dv (xi_{j+1/2} - u) / 2) as the outer product of a spatial factor,
    # copied per cell as in _drift, and the velocity factor row applied
    # in place, which carries the factor -a and the zero corner entries
    # lower[:, 0] and upper[:, -1]
    half = 0.5 * grid.dv
    u = np.asarray(u, dtype=float)
    np.copyto(lower, np.exp(half * u)[:, None])
    lower *= lo_row
    np.copyto(upper, np.exp(-half * u)[:, None])
    upper *= up_row
    # diag_j = (1 - lower_{j+1}) - upper_{j-1}; across a row end the shifts
    # read a zero corner entry
    np.subtract(1.0, flat_l[1:], out=flat_d[:-1])
    flat_d[-1] = 1.0
    flat_d[1:] -= flat_u[:-1]
    return _kernels.thomas_batch(lower, diag, upper, farr, out=out, work=work)


def kinetic_step(
    f: KineticState,
    fluid: FluidState,
    dt: float,
    grid: PhaseGrid,
    eps: float,
    walls: tuple[np.ndarray, np.ndarray],
    work: KineticWork | None = None,
) -> tuple[KineticState, KineticStepReport]:
    """One Strang-split step of the full kinetic equation; walls are the
    scattering blocks (b_lo, b_hi) of wall_kernels and work the run's
    KineticWork (a fresh one when None), whose run constants are filled for
    (dt, eps) here. Between the sub-steps the state lives in work.f; the
    only phase-space array the kernels allocate is the returned state."""
    if work is None:
        work = KineticWork(grid)
    work.fill(dt, eps)
    half = 0.5 * dt
    scratch, speeds = work.scratch, work.speeds

    farr, tr_lo1, tr_hi1 = _transport_raw(f.f, grid, half, walls, out=work.f, scratch=scratch, speeds=speeds)
    # both drag half-steps see the same fluid velocity
    drag = _drag_constants(fluid.v, half, grid, out=(work.drift, work.upwind))
    farr, leak1 = _drag_raw(farr, fluid.v, half, grid, drag, out=farr, scratch=scratch)
    u = compute_moments(farr, grid, scratch[0][: farr.size].reshape(farr.shape)).u
    farr = _fp_raw(farr, u, dt, grid, eps, out=farr, work=work.reduction, rows=work.fp_rows)
    farr, leak2 = _drag_raw(farr, fluid.v, half, grid, drag, out=farr, scratch=scratch)
    farr, tr_lo2, tr_hi2 = _transport_raw(farr, grid, half, walls, scratch=scratch, speeds=speeds)
    rep = KineticStepReport(
        max_wall_flux=max(abs(tr_lo1), abs(tr_hi1), abs(tr_lo2), abs(tr_hi2)),
        truncation_leak=leak1 + leak2,
        cfl_transport=work.cfl_transport,
        cfl_drag=drag[0],
    )
    return KineticState(f=farr, t=f.t + dt), rep

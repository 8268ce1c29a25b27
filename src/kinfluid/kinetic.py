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
    any sub-step, the mass that left through the walls, (dt/2)(trace_lo +
    trace_hi) summed over the two transport half-steps, and the diagnostic
    leak through the velocity cut at +-v_max; and the CFL ratio of its drag
    half-steps, which move with the gas velocity. The transport's CFL ratio
    is the run constant KineticWork.cfl_transport."""

    max_wall_flux: float
    wall_outflow: float
    truncation_leak: float
    cfl_drag: float


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
    """The work arrays and run constants of kinetic_step for one grid and
    one run's (dt, eps), built once per run: the state between sub-steps,
    the drag's signed drift and its upwind mask, four flat scratch arrays
    that each sub-step's kernel runs in, and the relaxation's
    _kernels.CyclicReduction. Six arrays of nx*nv doubles and one of nx*nv
    booleans, the scratch ones a row longer for the transport's interface
    rows. The reduction's first level is the scratch arrays, where the
    relaxation assembles its matrix; its higher levels take about four
    arrays more, and the views of every level are built here, once. Between
    steps they hold nothing, and the moments and the entropy report of a
    sample run in them. Every phase-space array starts on a 64-byte
    boundary (_kernels.aligned_empty), so the kernels' speed does not depend
    on where the heap puts them.

    The run constants are the half-step length dt/2 (half), the transport
    half-step's CFL ratio and its Courant numbers xi*dt/(2 dx), one more
    flat nx*nv array with each row the same, and the relaxation's two
    velocity-factor rows (_fp_rows).
    Their checks run first: a CFLError for a transport CFL ratio above 1, a
    ValueError for an eps that is not positive and a SolverError when
    dt/(eps dv^2) overflows."""

    def __init__(self, grid: PhaseGrid, dt: float, eps: float):
        shape = (grid.nx, grid.nv)
        size = grid.nx * grid.nv
        half = 0.5 * dt
        self.cfl_transport = half * (grid.v_max - 0.5 * grid.dv) / grid.dx  # the largest cell-center speed
        if self.cfl_transport > CFL_SLACK:
            raise CFLError(f"transport CFL violated: dt*ximax/dx = {self.cfl_transport:g}")
        self.fp_rows = _fp_rows(dt, grid, eps)
        self.grid, self.dt, self.half = grid, dt, half
        self.speeds = _kernels.aligned_empty(size)
        np.copyto(self.speeds.reshape(shape), grid.xi * (half / grid.dx))
        self.f = _kernels.aligned_empty(shape)
        self.drift = _kernels.aligned_empty(shape)
        self.upwind = _kernels.aligned_empty(shape, bool)
        self.scratch = tuple(_kernels.aligned_empty(size + grid.nv) for _ in range(4))
        self.reduction = _kernels.CyclicReduction(grid.nx, grid.nv, self.scratch)


def _transport_raw(farr, walls, work, out):
    """Conservative upwind advection in x over half a step of work.dt, with
    the wall interfaces' incoming halves scattered by the blocks
    walls = (b_lo, b_hi) of wall_kernels; returns (f, trace_lo, trace_hi).
    The mass change equals -(dt/2)*(trace_lo + trace_hi) by conservative
    telescoping. The kernel runs in work.scratch with the Courant numbers
    work.speeds and writes out."""
    # each wall interface's incoming half is the boundary cell's outgoing
    # half scattered. The products are einsum's, not BLAS's: BLAS picks its
    # kernel by CPU at load time, and its kernels round the same product
    # differently
    b_lo, b_hi = walls
    nx, nv = farr.shape
    h = nv // 2
    in_lo = np.einsum("j,jk->k", farr[0, :h], b_lo)
    in_hi = np.einsum("j,jk->k", farr[-1, h:], b_hi)
    fnew = _kernels.upwind_transport(farr, work.speeds, in_lo, in_hi, out, work.scratch[:2])
    # the kernel's first and last interface rows are the upwind wall traces
    rows = work.scratch[0]
    trace_lo, trace_hi = _wall_traces(rows[:nv], rows[nx * nv : (nx + 1) * nv], work.grid)
    return fnew, trace_lo, trace_hi


def _drag_constants(fluid_v, work):
    """What the two drag half-steps of a step under fluid velocity v share,
    as (cfl, leak_weights): their CFL ratio, checked (a CFLError above 1),
    and per cell the outflow speeds max(v - xi_max, 0) and max(xi_min - v, 0)
    through the two velocity cuts. It writes the drift a = v - xi_{j+1/2}
    at the upper interface of each cell into work.drift, with its last
    column, the velocity cut, 0, and the mask a < 0 of the interfaces whose
    upwind value is the next cell's into work.upwind."""
    v = np.asarray(fluid_v, dtype=float)
    grid = work.grid
    edges = grid.xi_edges
    # the interior edges are symmetric about 0, so max |v - edge| over
    # them is max |v| plus the largest interior edge, in floating point too
    amax = float(np.abs(v).max()) + edges[-2]
    cfl = float(work.half * amax / grid.dv)
    if cfl > CFL_SLACK:
        raise CFLError(f"velocity-advection CFL violated: dt*|a|max/dv = {cfl:g}")
    # the per-cell v copied, then the per-velocity edges taken off in place:
    # one iterator buffer, where np.subtract.outer takes two
    a = work.drift
    np.copyto(a, v[:, None])
    a -= edges[1:]
    a[:, -1] = 0.0
    np.less(a, 0.0, out=work.upwind)
    return cfl, (np.maximum(v - edges[-1], 0.0), np.maximum(-(v - edges[0]), 0.0))


def _drag_raw(farr, leak_weights, work, out):
    """Upwind advection in velocity over half a step of work.dt with per-cell
    drift v - xi: through each interface the flux a f_up, the signed drift
    times the upwind value, with a and its upwind mask the ones
    _drag_constants wrote into work.drift and work.upwind.

    Zero flux is imposed at the velocity cut; the would-be outflow there,
    from _drag_constants' leak_weights, is returned as the suppressed-leak
    diagnostic (zero unless |v| exceeds v_max). The kernel runs in
    work.scratch and writes out, which may be farr."""
    half, grid = work.half, work.grid
    w_top, w_bot = leak_weights
    leak = half * grid.dx * grid.dv * float(np.sum(w_top * farr[:, -1] + w_bot * farr[:, 0]))
    fnew = _kernels.upwind_drag(farr, work.drift, work.upwind, half / grid.dv, out, work.scratch[:2])
    return fnew, leak


def _fp_rows(dt, grid, eps):
    """The velocity factors (lower, upper) of the relaxation's off-diagonals
    for a sub-step of dt at eps, two arrays of nv entries:
    -a exp(-dv xi_{j+1/2} / 2) and -a exp(+dv xi_{j+1/2} / 2) over the
    interior edges, with a = dt/(eps dv^2), each padded with its corner
    entry 0 (first and last). A ValueError for an eps that is not positive,
    a SolverError when a or a factor overflows."""
    if not eps > 0:  # written so that NaN fails too
        raise ValueError(f"eps must be positive, got {eps!r}")
    dv = grid.dv
    scale = eps * dv * dv  # 0 when eps is near the smallest double
    a = dt / scale if scale > 0.0 else math.inf
    if not math.isfinite(a):
        raise SolverError(f"relaxation coefficient dt/(eps dv^2) overflows at eps = {eps:g}")
    lower, upper = np.empty(grid.nv), np.empty(grid.nv)
    half = 0.5 * dv
    edges = grid.xi_edges[1:-1]
    lower[0] = 0.0
    with np.errstate(over="ignore"):  # a finite a times exp(dv xi / 2) may not be
        np.multiply(-a, np.exp(-half * edges), out=lower[1:])
        np.multiply(-a, np.exp(half * edges), out=upper[:-1])
    upper[-1] = 0.0
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise SolverError(f"relaxation coefficient a exp(dv xi / 2) overflows at eps = {eps:g}")
    return lower, upper


def _fp_raw(farr, u, work, out):
    """Backward-Euler solve of the velocity diffusion-drift relaxation over
    a step of work.dt toward the local Maxwellian M_{rho,u}, with u frozen
    over the sub-step.

    The interface weights are the geometric-mean fit to the local Maxwellian,
    so discrete Maxwellians with the given u are exact stationary states, the
    system matrix is an M-matrix (positivity) and its columns sum to one
    (exact per-cell mass conservation).

    The coefficients, from the velocity-factor rows work.fp_rows, are
    assembled in the level-0 arrays of work.reduction, the run's
    _kernels.CyclicReduction, which the solve then runs in; it writes out,
    which may be farr."""
    red = work.reduction
    lower, diag, upper = red.lower, red.diag, red.upper
    flat_l, flat_d, flat_u = (w.reshape(-1) for w in (lower, diag, upper))
    # exp(+-dv (xi_{j+1/2} - u) / 2) as the outer product of a spatial factor,
    # copied per cell as the drift is, and the velocity factor row applied
    # in place, which carries the factor -a and the zero corner entries
    # lower[:, 0] and upper[:, -1]
    lo_row, up_row = work.fp_rows
    half = 0.5 * work.grid.dv
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
    return _kernels.thomas_batch(lower, diag, upper, farr, out, red)


def kinetic_step(
    f: KineticState, fluid: FluidState, walls: tuple[np.ndarray, np.ndarray], work: KineticWork
) -> tuple[KineticState, KineticStepReport]:
    """One Strang-split step of the full kinetic equation, of the dt and at
    the eps that work, the run's KineticWork, was built for; walls are the
    scattering blocks (b_lo, b_hi) of wall_kernels. Between the sub-steps
    the state lives in work.f; the only phase-space array a step allocates
    is the returned state."""
    farr, tr_lo1, tr_hi1 = _transport_raw(f.f, walls, work, work.f)
    # both drag half-steps see the same fluid velocity
    cfl_drag, leak_weights = _drag_constants(fluid.v, work)
    farr, leak1 = _drag_raw(farr, leak_weights, work, farr)
    u = compute_moments(farr, work.grid, work.scratch[0][: farr.size].reshape(farr.shape)).u
    farr = _fp_raw(farr, u, work, farr)
    farr, leak2 = _drag_raw(farr, leak_weights, work, farr)
    farr, tr_lo2, tr_hi2 = _transport_raw(farr, walls, work, np.empty_like(farr))
    rep = KineticStepReport(
        max_wall_flux=max(abs(tr_lo1), abs(tr_hi1), abs(tr_lo2), abs(tr_hi2)),
        wall_outflow=work.half * (tr_lo1 + tr_hi1) + work.half * (tr_lo2 + tr_hi2),
        truncation_leak=leak1 + leak2,
        cfl_drag=cfl_drag,
    )
    return KineticState(f=farr, t=f.t + work.dt), rep

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
    any sub-step and the diagnostic leak through the velocity cut at +-v_max."""

    max_wall_flux: float = 0.0
    truncation_leak: float = 0.0


_WALL_TOL = 1e-12


def wall_kernels(boundary: str, grid: PhaseGrid, wall_temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """The (nv, nv) scattering matrices (k_lo, k_hi) of the two walls, which
    map a boundary cell's outgoing trace to its ghost row, f[0] @ k_lo and
    f[-1] @ k_hi (Cercignani 1988, ch. III): the velocity reversal on the
    incoming columns ("specular"), the rank-one dv |xi_out| (x) w with w the
    wall Maxwellian at unit incoming mass flux ("diffuse"), or zero
    ("dirichlet_zero", absorbing). Checked here, once: every non-absorbing
    kernel returns the outgoing mass flux (k @ |xi| = |xi| on the outgoing
    rows) and the diffuse one fixes its wall Maxwellian. k_hi is k_lo with
    both axes reversed, as xi[::-1] == -xi exactly."""
    xi = grid.xi
    out = xi < 0  # outgoing at the left wall, outward normal -1
    speed = np.abs(xi)
    k_lo = np.zeros((grid.nv, grid.nv))
    if boundary == "specular":
        incoming = np.flatnonzero(~out)
        k_lo[grid.nv - 1 - incoming, incoming] = 1.0
    elif boundary == "diffuse":
        if not wall_temperature > 0:
            raise ValueError("wall_temperature must be positive")
        with np.errstate(over="ignore"):  # a subnormal temperature gives mw = 0
            mw = np.exp(-0.5 * xi * xi / wall_temperature)
        z = grid.dv * float(np.sum(xi[~out] * mw[~out]))
        if not z > 0:
            raise ValueError(
                f"the diffuse wall Maxwellian at wall_temperature = {wall_temperature:g} "
                "underflows to zero on every incoming velocity"
            )
        k_lo = grid.dv * np.outer(np.where(out, speed, 0.0), np.where(out, 0.0, mw / z))
        # the wall Maxwellian's outgoing trace is re-emitted as itself
        err = float(np.max(np.abs(mw @ k_lo - mw)[~out]))
        if not err <= _WALL_TOL * float(mw.max()):
            raise ValueError(f"diffuse kernel does not fix the wall Maxwellian (error {err:g})")
    elif boundary != "dirichlet_zero":
        raise ValueError(f"boundary must be one of ('specular', 'diffuse', 'dirichlet_zero'), got {boundary!r}")
    if boundary != "dirichlet_zero":
        err = float(np.max(np.abs(k_lo @ speed - speed)[out]))
        if not err <= _WALL_TOL * grid.v_max:
            raise ValueError(f"{boundary} kernel does not return the outgoing mass flux (error {err:g})")
    return k_lo, np.ascontiguousarray(k_lo[::-1, ::-1])


def _wall_traces(farr, ghost_lo, ghost_hi, grid) -> tuple[float, float]:
    """Outward trace integrals int (xi.r) gamma_f dxi at the two walls,
    evaluated from the upwind interface values. Summed over mirror pairs so
    the specular identity cancels exactly in floating point."""
    xi = grid.xi
    up_lo = np.where(xi > 0, ghost_lo, farr[0])
    up_hi = np.where(xi > 0, farr[-1], ghost_hi)
    t_lo = xi * up_lo
    t_hi = xi * up_hi
    s_lo = 0.5 * grid.dv * float(np.sum(t_lo + t_lo[::-1]))
    s_hi = 0.5 * grid.dv * float(np.sum(t_hi + t_hi[::-1]))
    return -s_lo, s_hi


def _transport_raw(farr, grid, dt, walls):
    """Conservative upwind advection in x with wall ghost cells from the
    scattering matrices walls = (k_lo, k_hi) of wall_kernels; returns
    (f, trace_lo, trace_hi). The mass change equals
    -dt*(trace_lo + trace_hi) exactly (conservative telescoping)."""
    ximax = grid.v_max - 0.5 * grid.dv  # largest cell-center speed
    if dt * ximax / grid.dx > CFL_SLACK:
        raise CFLError(f"transport CFL violated: dt*ximax/dx = {dt * ximax / grid.dx:g}")
    k_lo, k_hi = walls
    ghost_lo = farr[0] @ k_lo
    ghost_hi = farr[-1] @ k_hi
    trace_lo, trace_hi = _wall_traces(farr, ghost_lo, ghost_hi, grid)
    fnew = _kernels.upwind_transport(farr, grid.xi, dt / grid.dx, ghost_lo, ghost_hi)
    return fnew, trace_lo, trace_hi


def _drag_raw(farr, fluid_v, dt, grid):
    """Upwind advection in velocity with per-cell drift v - xi.

    Zero flux is imposed at the velocity cut; the would-be outflow there is
    returned as the suppressed-leak diagnostic (zero unless |v| exceeds
    v_max)."""
    v = np.asarray(fluid_v, dtype=float)
    edges = grid.xi_edges
    # the interior edges are symmetric about 0, so max |v - edge| over
    # them is max |v| plus the largest interior edge, in floating point too
    amax = float(np.abs(v).max()) + edges[-2]
    if dt * amax / grid.dv > CFL_SLACK:
        raise CFLError(f"velocity-advection CFL violated: dt*|a|max/dv = {dt * amax / grid.dv:g}")
    a_bot = v - edges[0]
    a_top = v - edges[-1]
    leak = dt * grid.dx * grid.dv * float(
        np.sum(np.maximum(a_top, 0.0) * farr[:, -1] + np.maximum(-a_bot, 0.0) * farr[:, 0])
    )
    fnew = _kernels.upwind_drag(farr, v[:, None] - edges[None, :], dt / grid.dv)
    return fnew, leak


def _fp_raw(farr, u, dt, grid, eps):
    """Backward-Euler solve of the velocity diffusion-drift relaxation
    toward the local Maxwellian M_{rho,u}, with u frozen over the sub-step.

    The interface weights are the geometric-mean fit to the local Maxwellian,
    so discrete Maxwellians with the given u are exact stationary states, the
    system matrix is an M-matrix (positivity) and its columns sum to one
    (exact per-cell mass conservation).

    The coefficients are assembled velocity-major, (nv, nx), the layout the
    tridiagonal kernel works in, and passed as transposed views."""
    if not eps > 0:  # written so that NaN fails too
        raise ValueError(f"eps must be positive, got {eps!r}")
    dv = grid.dv
    scale = eps * dv * dv  # 0 when eps is near the smallest double
    a = dt / scale if scale > 0.0 else math.inf
    if not math.isfinite(a):
        raise SolverError(f"relaxation coefficient dt/(eps dv^2) overflows at eps = {eps:g}")
    # exp(+-dv (xi_{j+1/2} - u) / 2) as the outer product of a velocity factor
    # and a spatial factor, with the factor -a folded into the first
    half = 0.5 * dv
    edges = grid.xi_edges[1:-1]
    u = np.asarray(u, dtype=float)
    nx, nv = farr.shape
    lower = np.zeros((nv, nx))
    upper = np.zeros((nv, nx))
    np.multiply((-a * np.exp(-half * edges))[:, None], np.exp(half * u), out=lower[1:])
    np.multiply((-a * np.exp(half * edges))[:, None], np.exp(-half * u), out=upper[:-1])
    diag = np.ones((nv, nx))
    diag[:-1] -= lower[1:]
    diag[1:] -= upper[:-1]
    return _kernels.thomas_batch(lower.T, diag.T, upper.T, farr)


def kinetic_step(
    f: KineticState,
    fluid: FluidState,
    dt: float,
    grid: PhaseGrid,
    eps: float,
    walls: tuple[np.ndarray, np.ndarray],
) -> tuple[KineticState, KineticStepReport]:
    """One Strang-split step of the full kinetic equation; walls are the
    scattering matrices (k_lo, k_hi) of wall_kernels."""
    half = 0.5 * dt

    farr, tr_lo1, tr_hi1 = _transport_raw(f.f, grid, half, walls)
    farr, leak1 = _drag_raw(farr, fluid.v, half, grid)
    u = compute_moments(farr, grid).u
    farr = _fp_raw(farr, u, dt, grid, eps)
    farr, leak2 = _drag_raw(farr, fluid.v, half, grid)
    farr, tr_lo2, tr_hi2 = _transport_raw(farr, grid, half, walls)
    rep = KineticStepReport(
        max_wall_flux=max(abs(tr_lo1), abs(tr_hi1), abs(tr_lo2), abs(tr_hi2)),
        truncation_leak=leak1 + leak2,
    )
    return KineticState(f=farr, t=f.t + dt), rep

"""Time integration of the scaled kinetic equation with wall reflection kernels.

One full step is the Strang composition
    transport(dt/2) -> drag(dt/2) -> relaxation(dt) -> drag(dt/2) -> transport(dt/2)
where transport is conservative upwind advection in x, drag is conservative
upwind advection in velocity toward the fluid velocity, and the relaxation
step is an implicit, exponentially fitted diffusion-drift solve in velocity
whose discrete stationary states are exactly the discrete local Maxwellians.

Every sub-step preserves f >= 0 and conserves mass (transport up to the wall
flux it reports; the velocity-space steps exactly, by zero-flux cut-offs).
"""
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import CFLError, FluidState, KineticState, PhaseGrid, ScalingParams
from .moments import compute_moments, truncate_velocity

_CFL_SLACK = 1.0 + 1e-9


class Specular:
    """Mirror reflection: incoming trace copies the outgoing trace at -xi."""

    def __repr__(self):
        return "Specular()"


@dataclass(frozen=True)
class Diffuse:
    """Wall re-emission from a wall Maxwellian at the given temperature,
    normalized so the re-emitted mass flux equals the outgoing mass flux."""

    wall_temperature: float = 1.0

    def __post_init__(self):
        if not self.wall_temperature > 0:
            raise ValueError("wall_temperature must be positive")


@dataclass(frozen=True, eq=False)
class Dirichlet:
    """Prescribed incoming trace: g_left on xi > 0, g_right on xi < 0."""

    g_left: np.ndarray
    g_right: np.ndarray


BoundaryKernel = Specular | Diffuse | Dirichlet


@dataclass
class KineticStepReport:
    """Mass books for one step: the largest instantaneous wall trace seen in
    any sub-step and the velocity-truncation leak diagnostic."""

    max_wall_flux: float = 0.0
    truncation_leak: float = 0.0


def _diffuse_weights(bc: Diffuse, grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Re-emission weights per wall: w(xi) on the incoming columns with
    unit incoming mass flux. Checked here: unit flux normalization and
    invariance of the wall Maxwellian under the kernel."""
    xi = grid.xi
    mw = np.exp(-0.5 * xi * xi / bc.wall_temperature)
    inc_lo = xi > 0  # left wall, outward normal -1
    inc_hi = xi < 0
    z_lo = grid.dv * float(np.sum(xi[inc_lo] * mw[inc_lo]))
    z_hi = grid.dv * float(np.sum(-xi[inc_hi] * mw[inc_hi]))
    w_lo = np.where(inc_lo, mw / z_lo, 0.0)
    w_hi = np.where(inc_hi, mw / z_hi, 0.0)

    flux_lo = grid.dv * float(np.sum(xi[inc_lo] * w_lo[inc_lo]))
    flux_hi = grid.dv * float(np.sum(-xi[inc_hi] * w_hi[inc_hi]))
    if abs(flux_lo - 1.0) > 1e-12 or abs(flux_hi - 1.0) > 1e-12:
        raise ValueError("diffuse kernel failed flux normalization")
    # wall Maxwellian fixed point: re-emitting its outgoing flux returns it
    out_flux = grid.dv * float(np.sum(-xi[inc_hi] * mw[inc_hi]))
    err = np.max(np.abs(out_flux * w_lo[inc_lo] - mw[inc_lo]))
    if err > 1e-12 * float(mw.max()):
        raise ValueError("diffuse kernel does not fix the wall Maxwellian")
    return w_lo, w_hi


def _ghost_values(farr: np.ndarray, grid: PhaseGrid, bc: BoundaryKernel) -> tuple[np.ndarray, np.ndarray]:
    xi = grid.xi
    if isinstance(bc, Specular):
        # xi -> -xi is exactly index reversal on this grid
        return farr[0, ::-1].copy(), farr[-1, ::-1].copy()
    if isinstance(bc, Diffuse):
        w_lo, w_hi = _diffuse_weights(bc, grid)
        out_lo = grid.dv * float(np.sum(np.where(xi < 0, -xi, 0.0) * farr[0]))
        out_hi = grid.dv * float(np.sum(np.where(xi > 0, xi, 0.0) * farr[-1]))
        lo = np.where(xi > 0, out_lo * w_lo, farr[0])
        hi = np.where(xi < 0, out_hi * w_hi, farr[-1])
        return lo, hi
    if isinstance(bc, Dirichlet):
        if bc.g_left.shape != (grid.nv,) or bc.g_right.shape != (grid.nv,):
            raise ValueError("Dirichlet profiles must have nv entries")
        lo = np.where(xi > 0, bc.g_left, farr[0])
        hi = np.where(xi < 0, bc.g_right, farr[-1])
        return lo, hi
    raise TypeError(f"unsupported boundary kernel {bc!r}")


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


def _transport_raw(farr, grid, dt, bc):
    """Conservative upwind advection in x with wall ghost cells from bc;
    returns (f, trace_lo, trace_hi). The mass change equals
    -dt*(trace_lo + trace_hi) exactly (conservative telescoping)."""
    ximax = grid.v_max - 0.5 * grid.dv  # largest cell-center speed
    if dt * ximax / grid.dx > _CFL_SLACK:
        raise CFLError(f"transport CFL violated: dt*ximax/dx = {dt * ximax / grid.dx:g}")
    ghost_lo, ghost_hi = _ghost_values(farr, grid, bc)
    trace_lo, trace_hi = _wall_traces(farr, ghost_lo, ghost_hi, grid)
    fnew = _kernels.upwind_transport(farr, grid.xi, dt / grid.dx, ghost_lo, ghost_hi)
    return fnew, trace_lo, trace_hi


def _drag_raw(farr, fluid_v, dt, grid, s):
    """Upwind advection in velocity with per-cell drift chi(v) - xi.

    Zero flux is imposed at the velocity cut; the would-be outflow there is
    returned as the suppressed-leak diagnostic (zero unless |chi(v)| exceeds
    v_max)."""
    v_eff = truncate_velocity(np.asarray(fluid_v, dtype=float), s.chi_lambda)
    edges = grid.xi_edges
    # the interior edges are symmetric about 0, so max |v_eff - edge| over
    # them is max |v_eff| plus the largest interior edge, in floating point too
    amax = float(np.abs(v_eff).max()) + edges[-2]
    if dt * amax / grid.dv > _CFL_SLACK:
        raise CFLError(f"velocity-advection CFL violated: dt*|a|max/dv = {dt * amax / grid.dv:g}")
    a_bot = v_eff - edges[0]
    a_top = v_eff - edges[-1]
    leak = dt * grid.dx * grid.dv * float(
        np.sum(np.maximum(a_top, 0.0) * farr[:, -1] + np.maximum(-a_bot, 0.0) * farr[:, 0])
    )
    fnew = _kernels.upwind_drag(farr, v_eff[:, None] - edges[None, :], dt / grid.dv)
    return fnew, leak


def _fp_raw(farr, u, dt, grid, s):
    """Backward-Euler solve of the velocity diffusion-drift relaxation
    toward the local Maxwellian M_{rho,u}, with u frozen over the sub-step.

    The interface weights are the geometric-mean fit to the local Maxwellian,
    so discrete Maxwellians with the given u are exact stationary states, the
    system matrix is an M-matrix (positivity) and its columns sum to one
    (exact per-cell mass conservation).

    The coefficients are assembled velocity-major, (nv, nx), the layout the
    tridiagonal kernel works in, and passed as transposed views."""
    dv = grid.dv
    sdev = grid.xi_edges[1:-1, None] - np.asarray(u, dtype=float)[None, :]  # (nv-1, nx)
    a = dt / (s.eps * dv * dv)
    nx, nv = farr.shape
    lower = np.zeros((nv, nx))
    upper = np.zeros((nv, nx))
    np.exp(-0.5 * dv * sdev, out=lower[1:])
    np.exp(0.5 * dv * sdev, out=upper[:-1])
    lower *= -a
    upper *= -a
    diag = np.ones((nv, nx))
    diag[:-1] -= lower[1:]
    diag[1:] -= upper[:-1]
    return _kernels.thomas_batch(lower.T, diag.T, upper.T, farr)


def kinetic_step(
    f: KineticState,
    fluid: FluidState,
    dt: float,
    grid: PhaseGrid,
    s: ScalingParams,
    bc: BoundaryKernel,
) -> tuple[KineticState, KineticStepReport]:
    """One Strang-split step of the full kinetic equation."""
    half = 0.5 * dt

    farr, tr_lo1, tr_hi1 = _transport_raw(f.f, grid, half, bc)
    farr, leak1 = _drag_raw(farr, fluid.v, half, grid, s)
    u = compute_moments(farr, grid, s).u
    farr = _fp_raw(farr, u, dt, grid, s)
    farr, leak2 = _drag_raw(farr, fluid.v, half, grid, s)
    farr, tr_lo2, tr_hi2 = _transport_raw(farr, grid, half, bc)
    rep = KineticStepReport(
        max_wall_flux=max(abs(tr_lo1), abs(tr_hi1), abs(tr_lo2), abs(tr_hi2)),
        truncation_leak=leak1 + leak2,
    )
    return KineticState(f=farr, t=f.t + dt), rep

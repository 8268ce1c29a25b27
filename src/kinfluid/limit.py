"""Two-phase relaxation limit: isothermal particle gas coupled to the
isentropic viscous gas, plus a linearized fixed-point solve mode.

Direct mode advances the conservative system with Strang-split Rusanov
updates and one joint, exactly antisymmetric drag exchange per step.
The fixed-point mode freezes coefficients at the previous iterate and
integrates the resulting linear symmetric-hyperbolic/parabolic system with
first-order upwinding on its characteristic fields, reporting the L2 Cauchy
distance between consecutive iterates.
"""
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CFL_SLACK,
    CFLError,
    FluidState,
    PhaseGrid,
    PositivityError,
    SolverError,
    TwoPhaseState,
    VacuumError,
    quad_x,
    tridiag_dirichlet_solve,
)
from .fluid import N_FLOOR, gas_substep, rusanov_step


def euler_step(rho, u, dt, grid):
    """Isothermal Rusanov update of (rho, rho*u) with kinematic wall ghosts
    (mirror rho, negate u)."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    rho1, m1 = rusanov_step(rho, rho * u, dt, grid, lambda d: d, np.ones_like)
    if not float(rho1.min()) > N_FLOOR:
        raise VacuumError(f"particle density hit the vacuum floor (min {rho1.min():g})")
    return rho1, m1 / rho1


def drag_exchange(rho, u, n, v, dt):
    """Joint drag relaxation of the velocity gap with (rho, n) frozen:
    du/dt = v - u, dv/dt = -(rho/n)(v - u), integrated exactly over dt.
    The momenta applied to the two phases cancel to rounding."""
    rho = np.asarray(rho, dtype=float)
    n = np.asarray(n, dtype=float)
    w = np.asarray(v, dtype=float) - np.asarray(u, dtype=float)
    kappa = 1.0 + rho / n
    phi = -np.expm1(-kappa * dt) / kappa  # int_0^dt exp(-kappa s) ds
    du = w * phi
    dv = -(rho / n) * w * phi
    return u + du, v + dv


def _two_phase_substeps(st: TwoPhaseState, dt, grid):
    """Strang composition; returns the new state and the drag momenta
    actually applied to the particle and fluid phases."""
    half = 0.5 * dt
    fl = st.fluid
    rho, u = euler_step(st.rho, st.u, half, grid)
    n, v = gas_substep(fl.n, fl.v, half, grid, fl.gamma)
    u2, v2 = drag_exchange(rho, u, n, v, dt)
    dp_particle = quad_x(rho * (u2 - u), grid)
    dp_fluid = quad_x(n * (v2 - v), grid)
    n, v3 = gas_substep(n, v2, half, grid, fl.gamma)
    rho, u3 = euler_step(rho, u2, half, grid)

    new = TwoPhaseState(
        rho=rho,
        u=u3,
        fluid=FluidState(n=n, v=v3, gamma=fl.gamma),
        t=st.t + dt,
    )
    return new, dp_particle, dp_fluid


def two_phase_step(st: TwoPhaseState, dt: float, grid: PhaseGrid) -> TwoPhaseState:
    """One step of the coupled two-phase system."""
    new, _, _ = _two_phase_substeps(st, dt, grid)
    return new


# ---------------------------------------------------------------------------
# logarithmic-density reformulation and the linearized fixed-point solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymHypState:
    """Reformulated fields g = log(M*rho) with M = |domain|, h = n - 1,
    plus the two velocities."""

    g: np.ndarray
    u: np.ndarray
    h: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if not float(self.h.min()) > -1.0:
            raise PositivityError("1 + h must stay positive")


def to_symhyp(st: TwoPhaseState, grid: PhaseGrid) -> SymHypState:
    if not (float(st.rho.min()) > 0 and float(st.fluid.n.min()) > 0):
        raise PositivityError("to_symhyp needs positive densities")
    m = grid.length
    return SymHypState(
        g=np.log(m * st.rho),
        u=st.u.copy(),
        h=st.fluid.n - 1.0,
        v=st.fluid.v.copy(),
        t=st.t,
    )


def from_symhyp(sh: SymHypState, grid: PhaseGrid, gamma: float = 2.0) -> TwoPhaseState:
    if not float(sh.h.min()) > -1.0:
        raise PositivityError("from_symhyp needs 1 + h > 0")
    m = grid.length
    return TwoPhaseState(
        rho=np.exp(sh.g) / m,
        u=sh.u.copy(),
        fluid=FluidState(n=1.0 + sh.h, v=sh.v.copy(), gamma=gamma),
        t=sh.t,
    )


@dataclass(frozen=True)
class PicardSetup:
    """Fixed discretization shared by every iterate: same grid, horizon and dt."""

    grid: PhaseGrid
    t_final: float
    nt: int
    gamma: float = 2.0

    @property
    def dt(self) -> float:
        return self.t_final / self.nt


@dataclass(frozen=True, eq=False)
class PicardTrajectory:
    """Full-horizon trajectory of one iterate: arrays of shape (nt+1, nx)."""

    g: np.ndarray
    u: np.ndarray
    h: np.ndarray
    v: np.ndarray


@dataclass
class IterationReport:
    m: int
    cauchy_l2: float
    contraction_ratio: float = math.nan


def initial_trajectory(init: SymHypState, setup: PicardSetup) -> PicardTrajectory:
    """Iterate 0: the initial data held constant in time."""
    nt = setup.nt
    return PicardTrajectory(
        g=np.tile(init.g, (nt + 1, 1)),
        u=np.tile(init.u, (nt + 1, 1)),
        h=np.tile(init.h, (nt + 1, 1)),
        v=np.tile(init.v, (nt + 1, 1)),
    )


# time levels whose frozen coefficients picard_iterate builds in one
# vectorised pass; a block rather than the whole horizon keeps the working
# set (and the peak memory) independent of nt
_BLOCK = 16


def _upwind_coefficients(lam1, lam2, ratio):
    """Coefficients of the first-order characteristic upwinding of a
    frozen-coefficient 2x2 system with eigenvalues lam1/lam2 and eigenvectors
    (ratio, 1), (ratio, -1), for any number of levels at once.

    A+- = sum_k lam_k^{+-} P_k with P_1 = [[1, ratio],[1/ratio, 1]]/2 and
    P_2 = [[1, -ratio],[-1/ratio, 1]]/2; returns
    (sp, dpm*ratio, sm, dmm*ratio, dpm/ratio, dmm/ratio), the half sums and
    half differences of the positive and negative eigenvalue parts."""
    l1p, l1m = np.maximum(lam1, 0.0), np.minimum(lam1, 0.0)
    l2p, l2m = np.maximum(lam2, 0.0), np.minimum(lam2, 0.0)
    sp, dpm = 0.5 * (l1p + l2p), 0.5 * (l1p - l2p)
    sm, dmm = 0.5 * (l1m + l2m), 0.5 * (l1m - l2m)
    return sp, dpm * ratio, sm, dmm * ratio, dpm / ratio, dmm / ratio


def _upwind_increments(q1, q2, coef, r):
    """Advective increments of one level, already scaled by -r = -dt/dx, for
    both components; coef holds that level's rows of _upwind_coefficients.
    Ghosts: q1 mirrors evenly, q2 mirrors oddly."""
    sp, dpm_r, sm, dmm_r, dpm_over_r, dmm_over_r = coef
    q1p = np.concatenate(([q1[0]], q1, [q1[-1]]))
    q2p = np.concatenate(([-q2[0]], q2, [-q2[-1]]))
    dm1 = q1p[1:-1] - q1p[:-2]
    dp1 = q1p[2:] - q1p[1:-1]
    dm2 = q2p[1:-1] - q2p[:-2]
    dp2 = q2p[2:] - q2p[1:-1]
    inc1 = -r * (sp * dm1 + dpm_r * dm2 + sm * dp1 + dmm_r * dp2)
    inc2 = -r * (dpm_over_r * dm1 + sp * dm2 + dmm_over_r * dp1 + sm * dp2)
    return inc1, inc2


def _checked_sound_speed(big_h, um, vm, k0, setup):
    """Frozen gas sound speed of the levels k0, k0+1, ... whose rows are
    given, after the per-level checks in level order: at each level 1 + h > 0
    first, then the fixed-point CFL condition."""
    dt, dx, gamma = setup.dt, setup.grid.dx, setup.gamma
    positive = big_h.min(axis=1) > 0.0  # NaN fails
    n_ok = len(positive) if positive.all() else int(np.argmin(positive))
    c = np.sqrt(gamma * big_h[:n_ok] ** (gamma - 1.0))
    speed_v = (np.abs(vm[:n_ok]) + c).max(axis=1)
    speed_u = (np.abs(um[:n_ok]) + 1.0).max(axis=1)
    # max(speed_v, speed_u) as Python's max takes it, a NaN in speed_u ignored
    cfl = dt * np.where(speed_u > speed_v, speed_u, speed_v) / dx
    over = cfl > CFL_SLACK
    if over.any():
        raise CFLError(f"fixed-point CFL violated: {cfl[np.argmax(over)]:g}")
    if n_ok < len(positive):
        raise PositivityError(f"1 + h lost positivity at iterate level {k0 + n_ok}")
    return c


def picard_iterate(prev: PicardTrajectory, setup: PicardSetup) -> tuple[PicardTrajectory, IterationReport]:
    """Advance the linearized system over the whole horizon with every
    coefficient frozen at the previous iterate; report the sup-in-time L2
    distance to that iterate.

    The frozen coefficients depend on prev only, so they are built for a
    block of _BLOCK levels at a time; the march then loops over the levels
    of the block."""
    grid, dt, nt = setup.grid, setup.dt, setup.nt
    nx = grid.nx
    m_norm = grid.length
    r = dt / grid.dx

    g = np.empty((nt + 1, nx))
    u = np.empty((nt + 1, nx))
    h = np.empty((nt + 1, nx))
    v = np.empty((nt + 1, nx))
    g[0], u[0], h[0], v[0] = prev.g[0], prev.u[0], prev.h[0], prev.v[0]
    ones = np.ones(nx)

    for k0 in range(0, nt, _BLOCK):
        blk = slice(k0, min(k0 + _BLOCK, nt))
        gm, um, hm, vm = prev.g[blk], prev.u[blk], prev.h[blk], prev.v[blk]
        big_h = 1.0 + hm
        c = _checked_sound_speed(big_h, um, vm, k0, setup)
        # gas phase: frozen-coefficient quasilinear system in (h, v), with
        # the drag toward u explicit and the viscosity implicit
        gas = _upwind_coefficients(vm + c, vm - c, big_h / c)
        drag = dt * (np.exp(gm) / (m_norm * big_h) * (um - vm))
        visc = dt / (big_h * grid.dx**2)
        # particle phase: acoustic pair (g, u) advected by the frozen um,
        # relaxation toward v treated implicitly
        particle = _upwind_coefficients(um + 1.0, um - 1.0, 1.0)

        for j, k in enumerate(range(blk.start, blk.stop)):
            inc_h, inc_v = _upwind_increments(h[k], v[k], [a[j] for a in gas], r)
            h[k + 1] = h[k] + inc_h
            v_new = tridiag_dirichlet_solve(ones, visc[j], v[k] + inc_v + drag[j])
            v[k + 1] = v_new
            inc_g, inc_u = _upwind_increments(g[k], u[k], [a[j] for a in particle], r)
            g[k + 1] = g[k] + inc_g
            u[k + 1] = (u[k] + inc_u + dt * v_new) / (1.0 + dt)

    # sup over levels of the L2 distance: per level, the squared l2_distance
    # of each field, summed in field order
    dist = [
        np.sqrt(grid.dx * np.square(a - b).sum(axis=1)).tolist()
        for a, b in ((g, prev.g), (u, prev.u), (h, prev.h), (v, prev.v))
    ]
    cauchy = max([0.0] + [math.sqrt(dg**2 + du**2 + dh**2 + dv**2) for dg, du, dh, dv in zip(*dist)])
    return PicardTrajectory(g=g, u=u, h=h, v=v), IterationReport(m=-1, cauchy_l2=cauchy)


class PicardError(SolverError):
    """Fixed-point iterate `iterate` failed; carries the trajectory it
    started from, the last completed iterate (iterate 0 is the initial data
    held constant)."""

    def __init__(self, message: str, iterate: int, trajectory: PicardTrajectory):
        super().__init__(message)
        self.iterate = iterate
        self.trajectory = trajectory


def picard_solve(init: SymHypState, setup: PicardSetup, max_iter: int = 12):
    """Run max_iter fixed-point iterations from the constant-in-time iterate 0.

    Returns the last trajectory and the list of IterationReports with
    contraction ratios filled in; a failed iterate raises PicardError."""
    traj = initial_trajectory(init, setup)
    reports: list[IterationReport] = []
    for m in range(1, max_iter + 1):
        try:
            traj, rep = picard_iterate(traj, setup)
        except SolverError as exc:
            raise PicardError(str(exc), m, traj) from exc
        rep.m = m
        if reports and reports[-1].cauchy_l2 > 0:
            rep.contraction_ratio = rep.cauchy_l2 / reports[-1].cauchy_l2
        reports.append(rep)
    return traj, reports

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
    CFLError,
    FluidState,
    PhaseGrid,
    PositivityError,
    SolverError,
    TwoPhaseState,
    VacuumError,
    l2_distance,
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


def _upwind_2x2(q1, q2, lam1, lam2, ratio, grid, dt):
    """First-order characteristic upwinding of a frozen-coefficient 2x2
    system with eigenvalues lam1/lam2 and eigenvectors (ratio, 1), (ratio, -1).

    Returns the advective increment (already scaled by -dt/dx) for both
    components. Ghosts: q1 mirrors evenly, q2 mirrors oddly.
    """
    q1p = np.concatenate(([q1[0]], q1, [q1[-1]]))
    q2p = np.concatenate(([-q2[0]], q2, [-q2[-1]]))
    dm1 = q1p[1:-1] - q1p[:-2]
    dp1 = q1p[2:] - q1p[1:-1]
    dm2 = q2p[1:-1] - q2p[:-2]
    dp2 = q2p[2:] - q2p[1:-1]

    l1p, l1m = np.maximum(lam1, 0.0), np.minimum(lam1, 0.0)
    l2p, l2m = np.maximum(lam2, 0.0), np.minimum(lam2, 0.0)
    # projector combinations: A+- = sum_k lam_k^{+-} P_k with
    # P_1 = [[1, ratio],[1/ratio, 1]]/2, P_2 = [[1, -ratio],[-1/ratio, 1]]/2
    sp, dpm = 0.5 * (l1p + l2p), 0.5 * (l1p - l2p)
    sm, dmm = 0.5 * (l1m + l2m), 0.5 * (l1m - l2m)
    r = dt / grid.dx
    inc1 = -r * (sp * dm1 + dpm * ratio * dm2 + sm * dp1 + dmm * ratio * dp2)
    inc2 = -r * (dpm / ratio * dm1 + sp * dm2 + dmm / ratio * dp1 + sm * dp2)
    return inc1, inc2


def picard_iterate(prev: PicardTrajectory, setup: PicardSetup) -> tuple[PicardTrajectory, IterationReport]:
    """Advance the linearized system over the whole horizon with every
    coefficient frozen at the previous iterate; report the sup-in-time L2
    distance to that iterate."""
    grid, dt, nt, gamma = setup.grid, setup.dt, setup.nt, setup.gamma
    nx = grid.nx
    m_norm = grid.length

    g = np.empty((nt + 1, nx))
    u = np.empty((nt + 1, nx))
    h = np.empty((nt + 1, nx))
    v = np.empty((nt + 1, nx))
    g[0], u[0], h[0], v[0] = prev.g[0], prev.u[0], prev.h[0], prev.v[0]

    for k in range(nt):
        gm, um, hm, vm = prev.g[k], prev.u[k], prev.h[k], prev.v[k]
        big_h = 1.0 + hm
        if not float(big_h.min()) > 0.0:
            raise PositivityError(f"1 + h lost positivity at iterate level {k}")
        c = np.sqrt(gamma * big_h ** (gamma - 1.0))
        speed = float(np.max(np.abs(vm) + c))
        speed = max(speed, float(np.max(np.abs(um) + 1.0)))
        if dt * speed / grid.dx > 1.0 + 1e-9:
            raise CFLError(f"fixed-point CFL violated: {dt * speed / grid.dx:g}")

        # gas phase: frozen-coefficient quasilinear system in (h, v)
        inc_h, inc_v = _upwind_2x2(
            h[k], v[k], vm + c, vm - c, big_h / c, grid, dt
        )
        drag_gas = np.exp(gm) / (m_norm * big_h) * (um - vm)
        h_star = h[k] + inc_h
        v_star = v[k] + inc_v + dt * drag_gas
        v_new = tridiag_dirichlet_solve(
            np.ones(nx), dt / (big_h * grid.dx**2), v_star
        )
        h[k + 1] = h_star
        v[k + 1] = v_new

        # particle phase: acoustic pair (g, u) advected by the frozen um,
        # relaxation toward v treated implicitly
        inc_g, inc_u = _upwind_2x2(
            g[k], u[k], um + 1.0, um - 1.0, 1.0, grid, dt
        )
        g[k + 1] = g[k] + inc_g
        u[k + 1] = (u[k] + inc_u + dt * v_new) / (1.0 + dt)

    traj = PicardTrajectory(g=g, u=u, h=h, v=v)
    cauchy = 0.0
    for k in range(nt + 1):
        d2 = (
            l2_distance(g[k], prev.g[k], grid) ** 2
            + l2_distance(u[k], prev.u[k], grid) ** 2
            + l2_distance(h[k], prev.h[k], grid) ** 2
            + l2_distance(v[k], prev.v[k], grid) ** 2
        )
        cauchy = max(cauchy, math.sqrt(d2))
    return traj, IterationReport(m=-1, cauchy_l2=cauchy)


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

"""Two-phase relaxation limit: isothermal particle gas coupled to the
isentropic viscous gas, and the linearized fixed-point iteration of the
limit system's existence argument.

The limit runs march the conservative system directly, with Strang-split
Rusanov updates and one joint, exactly antisymmetric drag exchange per step.
The fixed-point iteration (picard_solve) is a library routine that no run
uses. Each iterate is one SymHypState whose fields are (nt+1, nx) stacks, a
row per time level of the whole horizon. An iteration freezes coefficients
at the previous iterate, integrates the resulting linear
symmetric-hyperbolic/parabolic system with first-order upwinding on its
characteristic fields, and returns the L2 Cauchy distance between
consecutive iterates; acceptance criterion 9 checks its contraction.
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
    dirichlet_elimination,
    quad_x,
    tridiag_dirichlet_solve,
)
from .fluid import N_FLOOR, gas_substep, rusanov_step, sound_speed


def euler_step(rho, u, dt, grid):
    """Isothermal (gamma = 1) Rusanov update of (rho, rho*u) with kinematic
    wall ghosts (mirror rho, negate u)."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    rho1, m1 = rusanov_step(rho, rho * u, dt, grid, 1.0)
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
    plus the two velocities, at one level (nx,) or as a stack of levels:
    a fixed-point iterate is the (nt+1, nx) stack of its whole horizon."""

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


@dataclass
class IterationReport:
    m: int
    cauchy_l2: float
    contraction_ratio: float = math.nan


# time levels whose frozen upwind coefficients picard_iterate builds in one
# vectorised pass; a block rather than the whole horizon keeps their twelve
# rows a level (six per phase) from growing with nt, where the viscous rows'
# elimination, three rows a level, is held for the whole horizon
_BLOCK = 16

# rows of a level of picard_iterate's march: h and g mirror evenly at the
# walls, v and u oddly; the first two rows pair with the last two as the
# (gas, particle) components of _upwind_increments
_ROWS = ("h", "g", "v", "u")
_GHOST_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _upwind_coefficients(lam1, lam2, ratio, out):
    """Coefficients of the first-order characteristic upwinding of a
    frozen-coefficient 2x2 system with eigenvalues lam1/lam2 and eigenvectors
    (ratio, 1), (ratio, -1), for any number of levels at once.

    A+- = sum_k lam_k^{+-} P_k with P_1 = [[1, ratio],[1/ratio, 1]]/2 and
    P_2 = [[1, -ratio],[-1/ratio, 1]]/2; writes
    (sp, dpm*ratio, sm, dmm*ratio, dpm/ratio, dmm/ratio), the half sums and
    half differences of the positive and negative eigenvalue parts, into
    out[0], ..., out[5]."""
    l1p, l1m = np.maximum(lam1, 0.0), np.minimum(lam1, 0.0)
    l2p, l2m = np.maximum(lam2, 0.0), np.minimum(lam2, 0.0)
    dpm, dmm = 0.5 * (l1p - l2p), 0.5 * (l1m - l2m)
    np.multiply(0.5, l1p + l2p, out=out[0])
    np.multiply(dpm, ratio, out=out[1])
    np.multiply(0.5, l1m + l2m, out=out[2])
    np.multiply(dmm, ratio, out=out[3])
    np.divide(dpm, ratio, out=out[4])
    np.divide(dmm, ratio, out=out[5])


def _upwind_increments(pad, coef, r):
    """Advective increments of one level of both phases, already scaled by
    -r = -dt/dx. pad is the level's ghosted (4, nx+2) rows h, g, v, u; coef
    is that level's (6, 2, nx) rows of _upwind_coefficients, gas first.
    Returns the (2, nx) increments of (h, g) and of (v, u)."""
    sp, dpm_r, sm, dmm_r, dpm_over_r, dmm_over_r = coef
    dm = pad[:, 1:-1] - pad[:, :-2]
    dp = pad[:, 2:] - pad[:, 1:-1]
    dm1, dm2, dp1, dp2 = dm[:2], dm[2:], dp[:2], dp[2:]
    inc1 = -r * (sp * dm1 + dpm_r * dm2 + sm * dp1 + dmm_r * dp2)
    inc2 = -r * (dpm_over_r * dm1 + sp * dm2 + dmm_over_r * dp1 + sm * dp2)
    return inc1, inc2


def _positive_levels(big_h):
    """The number of leading levels of big_h = 1 + h that are positive
    (a NaN is not)."""
    positive = big_h.min(axis=1) > 0.0
    return len(positive) if positive.all() else int(np.argmin(positive))


def _checked_sound_speed(big_h, um, vm, k0, setup):
    """Frozen gas sound speed of the levels k0, k0+1, ... whose rows are
    given, after the per-level checks in level order: at each level 1 + h > 0
    first, then the fixed-point CFL condition."""
    dt, dx, gamma = setup.dt, setup.grid.dx, setup.gamma
    n_ok = _positive_levels(big_h)
    c = sound_speed(big_h[:n_ok], gamma)
    speed_v = (np.abs(vm[:n_ok]) + c).max(axis=1)
    speed_u = (np.abs(um[:n_ok]) + 1.0).max(axis=1)
    # max(speed_v, speed_u) as Python's max takes it, a NaN in speed_u ignored
    cfl = dt * np.where(speed_u > speed_v, speed_u, speed_v) / dx
    over = cfl > CFL_SLACK
    if over.any():
        i = int(np.argmax(over))
        raise CFLError(f"fixed-point CFL violated at iterate level {k0 + i}: {cfl[i]:g}")
    if n_ok < len(big_h):
        raise PositivityError(f"1 + h lost positivity at iterate level {k0 + n_ok}")
    return c


def picard_iterate(prev: SymHypState, setup: PicardSetup) -> tuple[SymHypState, float]:
    """Advance the linearized system over the whole horizon with every
    coefficient frozen at the previous iterate, an (nt+1, nx) stack; return
    the new stack and its sup-in-time L2 distance to the previous one.

    The frozen coefficients depend on prev only. So the gas's implicit
    viscous rows of all levels are eliminated in one stacked pass before the
    first level, and each level only substitutes its right-hand side. The
    other coefficients are built, and the levels checked, for a block of
    _BLOCK levels at a time; the march then loops over the levels of the
    block, advancing both phases of a level in one pass over its ghosted
    rows. A non-finite level is a SolverError."""
    grid, dt, nt = setup.grid, setup.dt, setup.nt
    nx = grid.nx
    m_norm = grid.length
    r = dt / grid.dx

    # level k of the new iterate is traj[k], its rows in _ROWS order with a
    # ghost cell at each end; the returned fields are views of the interior
    traj = np.empty((nt + 1, 4, nx + 2))
    interior = traj[:, :, 1:-1]
    for i, name in enumerate(_ROWS):
        interior[0, i] = getattr(prev, name)[0]
    big_h_all = 1.0 + prev.h[:nt]
    # the gas's implicit unit viscosity, one Dirichlet row per level: rows up
    # to the first level whose 1 + h is not positive, where the checks of
    # its block stop the march
    n_pos = _positive_levels(big_h_all)
    visc = dirichlet_elimination(np.ones(nx), dt / (big_h_all[:n_pos] * grid.dx**2))
    # the six coefficients of each level of a block, gas row then particle row
    coef = np.empty((6, min(_BLOCK, nt), 2, nx))

    for k0 in range(0, nt, _BLOCK):
        blk = slice(k0, min(k0 + _BLOCK, nt))
        gm, um, vm, big_h = prev.g[blk], prev.u[blk], prev.v[blk], big_h_all[blk]
        c = _checked_sound_speed(big_h, um, vm, k0, setup)
        nb = len(big_h)
        # gas phase: frozen-coefficient quasilinear system in (h, v), with
        # the drag toward u explicit
        _upwind_coefficients(vm + c, vm - c, big_h / c, coef[:, :nb, 0])
        drag = dt * (np.exp(gm) / (m_norm * big_h) * (um - vm))
        # particle phase: acoustic pair (g, u) advected by the frozen um,
        # relaxation toward v treated implicitly
        _upwind_coefficients(um + 1.0, um - 1.0, 1.0, coef[:, :nb, 1])

        for j, k in enumerate(range(blk.start, blk.stop)):
            pad, old, new = traj[k], interior[k], interior[k + 1]
            pad[:, 0] = _GHOST_SIGN * pad[:, 1]
            pad[:, -1] = _GHOST_SIGN * pad[:, -2]
            inc1, inc2 = _upwind_increments(pad, coef[:, j], r)
            np.add(old[:2], inc1, out=new[:2])
            v_new = tridiag_dirichlet_solve(visc[k], old[2] + inc2[0] + drag[j])
            new[2] = v_new
            new[3] = (old[3] + inc2[1] + dt * v_new) / (1.0 + dt)

    fields = {name: interior[:, i] for i, name in enumerate(_ROWS)}
    # sup over levels of the L2 distance: per level, the squared l2_distance
    # of each field, summed in field order
    dist = [
        np.sqrt(grid.dx * np.square(fields[name] - getattr(prev, name)).sum(axis=1)).tolist()
        for name in ("g", "u", "h", "v")
    ]
    levels = [math.sqrt(dg**2 + du**2 + dh**2 + dv**2) for dg, du, dh, dv in zip(*dist)]
    finite = np.isfinite(levels)
    if not finite.all():
        raise SolverError(f"fixed-point iterate is not finite at level {int(np.argmin(finite))}")
    return SymHypState(**fields), max(levels)


def picard_solve(init: SymHypState, setup: PicardSetup, max_iter: int = 12):
    """Run max_iter fixed-point iterations from iterate 0, the initial level
    init held constant in time.

    Returns the last iterate's (nt+1, nx) stack and the list of
    IterationReports with contraction ratios filled in; a failed iterate's
    CFLError, PositivityError or SolverError propagates."""
    traj = SymHypState(*(np.tile(a, (setup.nt + 1, 1)) for a in (init.g, init.u, init.h, init.v)))
    reports: list[IterationReport] = []
    for m in range(1, max_iter + 1):
        traj, cauchy = picard_iterate(traj, setup)
        rep = IterationReport(m=m, cauchy_l2=cauchy)
        if reports and reports[-1].cauchy_l2 > 0:
            rep.contraction_ratio = cauchy / reports[-1].cauchy_l2
        reports.append(rep)
    return traj, reports

"""Compressible isentropic gas solver with no-slip walls and a drag source.

The hyperbolic part is a local Lax-Friedrichs (Rusanov) finite-volume update
of (n, n v) with reflective wall ghosts (mirror density, negated momentum),
which makes the wall mass flux vanish identically. The same update at
gamma = 1 (p = n, sound speed 1) is the isothermal particle gas of the limit
system. Viscosity (mu = 1) is an implicit Dirichlet solve for v; the drag
source relaxes v toward a given carrier velocity implicitly.
"""
import numpy as np

from .core import (
    CFL_SLACK,
    CFLError,
    FluidState,
    PhaseGrid,
    VacuumError,
    dirichlet_elimination,
    tridiag_dirichlet_solve,
)

N_FLOOR = 1e-10


def pressure(n: np.ndarray, gamma: float) -> np.ndarray:
    """Isentropic pressure n**gamma."""
    n = np.asarray(n, dtype=float)
    if np.any(n <= 0):
        raise VacuumError("pressure needs positive density")
    return n**gamma


def sound_speed(n: np.ndarray, gamma: float) -> np.ndarray:
    return np.sqrt(gamma * np.asarray(n, dtype=float) ** (gamma - 1.0))


def rusanov_step(dens, mom, dt, grid, gamma):
    """One conservative Rusanov update of (density, momentum) of the gas
    p = density**gamma, with mirror-density / negated-momentum wall ghosts
    (zero wall mass flux)."""
    d = np.concatenate(([dens[0]], dens, [dens[-1]]))
    m = np.concatenate(([-mom[0]], mom, [-mom[-1]]))
    u = m / d
    p = pressure(d, gamma)
    c = sound_speed(d, gamma)
    speed = np.abs(u) + c
    if dt * float(speed[1:-1].max()) / grid.dx > CFL_SLACK:
        raise CFLError(f"hyperbolic CFL violated: {dt * speed[1:-1].max() / grid.dx:g}")
    f1 = m
    f2 = m * u + p
    a = np.maximum(speed[:-1], speed[1:])
    flux1 = 0.5 * (f1[:-1] + f1[1:]) - 0.5 * a * (d[1:] - d[:-1])
    flux2 = 0.5 * (f2[:-1] + f2[1:]) - 0.5 * a * (m[1:] - m[:-1])
    r = dt / grid.dx
    dens_new = dens - r * (flux1[1:] - flux1[:-1])
    mom_new = mom - r * (flux2[1:] - flux2[:-1])
    return dens_new, mom_new


def gas_substep(n, v, dt, grid: PhaseGrid, gamma: float):
    """One gas sub-step without drag: the Rusanov update to (n1, m1), the
    vacuum check, then the implicit unit-viscosity solve n1*v1 - dt*Lap(v1) = m1
    with v1 = 0 at the walls. Returns (n1, v1)."""
    n1, m1 = rusanov_step(n, n * v, dt, grid, gamma)
    if not float(n1.min()) > N_FLOOR:
        raise VacuumError(f"fluid density hit the vacuum floor (min {n1.min():g})")
    v1 = tridiag_dirichlet_solve(dirichlet_elimination(n1, dt / grid.dx**2), m1)
    return n1, v1


def ns_step(fl: FluidState, drag_rho, drag_u, dt: float, grid: PhaseGrid) -> FluidState:
    """Operator-split step: gas_substep, then the implicit drag source
    n v <- n v + dt*drag_rho*(drag_u - v)."""
    n1, v2 = gas_substep(fl.n, fl.v, dt, grid, fl.gamma)
    drag_rho = np.asarray(drag_rho, dtype=float)
    drag_u = np.asarray(drag_u, dtype=float)
    v3 = (n1 * v2 + dt * drag_rho * drag_u) / (n1 + dt * drag_rho)
    return FluidState(n=n1, v=v3, gamma=fl.gamma)


def dirichlet_grad_sq(v: np.ndarray, grid: PhaseGrid) -> float:
    """Discrete int |dv/dx|^2 with the mirror-negated wall ghost convention,
    matched to the implicit viscous solve so the viscous sub-step dissipates
    exactly this quantity."""
    v = np.asarray(v, dtype=float)
    d = np.diff(v)
    return float((np.sum(d * d) + 2.0 * v[0] ** 2 + 2.0 * v[-1] ** 2) / grid.dx)

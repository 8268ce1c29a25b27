"""Velocity moments of f and the local Maxwellian: the kinetic-fluid bridge."""
import math
from dataclasses import dataclass

import numpy as np

from .core import KineticState, PhaseGrid, ScalingParams, quad_v


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Zeroth/first moments and regularized bulk velocity, one value per
    spatial cell."""

    rho: np.ndarray
    mom: np.ndarray
    u: np.ndarray


def compute_moments(f: KineticState | np.ndarray, grid: PhaseGrid, s: ScalingParams) -> MomentSet:
    farr = f.f if isinstance(f, KineticState) else np.asarray(f)
    rho = quad_v(farr, grid)
    mom = quad_v(farr * grid.xi, grid)
    if s.vel_floor > 0.0:
        u = mom / (rho + s.vel_floor)
    else:
        u = np.divide(mom, rho, out=np.zeros_like(mom), where=rho > 0)
    return MomentSet(rho=rho, mom=mom, u=u)


def maxwellian_profile(rho: np.ndarray, u: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Raw (nx, nv) array of the local Maxwellian rho*(2*pi)^(-d/2)*exp(-|xi-u|^2/2)."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    norm = (2.0 * math.pi) ** (-0.5 * grid.dim)
    dev = grid.xi[None, :] - u[:, None]
    return rho[:, None] * norm * np.exp(-0.5 * dev * dev)


def maxwellian(rho: np.ndarray, u: np.ndarray, grid: PhaseGrid, t: float = 0.0) -> KineticState:
    """Local Maxwellian evaluated at cell centers."""
    if np.any(np.asarray(rho) < 0):
        raise ValueError("rho must be nonnegative")
    return KineticState(f=maxwellian_profile(rho, u, grid), t=t)


def truncate_velocity(u: np.ndarray, lam: float) -> np.ndarray:
    """Zero out entries with |u| > lam; inf lam is the identity."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    u = np.asarray(u)
    if math.isinf(lam):
        return u.copy()
    return np.where(np.abs(u) <= lam, u, 0.0)

"""Velocity moments of f and the local Maxwellian: the kinetic-fluid bridge."""
import math
from dataclasses import dataclass

import numpy as np

from .core import KineticState, PhaseGrid, quad_v


# regularizes the bulk velocity u = mom / (rho + _VEL_FLOOR) in near-vacuum cells
_VEL_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Zeroth/first moments and regularized bulk velocity, one value per
    spatial cell."""

    rho: np.ndarray
    mom: np.ndarray
    u: np.ndarray


def compute_moments(f: KineticState | np.ndarray, grid: PhaseGrid) -> MomentSet:
    farr = f.f if isinstance(f, KineticState) else np.asarray(f)
    rho = quad_v(farr, grid)
    mom = quad_v(farr * grid.xi, grid)
    return MomentSet(rho=rho, mom=mom, u=mom / (rho + _VEL_FLOOR))


_MAXWELLIAN_NORM = (2.0 * math.pi) ** -0.5  # 1-D velocity space


def maxwellian_profile(rho: np.ndarray, u: np.ndarray, grid: PhaseGrid) -> np.ndarray:
    """Raw (nx, nv) array of the local Maxwellian rho*(2*pi)^(-1/2)*exp(-|xi-u|^2/2)."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    dev = grid.xi[None, :] - u[:, None]
    return rho[:, None] * _MAXWELLIAN_NORM * np.exp(-0.5 * dev * dev)


def maxwellian(rho: np.ndarray, u: np.ndarray, grid: PhaseGrid) -> KineticState:
    """Local Maxwellian evaluated at cell centers."""
    if np.any(np.asarray(rho) < 0):
        raise ValueError("rho must be nonnegative")
    return KineticState(f=maxwellian_profile(rho, u, grid))

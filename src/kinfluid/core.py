"""Grids, state containers, quadrature and norms shared by all solvers.

All containers are treated as immutable values: solvers return new states
and never mutate their inputs, so states are safe to share across threads.
Reductions use numpy's fixed left-to-right pairwise summation, independent
of thread count.
"""
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SolverError(RuntimeError):
    """A time step could not be completed."""


class CFLError(SolverError):
    """A stability precondition on dt was violated."""


class VacuumError(SolverError):
    """A fluid density fell below the vacuum floor."""


class PositivityError(SolverError):
    """A positivity invariant (f >= 0 or 1+h > 0) was lost."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# Every CFL check accepts a ratio up to this, so a dt computed as cfl * bound
# with cfl = 1 is not rejected for its last bits of rounding.
CFL_SLACK = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Uniform slab x position grid times symmetric velocity grid.

    The spatial domain is [x_lo, x_hi] with outward normals -1 / +1 at the
    two walls; velocities span [-v_max, v_max]. nv must be even so that
    xi -> -xi maps cell centers onto cell centers exactly.
    """

    nx: int
    nv: int
    x_lo: float = 0.0
    x_hi: float = 1.0
    v_max: float = 8.0

    def __post_init__(self):
        if self.nx < 1:
            raise ValueError("nx must be positive")
        if self.nv < 2 or self.nv % 2 != 0:
            raise ValueError("nv must be a positive even integer")
        if not self.x_hi > self.x_lo:
            raise ValueError("need x_hi > x_lo")
        if not self.v_max > 0:
            raise ValueError("v_max must be positive")
        if not max(self.dx, self.dv) < 1e150:
            raise ValueError("cell widths must stay below 1e150 (the solvers square them)")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.v_max / self.nv

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    @cached_property
    def x(self) -> np.ndarray:
        """Spatial cell centers."""
        return self.x_lo + (np.arange(self.nx) + 0.5) * self.dx

    @cached_property
    def xi(self) -> np.ndarray:
        """Velocity cell centers, built from one half and mirrored so that
        xi[::-1] == -xi holds exactly in floating point for any v_max."""
        pos = (np.arange(self.nv // 2) + 0.5) * self.dv
        return np.concatenate((-pos[::-1], pos))

    @cached_property
    def xi_edges(self) -> np.ndarray:
        pos = np.arange(1, self.nv // 2 + 1) * self.dv
        return np.concatenate((-pos[::-1], [0.0], pos))


_NEG_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class KineticState:
    """Nonnegative phase-space number density f(x, xi) at one time."""

    f: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.f.ndim != 2:
            raise ValueError("f must be a 2-D (nx, nv) array")
        # written as "not >=" so that NaN entries fail the check too
        fmin = float(self.f.min(initial=0.0))
        if not fmin >= -_NEG_TOL * max(1.0, float(self.f.max(initial=0.0))):
            raise PositivityError(f"kinetic density has negative or NaN entries (min {fmin:g})")


@dataclass(frozen=True, eq=False)
class FluidState:
    """Isentropic-gas fields (n, v) with pressure n**gamma and unit viscosity."""

    n: np.ndarray
    v: np.ndarray
    gamma: float = 2.0

    def __post_init__(self):
        if self.n.shape != self.v.shape:
            raise ValueError("n and v must share a shape")
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")
        if not float(self.n.min()) > 0.0:
            raise VacuumError(f"fluid density must be positive (min {self.n.min():g})")


@dataclass(frozen=True, eq=False)
class TwoPhaseState:
    """Relaxed two-phase fields: particle phase (rho, u) + fluid phase."""

    rho: np.ndarray
    u: np.ndarray
    fluid: FluidState
    t: float = 0.0

    def __post_init__(self):
        if self.rho.shape != self.u.shape or self.rho.shape != self.fluid.n.shape:
            raise ValueError("rho, u and fluid fields must share a shape")
        if not float(self.rho.min()) > 0.0:
            raise VacuumError(f"particle density must be positive (min {self.rho.min():g})")


def quad_v(field: np.ndarray, grid: PhaseGrid) -> np.ndarray | float:
    """Midpoint quadrature over the velocity axis (last axis).

    1-D input returns a float; a phase-space array returns one value per
    spatial cell.
    """
    field = np.asarray(field)
    if field.shape[-1] != grid.nv:
        raise ValueError(f"last axis must have nv={grid.nv} entries")
    out = grid.dv * field.sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def quad_x(field: np.ndarray, grid: PhaseGrid) -> float:
    """Midpoint quadrature over the spatial grid."""
    field = np.asarray(field)
    if field.shape[0] != grid.nx:
        raise ValueError(f"first axis must have nx={grid.nx} entries")
    return float(grid.dx * field.sum())


def phase_mass(f: np.ndarray, grid: PhaseGrid) -> float:
    """Total mass of a phase-space density."""
    return quad_x(quad_v(f, grid), grid)


def _weighted_gap(a: np.ndarray, b: np.ndarray, grid: PhaseGrid) -> tuple[float, np.ndarray]:
    """The quadrature weight of two fields of one shape, 1-D (spatial) or 2-D
    (phase space), and their difference a - b."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim not in (1, 2):
        raise ValueError("fields must be 1-D (spatial) or 2-D (phase space)")
    return (grid.dx if a.ndim == 1 else grid.dx * grid.dv), a - b


def l1_distance(a: np.ndarray, b: np.ndarray, grid: PhaseGrid) -> float:
    weight, d = _weighted_gap(a, b, grid)
    return float(weight * np.abs(d).sum())


def l2_distance(a: np.ndarray, b: np.ndarray, grid: PhaseGrid) -> float:
    weight, d = _weighted_gap(a, b, grid)
    return float(math.sqrt(weight * float((d * d).sum())))


def tridiag_dirichlet_solve(diag_add: np.ndarray, coeff: np.ndarray | float, rhs: np.ndarray) -> np.ndarray:
    """Solve diag_add[i]*v_i - coeff_i*(v_{i+1} - 2 v_i + v_{i-1}) = rhs_i with
    homogeneous Dirichlet walls realized by mirror-negated ghost cells
    (v_{-1} = -v_0, v_n = -v_{n-1}), i.e. v = 0 at both wall faces.

    coeff may be a scalar or a per-row array.

    One row is solved by the Thomas recurrence over Python floats, which for
    a single row of a few hundred unknowns costs less than any vectorised
    kernel's per-call overhead. With diag_add > 0 and coeff >= 0 the matrix
    is strictly diagonally dominant, so the recurrence needs no pivoting
    (Higham 2002, sec. 9.5): every pivot m_i is at least diag_add[i] and every
    multiplier w_i = coeff_i / m_i lies in [0, 1).
    """
    n = rhs.shape[0]
    coeff = np.broadcast_to(np.asarray(coeff, dtype=float), (n,))
    diag = diag_add + 2.0 * coeff
    diag[0] += coeff[0]
    diag[-1] += coeff[-1]
    # forward elimination of the sub-diagonal -coeff_i: pivot m_i, upper
    # multiplier w_i and eliminated right-hand side y_i
    w_prev = y_prev = 0.0
    w, y = [], []
    for d_i, c_i, r_i in zip(diag.tolist(), coeff.tolist(), rhs.tolist()):
        m_i = d_i - c_i * w_prev
        w_prev = c_i / m_i
        y_prev = (r_i + c_i * y_prev) / m_i
        w.append(w_prev)
        y.append(y_prev)
    # back substitution v_i = y_i + w_i v_{i+1}, from v_{n-1} = y_{n-1}
    v_next = y_prev
    v = [v_next]
    for w_i, y_i in zip(reversed(w[:-1]), reversed(y[:-1])):
        v_next = y_i + w_i * v_next
        v.append(v_next)
    return np.array(v[::-1])

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
        # so dx^2 and dv^2 are normal floats, and dt / ((1 + h) dx^2) stays finite
        if not (min(self.dx, self.dv) >= 1e-150 and max(self.dx, self.dv) < 1e150):
            raise ValueError("cell widths must lie in [1e-150, 1e150): the solvers square them")

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
        # written as "not >=" so that NaN entries fail the check too; the
        # tolerance scales with max f, read only when some entry is below 0,
        # and an infinite max f leaves no tolerance
        fmin = float(self.f.min(initial=0.0))
        if not fmin >= 0.0:
            fmax = float(self.f.max(initial=0.0))
            if not (math.isfinite(fmax) and fmin >= -_NEG_TOL * max(1.0, fmax)):
                raise PositivityError(f"kinetic density has negative or NaN entries (min {fmin:g}, max {fmax:g})")


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
    """Relaxed two-phase fields: particle phase (rho, u) + fluid phase, at
    one level (nx,) or as a stack of levels (K, nx)."""

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


def quad_x(field: np.ndarray, grid: PhaseGrid) -> np.ndarray | float:
    """Midpoint quadrature over the spatial axis (last axis).

    1-D input returns a float; a (K, nx) stack of levels returns one value
    per level, each with the bits of that level's own quadrature.
    """
    field = np.asarray(field)
    if field.shape[-1] != grid.nx:
        raise ValueError(f"last axis must have nx={grid.nx} entries")
    out = grid.dx * field.sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


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


def dirichlet_elimination(diag_add: np.ndarray, coeff: np.ndarray | float):
    """Forward elimination of the row(s) diag_add[i]*v_i - coeff_i*(v_{i+1} -
    2 v_i + v_{i-1}) = rhs_i with homogeneous Dirichlet walls realized by
    mirror-negated ghost cells (v_{-1} = -v_0, v_n = -v_{n-1}), i.e. v = 0 at
    both wall faces; tridiag_dirichlet_solve substitutes a right-hand side.

    diag_add is one row (n,) or a stack (k, n); coeff is a scalar, an (n,)
    row or a (k, n) stack; any other shape is a ValueError. The elimination
    of the Thomas recurrence (Higham 2002, sec. 9.5) does not read the
    right-hand side: pivot m_i = d_i - coeff_i w_{i-1} and upper multiplier
    w_i = coeff_i / m_i of the sub-diagonal -coeff_i. With diag_add > 0 and
    coeff >= 0 the matrix is strictly diagonally dominant, so it needs no
    pivoting: every m_i is at least diag_add[i] and every w_i lies in [0, 1).

    One row runs the recurrence over Python floats, which for a few hundred
    unknowns costs less than any vectorised kernel's per-call overhead, and
    returns the lists (coeff, m, w). A stack runs the same loop body over
    numpy columns, with Python float semantics for inf and NaN, and returns
    a (k, 3, n) array whose row j holds the bits of row j's own elimination.
    """
    diag_add = np.asarray(diag_add, dtype=float)
    coeff = np.asarray(coeff, dtype=float)
    n = diag_add.shape[-1]
    if diag_add.ndim not in (1, 2) or coeff.ndim > 2 or coeff.shape[-1:] not in ((), (n,)):
        raise ValueError(f"need diag_add of shape (n,) or (k, n) and a scalar, (n,) or (k, n) coeff,"
                         f" not {diag_add.shape} and {coeff.shape}")
    diag = diag_add + 2.0 * coeff
    if diag.ndim == 1:
        c = coeff.tolist()
        if coeff.ndim == 0:
            c = [c] * n
        d = diag.tolist()
        d[0] += c[0]
        d[-1] += c[-1]
        return (c, *_eliminate(zip(d, c)))
    c = np.broadcast_to(coeff, diag.shape)
    diag[:, 0] += c[:, 0]
    diag[:, -1] += c[:, -1]
    # inf and NaN pass through silently, as they do in Python float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        m, w = _eliminate(zip(diag.T, c.T))
    return np.stack((c, np.array(m).T, np.array(w).T), axis=1)


def _eliminate(columns):
    """The Thomas recurrence's elimination over (d_i, coeff_i) pairs of
    Python floats or of numpy columns: the lists of pivots and multipliers."""
    m, w = [], []
    w_prev = 0.0
    for d_i, c_i in columns:
        m_i = d_i - c_i * w_prev
        w_prev = c_i / m_i
        m.append(m_i)
        w.append(w_prev)
    return m, w


def tridiag_dirichlet_solve(elimination, rhs: np.ndarray) -> np.ndarray:
    """Solve one row eliminated by dirichlet_elimination for the right-hand
    side rhs: elimination is that function's (coeff, m, w) of one row, or a
    (3, n) row of its stacked result. The forward substitution
    y_i = (rhs_i + coeff_i y_{i-1}) / m_i and the back substitution
    v_i = y_i + w_i v_{i+1}, from v_{n-1} = y_{n-1}, run over Python floats;
    with the elimination, every unknown sees the floating-point operations
    of one Thomas loop that eliminates and substitutes together, in the
    same order."""
    c, m, w = elimination.tolist() if isinstance(elimination, np.ndarray) else elimination
    r = rhs.tolist()
    if not len(c) == len(m) == len(w) == len(r):
        raise ValueError(f"an elimination of {len(c)} rows cannot solve a right-hand side of {len(r)}")
    y_prev = 0.0
    y = []
    for c_i, m_i, r_i in zip(c, m, r):
        y_prev = (r_i + c_i * y_prev) / m_i
        y.append(y_prev)
    v_next = y_prev
    v = [v_next]
    for w_i, y_i in zip(reversed(w[:-1]), reversed(y[:-1])):
        v_next = y_i + w_i * v_next
        v.append(v_next)
    return np.fromiter(reversed(v), float, len(v))

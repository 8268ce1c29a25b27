"""Entropy functionals, dissipation rates, relative entropies and pressures,
the gap to the local Maxwellian and the budget audits that certify a run.

Conventions: f*log(f) is 0 at f = 0; velocity pairs with an f below 1e-300
add nothing to the dissipation D1; velocity space is 1-D, so the Maxwellian
normalization is (2*pi)^(-1/2).
"""
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import (
    FluidState,
    KineticState,
    PhaseGrid,
    TwoPhaseState,
    quad_x,
)
from .fluid import dirichlet_grad_sq
from .kinetic import KineticWork
from .moments import _MAXWELLIAN_NORM, MomentSet, maxwellian_profile

_F_FLOOR = 1e-300
_TINY = 5e-324  # the smallest subnormal double
_LOG_NORM = math.log(_MAXWELLIAN_NORM)


@dataclass(frozen=True)
class EntropyReport:
    """Every functional evaluated at one time level."""

    F: float
    D1: float
    D2: float
    E: float
    P_f_M: float
    grad_v_sq: float
    drag_mismatch: float  # int rho |u - v|^2 dx
    mass: float


def _xlogx(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _bregman_args(name: str, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float arrays, checked for x >= 0 and y > 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError(f"{name} needs y > 0")
    if np.any(x < 0):
        raise ValueError(f"{name} needs x >= 0")
    return x, y


def relative_pressure(x, y):
    """Bregman divergence of z*log(z): x log x - y log y + (y - x)(1 + log y)."""
    x, y = _bregman_args("relative_pressure", x, y)
    out = _xlogx(x) - y * np.log(y) + (y - x) * (1.0 + np.log(y))
    return float(out) if np.ndim(out) == 0 else out


def relative_pressure_tilde(x, y, gamma):
    """Bregman divergence of z^gamma/(gamma-1)."""
    x, y = _bregman_args("relative_pressure_tilde", x, y)
    out = (x**gamma - y**gamma) / (gamma - 1.0) + gamma * (y - x) * y ** (gamma - 1.0) / (gamma - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def _pointwise_relative_entropy(bar: TwoPhaseState, ref: TwoPhaseState) -> np.ndarray:
    gamma = ref.fluid.gamma
    return (
        0.5 * bar.rho * (bar.u - ref.u) ** 2
        + 0.5 * bar.fluid.n * (bar.fluid.v - ref.fluid.v) ** 2
        + relative_pressure(bar.rho, ref.rho)
        + relative_pressure_tilde(bar.fluid.n, ref.fluid.n, gamma)
    )


def relative_entropy(bar: TwoPhaseState, ref: TwoPhaseState, grid: PhaseGrid) -> np.ndarray | float:
    """int [ rho_bar/2 |u-u_bar|^2 + n_bar/2 |v-v_bar|^2 + P(rho_bar|rho) + Pt(n_bar|n) ];
    a float for one level, one value per level for two (K, nx) stacks."""
    if float(ref.rho.min()) <= 0 or float(ref.fluid.n.min()) <= 0:
        raise ValueError("reference state must have positive densities")
    return quad_x(_pointwise_relative_entropy(bar, ref), grid)


def macroscopic_entropy(st: TwoPhaseState, grid: PhaseGrid) -> float:
    """int [ m^2/(2 rho) + w^2/(2 n) + rho log rho + n^gamma/(gamma-1) ]."""
    if float(st.rho.min()) <= 0 or float(st.fluid.n.min()) <= 0:
        raise ValueError("macroscopic entropy needs positive densities")
    gamma = st.fluid.gamma
    dens = (
        0.5 * st.rho * st.u**2
        + 0.5 * st.fluid.n * st.fluid.v**2
        + st.rho * np.log(st.rho)
        + st.fluid.n**gamma / (gamma - 1.0)
    )
    return quad_x(dens, grid)


def _maxwellian_passes(farr, rho, u, work: KineticWork) -> tuple[float, float, float, float]:
    """(P(f|M), D1, ||f - M||_1, int f log(f/M)) of f against the local
    Maxwellian M = M_{rho,u}, all from one evaluation of M, in flat passes
    over the ravel of f and the arrays of work. ||f - M||_1 and int f log(f/M)
    are taken from M itself; P(f|M) and D1 from M floored at _F_FLOOR, one
    z = f/M and one log z: P(f|M) = int M phi(z), phi(z) = z log z - z + 1 >= 0,
    and the dissipation of the relaxation solve's own flux
    sqrt(M_j M_{j+1}) (z_{j+1} - z_j) (Chang & Cooper 1970),
        D1 = sum_x dx sum_j sqrt(M_j M_{j+1}) / dv (z_{j+1} - z_j)(log z_{j+1} - log z_j).
    D1 >= 0 vanishes exactly when f/M is constant in velocity, and a relaxation
    step f0 -> f1 at bulk velocity u obeys P(f1|M) - P(f0|M) <= -(dt/eps) D1(f1).
    A velocity pair with an f below _F_FLOOR adds 0 to D1."""
    grid = work.grid
    nx, nv = farr.shape
    size = nx * nv
    cell = grid.dx * grid.dv
    flat_f = np.ravel(farr)
    m = maxwellian_profile(rho, u, grid, out=work.f)
    # M falls off away from u, so each row's smallest entry sits at a velocity cut
    floored = float(m[:, :: nv - 1].min()) < _F_FLOOR
    flat_m = np.ravel(m)
    z, w = np.ravel(work.drift), work.scratch[3][:size]
    log_z, t, d = (s[:size] for s in work.scratch[:3])

    np.subtract(flat_f, flat_m, out=t)
    l1_gap = cell * float(np.abs(t, out=t).sum())
    if floored:
        np.maximum(flat_m, _F_FLOOR, out=flat_m)
    np.divide(flat_f, flat_m, out=z)
    np.subtract(z, 1.0, out=w)
    # log z: log1p(w) from z = 1/2 on, where w = z - 1 is exact, so phi keeps
    # its small values accurate; log(2z) + log1p(-1/2) below. The clip keeps
    # log(2z) finite at z = 0 and 0 from z = 1/2 on.
    np.maximum(w, -0.5, out=t)
    np.log1p(t, out=t)
    np.multiply(z, 2.0, out=log_z)
    np.clip(log_z, _TINY, 1.0, out=log_z)
    np.log(log_z, out=log_z)
    log_z += t
    # phi(z) = z log z - w, as 1 + w == z wherever |w| < 1/2
    np.multiply(z, log_z, out=t)
    t -= w
    t *= flat_m
    p_f_m = cell * float(t.sum())
    np.multiply(flat_f, log_z, out=t)
    f_log_ratio = cell * float(t.sum())
    if floored:  # log(f/M) = log z + log(_F_FLOOR / M) where M is floored
        rows, cols = np.nonzero(m <= _F_FLOOR)
        dev = grid.xi[cols] - u[rows]
        log_m = np.log(rho[rows]) + _LOG_NORM - 0.5 * dev * dev
        f_log_ratio += cell * float(np.sum(farr[rows, cols] * (math.log(_F_FLOOR) - log_m)))

    # D1 over the flat pairs (k, k+1), with weight 0 where a pair spans two rows
    pairs = size - 1
    flux, d = t[:pairs], d[:pairs]
    np.multiply(flat_m[:-1], flat_m[1:], out=flux)
    np.sqrt(flux, out=flux)
    flux[nv - 1 :: nv] = 0.0
    flux *= np.subtract(z[1:], z[:-1], out=d)
    flux *= np.subtract(log_z[1:], log_z[:-1], out=d)
    if float(flat_f.min()) <= _F_FLOOR:
        above = flat_f > _F_FLOOR
        flux[~(above[:-1] & above[1:])] = 0.0
    return p_f_m, grid.dx * float(flux.sum()) / grid.dv, l1_gap, f_log_ratio


def csiszar_kullback_margin(report: EntropyReport, l1_gap: float) -> float:
    """Margin of ||f - M||_1^2 <= 4 * mass * int P(f|M), M the local
    Maxwellian of the moments of f, with mass and P(f|M) read from the report
    of f and l1_gap = ||f - M||_1 returned with it; nonnegative up to the
    exponentially small velocity-cut tail."""
    return 4.0 * report.mass * report.P_f_M - l1_gap * l1_gap


def evaluate_entropy_report(
    f: KineticState, fl: FluidState, mom: MomentSet, work: KineticWork
) -> tuple[EntropyReport, float]:
    """All functionals at one time level, and ||f - M||_1 for the
    Csiszar-Kullback margin, from the one local Maxwellian M of the moments
    mom of f. The phase-space passes run in work, the run's KineticWork, on
    its grid; F and D2 take the rest from the moments. Per cell,
    int f (log f + xi^2/2) dxi is int f log(f/M) dxi plus the particle part of
    E's density, - rho log(2 pi)/2 and u (mom - rho u), and int (xi - v)^2 f dxi
    is v^2 rho - 2 v mom + int xi^2 f dxi. A cell with rho <= 0 is a
    VacuumError, raised by the two-phase state of the moments."""
    moment_state = TwoPhaseState(rho=mom.rho, u=mom.u, fluid=fl, t=f.t)
    rho, u, v, grid = mom.rho, mom.u, fl.v, work.grid
    p_f_m, d1, l1_gap, f_log_ratio = _maxwellian_passes(f.f, rho, u, work)
    xi_sq_f = grid.dx * grid.dv * float(np.einsum("ij,j->", f.f, grid.xi * grid.xi))
    grad_v_sq = dirichlet_grad_sq(v, grid)
    e = macroscopic_entropy(moment_state, grid)
    mass = quad_x(rho, grid)
    report = EntropyReport(
        F=e + f_log_ratio + _LOG_NORM * mass + quad_x(u * (mom.mom - rho * u), grid),
        D1=d1,
        D2=quad_x(v * (v * rho - 2.0 * mom.mom), grid) + xi_sq_f + grad_v_sq,
        E=e,
        P_f_M=p_f_m,
        grad_v_sq=grad_v_sq,
        drag_mismatch=quad_x(rho * (u - v) ** 2, grid),
        mass=mass,
    )
    return report, l1_gap


@dataclass(frozen=True)
class AuditRecord:
    """Worst-case slacks of the two entropy budgets over a sampled run.

    slack_entropy_budget: min over samples of
        F(0) + 3 t mass(0) - F(t) - int_0^t (D1 + D2),
    the certified budget (nonnegative up to scheme error), and
    slack_after_start the min over every sample after the first (NaN when
    there is none), as the slack at the first is 0 by construction. The modified
    budget with the stiff weight, F(t) + (1/(2 eps)) int D1 + int rho|u-v|^2
    + int |dv/dx|^2 <= F(0) + C eps, has a non-constructive constant; its
    inferred value (overshoot / eps) is reported, not asserted."""

    slack_entropy_budget: float
    slack_at: float
    slack_after_start: float
    inferred_modified_constant: float
    entropy_initial: float  # F(0), the scale of the pass tolerance
    slacks: np.ndarray
    times: np.ndarray

    @property
    def summary(self) -> dict[str, float]:
        """The scalar fields by name, as run_meta.json and the summary lines
        carry them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.type is float}

    def passes(self, tolerance: float) -> bool:
        """The certified budget holds up to tolerance * |F(0)|."""
        return self.slack_entropy_budget >= -tolerance * abs(self.entropy_initial)


def entropy_inequality_audit(series, eps: float) -> AuditRecord:
    """Trapezoidal audit of the entropy budgets on a uniformly sampled run;
    series maps times and each EntropyReport field to its (K,) array over
    the samples, as a run's sample record or its loaded series.json does
    (fields the budgets do not read may be absent or extra)."""
    times, f_arr, d1, d2, drag_uv, gradv, mass = (
        np.asarray(series[name], dtype=float)
        for name in ("times", "F", "D1", "D2", "drag_mismatch", "grad_v_sq", "mass")
    )
    mass0 = mass[0]

    def cumtrap(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * np.diff(times) * (y[1:] + y[:-1]))
        return out

    diss = cumtrap(d1 + d2)
    slacks = f_arr[0] + 3.0 * times * mass0 - f_arr - diss
    k = int(np.argmin(slacks))

    modified_lhs = f_arr + cumtrap(d1) / (2.0 * eps) + cumtrap(drag_uv) + cumtrap(gradv)
    overshoot = float(np.max(modified_lhs - f_arr[0]))
    return AuditRecord(
        slack_entropy_budget=float(slacks[k]),
        slack_at=float(times[k]),
        slack_after_start=float(slacks[1:].min()) if len(slacks) > 1 else math.nan,
        inferred_modified_constant=max(overshoot, 0.0) / eps,
        entropy_initial=float(f_arr[0]),
        slacks=slacks,
        times=times,
    )


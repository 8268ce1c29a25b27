"""Entropy functionals, dissipation rates, relative entropies and pressures,
the gap to the local Maxwellian and the budget audits that certify a run.

Conventions: f*log(f) is 0 at f = 0; velocity pairs with an f below 1e-300
add nothing to the dissipation D1; velocity space is 1-D, so the Maxwellian
normalization is (2*pi)^(-1/2).
"""
from dataclasses import dataclass

import numpy as np

from .core import (
    FluidState,
    KineticState,
    PhaseGrid,
    TwoPhaseState,
    phase_mass,
    quad_v,
    quad_x,
)
from .fluid import dirichlet_grad_sq, fluid_energy
from .moments import MomentSet, maxwellian_profile

_F_FLOOR = 1e-300


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


def kinetic_entropy(f: KineticState, fl: FluidState, grid: PhaseGrid) -> float:
    """Combined entropy: int f (log f + xi^2/2) + int (n v^2/2 + n^gamma/(gamma-1))."""
    farr = f.f
    xi = grid.xi
    return quad_x(quad_v(_xlogx(farr) + 0.5 * xi * xi * farr, grid), grid) + fluid_energy(fl, grid)


def dissipation_d2(f: KineticState, fl: FluidState, grid: PhaseGrid) -> float:
    """Drag + viscous dissipation int |v - xi|^2 f + int |dv/dx|^2."""
    dev = fl.v[:, None] - grid.xi[None, :]
    drag = quad_x(quad_v(dev * dev * f.f, grid), grid)
    return drag + dirichlet_grad_sq(fl.v, grid)


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


def relative_entropy(bar: TwoPhaseState, ref: TwoPhaseState, grid: PhaseGrid) -> float:
    """int [ rho_bar/2 |u-u_bar|^2 + n_bar/2 |v-v_bar|^2 + P(rho_bar|rho) + Pt(n_bar|n) ]."""
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


def maxwellian_gap(f: KineticState, rho, u, grid: PhaseGrid) -> tuple[float, float]:
    """(P(f|M), D1) of f against the local Maxwellian M = M_{rho,u} floored at
    _F_FLOOR, from one M, one z = f/M and one log z: P(f|M) = int M phi(z),
    phi(z) = z log z - z + 1 >= 0, and the dissipation of the relaxation
    solve's own flux sqrt(M_j M_{j+1}) (z_{j+1} - z_j) (Chang & Cooper 1970),
        D1 = sum_x dx sum_j sqrt(M_j M_{j+1}) / dv (z_{j+1} - z_j)(log z_{j+1} - log z_j).
    D1 >= 0 vanishes exactly when f/M is constant in velocity, and a relaxation
    step f0 -> f1 at bulk velocity u obeys P(f1|M) - P(f0|M) <= -(dt/eps) D1(f1).
    A velocity pair with an f below _F_FLOOR adds 0 to D1."""
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho > 0):
        raise ValueError("needs rho > 0")
    m = np.maximum(maxwellian_profile(rho, u, grid), _F_FLOOR)
    farr = f.f
    z = farr / m
    w = z - 1.0
    # log z through log1p where z ~ 1, so the cancellation in phi stays at
    # the size of the true value; z = 0 keeps a finite log z, and z log z = 0
    near = np.abs(w) < 0.5
    w_near = np.clip(w, -0.5, 0.5)
    log_z = np.log1p(w_near)
    np.log(z, out=log_z, where=~near & (z > 0))
    phi = np.where(near, (1.0 + w_near) * log_z - w_near, z * log_z - w)
    p_f_m = quad_x(quad_v(m * phi, grid), grid)

    pair = (farr[:, 1:] > _F_FLOOR) & (farr[:, :-1] > _F_FLOOR)
    flux = np.sqrt(m[:, 1:] * m[:, :-1]) * (z[:, 1:] - z[:, :-1])
    d1 = np.where(pair, flux * (log_z[:, 1:] - log_z[:, :-1]), 0.0)
    return p_f_m, quad_x(d1.sum(axis=1), grid) / grid.dv


def csiszar_kullback_margin(f: KineticState, mom: MomentSet, report: EntropyReport, grid: PhaseGrid) -> float:
    """Margin of ||f - M||_1^2 <= 4 * mass * int P(f|M), M the local
    Maxwellian of the moments mom of f, with mass and P(f|M) read from the
    report of f; nonnegative up to the exponentially small velocity-cut tail."""
    l1 = quad_x(quad_v(np.abs(f.f - maxwellian_profile(mom.rho, mom.u, grid)), grid), grid)
    return 4.0 * report.mass * report.P_f_M - l1 * l1


def evaluate_entropy_report(f: KineticState, fl: FluidState, mom: MomentSet, grid: PhaseGrid) -> EntropyReport:
    """All functionals at one time level. The moments mom of f supply the
    bulk velocity and the macroscopic entropy; a cell with rho <= 0 is a
    VacuumError, raised by the two-phase state of the moments."""
    moment_state = TwoPhaseState(rho=mom.rho, u=mom.u, fluid=fl, t=f.t)
    p_f_m, d1 = maxwellian_gap(f, mom.rho, mom.u, grid)
    return EntropyReport(
        F=kinetic_entropy(f, fl, grid),
        D1=d1,
        D2=dissipation_d2(f, fl, grid),
        E=macroscopic_entropy(moment_state, grid),
        P_f_M=p_f_m,
        grad_v_sq=dirichlet_grad_sq(fl.v, grid),
        drag_mismatch=quad_x(mom.rho * (mom.u - fl.v) ** 2, grid),
        mass=phase_mass(f.f, grid),
    )


@dataclass(frozen=True)
class AuditRecord:
    """Worst-case slacks of the two entropy budgets over a sampled run.

    slack_entropy_budget: min over samples of
        F(0) + 3 t mass(0) - F(t) - int_0^t (D1 + D2),
    the certified budget (nonnegative up to scheme error). The modified
    budget with the stiff weight, F(t) + (1/(2 eps)) int D1 + int rho|u-v|^2
    + int |dv/dx|^2 <= F(0) + C eps, has a non-constructive constant; its
    inferred value (overshoot / eps) is reported, not asserted."""

    slack_entropy_budget: float
    slack_at: float
    inferred_modified_constant: float
    entropy_initial: float  # F(0), the scale of the pass tolerance
    slacks: np.ndarray
    times: np.ndarray

    def passes(self, tolerance: float) -> bool:
        """The certified budget holds up to tolerance * |F(0)|."""
        return self.slack_entropy_budget >= -tolerance * abs(self.entropy_initial)


def entropy_inequality_audit(times, reports, eps: float) -> AuditRecord:
    """Trapezoidal audit of the entropy budgets on a uniformly sampled run."""
    times = np.asarray(times, dtype=float)
    f_arr = np.array([r.F for r in reports])
    d1 = np.array([r.D1 for r in reports])
    d2 = np.array([r.D2 for r in reports])
    drag_uv = np.array([r.drag_mismatch for r in reports])
    gradv = np.array([r.grad_v_sq for r in reports])
    mass0 = reports[0].mass

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
        inferred_modified_constant=max(overshoot, 0.0) / eps,
        entropy_initial=float(f_arr[0]),
        slacks=slacks,
        times=times,
    )


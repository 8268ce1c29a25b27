"""Entropy functionals, dissipation rates, relative entropies/pressures/fluxes
and the budget audits that certify a run.

Conventions: f*log(f) is 0 at f = 0; cells with f below 1e-300 are excluded
from 1/f weights; the Maxwellian normalization carries the grid dimension d
through the (2*pi)^(d/2) constant.
"""
import math
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
    """Every functional evaluated at one time level. H and rel_flux_l1 are 0
    when no reference two-phase state was supplied."""

    F: float
    D1: float
    D2: float
    E: float
    H: float
    P_f_M: float
    rel_flux_l1: float
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


def _dxi_central(farr: np.ndarray, dv: float) -> np.ndarray:
    """Velocity derivative: second-order central, one-sided at the cut."""
    d = np.empty_like(farr)
    d[:, 1:-1] = (farr[:, 2:] - farr[:, :-2]) / (2.0 * dv)
    d[:, 0] = (-3.0 * farr[:, 0] + 4.0 * farr[:, 1] - farr[:, 2]) / (2.0 * dv)
    d[:, -1] = (3.0 * farr[:, -1] - 4.0 * farr[:, -2] + farr[:, -3]) / (2.0 * dv)
    return d


def dissipation_d1(f: KineticState, u: np.ndarray, grid: PhaseGrid) -> float:
    """Fisher-type dissipation int (1/f) |df/dxi - (u - xi) f|^2, u the bulk
    velocity of f; zero exactly on local Maxwellians in the continuum."""
    farr = f.f
    flux = _dxi_central(farr, grid.dv) - (u[:, None] - grid.xi[None, :]) * farr
    good = farr > _F_FLOOR
    integrand = np.zeros_like(farr)
    integrand[good] = flux[good] ** 2 / farr[good]
    return quad_x(quad_v(integrand, grid), grid)


def dissipation_d2(f: KineticState, fl: FluidState, grid: PhaseGrid) -> float:
    """Drag + viscous dissipation int |v - xi|^2 f + int |dv/dx|^2."""
    dev = fl.v[:, None] - grid.xi[None, :]
    drag = quad_x(quad_v(dev * dev * f.f, grid), grid)
    return drag + dirichlet_grad_sq(fl.v, grid)


def relative_pressure(x, y):
    """Bregman divergence of z*log(z): x log x - y log y + (y - x)(1 + log y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("relative_pressure needs y > 0")
    if np.any(x < 0):
        raise ValueError("relative_pressure needs x >= 0")
    out = _xlogx(x) - y * np.log(y) + (y - x) * (1.0 + np.log(y))
    return float(out) if np.ndim(out) == 0 else out


def relative_pressure_tilde(x, y, gamma):
    """Bregman divergence of z^gamma/(gamma-1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("relative_pressure_tilde needs y > 0")
    if np.any(x < 0):
        raise ValueError("relative_pressure_tilde needs x >= 0")
    out = (x**gamma - y**gamma) / (gamma - 1.0) + gamma * (y - x) * y ** (gamma - 1.0) / (gamma - 1.0)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class PressureBoundRecord:
    """Both sides and margins of the relative-pressure lower bounds.

    margin_basic_p / margin_case are provable bounds (margins must be
    >= -1e-12); the literal min-form bound on the isentropic side is known to
    fail by a factor (e.g. at gamma = 2), so it is only reported via
    holds_literal_tilde, never asserted."""

    p_value: float
    p_bound: float
    margin_basic_p: float
    tilde_value: float
    tilde_taylor_bound: float
    margin_taylor_tilde: float
    literal_tilde_bound: float
    holds_literal_tilde: bool
    case_constant: float
    case_bound: float
    margin_case: float
    near_field: bool


def _case_split_constant(x, y, gamma, y_min, y_max):
    """Proof constants of the case-split lower bound, by regime."""
    near = (y / 2.0 <= x) & (x <= 2.0 * y)
    if gamma <= 2.0:
        c_near = 0.5 * gamma * (2.0 * y_max) ** (gamma - 2.0)
        c_far = (gamma / 8.0) * (1.0 - 1.0 / (1.0 + y_min**gamma))
        c = np.where(near, c_near, c_far)
    else:
        c_near = 0.5 * gamma * (y_min / 2.0) ** (gamma - 2.0)
        c_hi = min((1.0 - gamma * 2.0 ** (1.0 - gamma)) / (gamma - 1.0), y_min**gamma)
        c_lo = min(1.0 / (gamma - 1.0), (1.0 - gamma / (2.0 * (gamma - 1.0))) * y_min**gamma)
        c = np.where(near, c_near, np.where(np.asarray(x) > 2.0 * np.asarray(y), c_hi, c_lo))
    return near, c


def check_pressure_bounds(x, y, gamma, y_min, y_max):
    """Evaluate the relative-pressure lower bounds at (x, y).

    Vectorized over x/y; returns a PressureBoundRecord of arrays (or floats
    for scalar input)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (0 < y_min <= y_max):
        raise ValueError("need 0 < y_min <= y_max")
    p_val = relative_pressure(x, y)
    p_bound = 0.5 * (x - y) ** 2 / np.maximum(x, y)
    tilde = relative_pressure_tilde(x, y, gamma)
    min_pow = np.minimum(x, y) ** (gamma - 2.0) if gamma >= 2.0 else np.maximum(x, y) ** (gamma - 2.0)
    taylor_bound = 0.5 * gamma * min_pow * (x - y) ** 2
    literal_bound = gamma * min_pow * (x - y) ** 2

    near, c = _case_split_constant(x, y, gamma, y_min, y_max)
    case_shape = np.where(near, (x - y) ** 2, 1.0 + x**gamma)
    case_bound = c * case_shape

    def _maybe_scalar(a):
        return float(a) if np.ndim(a) == 0 else a

    return PressureBoundRecord(
        p_value=_maybe_scalar(p_val),
        p_bound=_maybe_scalar(p_bound),
        margin_basic_p=_maybe_scalar(p_val - p_bound),
        tilde_value=_maybe_scalar(tilde),
        tilde_taylor_bound=_maybe_scalar(taylor_bound),
        margin_taylor_tilde=_maybe_scalar(tilde - taylor_bound),
        literal_tilde_bound=_maybe_scalar(literal_bound),
        holds_literal_tilde=bool(np.all(tilde - literal_bound >= -1e-12)),
        case_constant=_maybe_scalar(c),
        case_bound=_maybe_scalar(case_bound),
        margin_case=_maybe_scalar(tilde - case_bound),
        near_field=bool(np.all(near)) if np.ndim(near) == 0 else near,
    )


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


def relative_entropy_bregman(bar: TwoPhaseState, ref: TwoPhaseState, grid: PhaseGrid) -> float:
    """Independent evaluation of the same functional through the convexity
    identity E(bar) - E(ref) - DE(ref).(bar - ref), term by term in the
    conserved variables. Kept separate from relative_entropy on purpose."""
    gamma = ref.fluid.gamma
    rho_b, m_b = bar.rho, bar.rho * bar.u
    n_b, w_b = bar.fluid.n, bar.fluid.n * bar.fluid.v
    rho, m = ref.rho, ref.rho * ref.u
    n, w = ref.fluid.n, ref.fluid.n * ref.fluid.v
    u, v = ref.u, ref.fluid.v

    e_bar = 0.5 * m_b**2 / rho_b + 0.5 * w_b**2 / n_b + rho_b * np.log(rho_b) + n_b**gamma / (gamma - 1.0)
    e_ref = 0.5 * m**2 / rho + 0.5 * w**2 / n + rho * np.log(rho) + n**gamma / (gamma - 1.0)
    de_dot = (
        (-0.5 * u**2 + np.log(rho) + 1.0) * (rho_b - rho)
        + u * (m_b - m)
        + (-0.5 * v**2 + gamma * n ** (gamma - 1.0) / (gamma - 1.0)) * (n_b - n)
        + v * (w_b - w)
    )
    return quad_x(e_bar - e_ref - de_dot, grid)


def relative_flux_l1(bar: TwoPhaseState, ref: TwoPhaseState, grid: PhaseGrid) -> float:
    """Entrywise L1 size of the relative flux; the pressure block carries the
    3-dimensional identity trace, so it is bounded by max(2, 3(gamma-1))
    times the relative entropy."""
    gamma = ref.fluid.gamma
    dens = (
        bar.rho * (bar.u - ref.u) ** 2
        + bar.fluid.n * (bar.fluid.v - ref.fluid.v) ** 2
        + 3.0 * (gamma - 1.0) * relative_pressure_tilde(bar.fluid.n, ref.fluid.n, gamma)
    )
    return quad_x(dens, grid)


def rel_flux_entropy_constant(gamma: float) -> float:
    return max(2.0, 3.0 * (gamma - 1.0))


def maxwellian_relative_entropy(f: KineticState, rho, u, grid: PhaseGrid) -> float:
    """int P(f | M_{rho,u}) over phase space, by pointwise quadrature of the
    Bregman integrand (nonnegative by construction)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("needs rho > 0")
    m = np.maximum(maxwellian_profile(rho, u, grid), _F_FLOOR)
    farr = f.f
    # P(f|M) = m * phi(f/m), phi(z) = z log z - z + 1 >= 0; evaluated through
    # log1p so the z ~ 1 cancellation stays at the size of the true value
    z = farr / m
    w = z - 1.0
    w_near = np.clip(w, -0.5, 0.5)
    near = (1.0 + w_near) * np.log1p(w_near) - w_near
    far = _xlogx(z) - w
    phi = np.where(np.abs(w) < 0.5, near, far)
    return quad_x(quad_v(m * phi, grid), grid)


def csiszar_kullback_margin(f: KineticState, mom: MomentSet, report: EntropyReport, grid: PhaseGrid) -> float:
    """Margin of ||f - M||_1^2 <= 4 * mass * int P(f|M), M the local
    Maxwellian of the moments mom of f, with mass and P(f|M) read from the
    report of f; nonnegative up to the exponentially small velocity-cut tail."""
    l1 = quad_x(quad_v(np.abs(f.f - maxwellian_profile(mom.rho, mom.u, grid)), grid), grid)
    return 4.0 * report.mass * report.P_f_M - l1 * l1


def evaluate_entropy_report(
    f: KineticState,
    fl: FluidState,
    mom: MomentSet,
    grid: PhaseGrid,
    reference: TwoPhaseState | None = None,
) -> EntropyReport:
    """All functionals at one time level. The moments mom of f supply the
    bulk velocity and the macroscopic entropy; a reference two-phase state
    (when given) supplies the relative entropy and relative flux."""
    if float(mom.rho.min()) <= 0:
        raise ValueError("entropy report needs strictly positive particle density")
    moment_state = TwoPhaseState(rho=mom.rho, u=mom.u, fluid=fl, t=f.t)
    h = rel_flux = 0.0
    if reference is not None:
        h = relative_entropy(moment_state, reference, grid)
        rel_flux = relative_flux_l1(moment_state, reference, grid)
    return EntropyReport(
        F=kinetic_entropy(f, fl, grid),
        D1=dissipation_d1(f, mom.u, grid),
        D2=dissipation_d2(f, fl, grid),
        E=macroscopic_entropy(moment_state, grid),
        H=h,
        P_f_M=maxwellian_relative_entropy(f, mom.rho, mom.u, grid),
        rel_flux_l1=rel_flux,
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


def maxwellian_offset(grid: PhaseGrid) -> float:
    """(d/2) log(2 pi): the per-unit-mass entropy offset between a local
    Maxwellian and its macroscopic counterpart."""
    return 0.5 * grid.dim * math.log(2.0 * math.pi)

"""Oracles for the paper's lemmas that no solver calls: the relative-pressure
lower bounds (criterion 5), the convexity form of the relative entropy
(criterion 6), the relative-flux bound, the density representation along
characteristics (criterion 10) and the well-preparedness residuals; the
entropy report's functionals as direct, array-by-array formulas; and the
sweep's comparison with the limit, sample by sample."""
import math
from dataclasses import dataclass

import numpy as np

from kinfluid.core import FluidState, KineticState, PhaseGrid, TwoPhaseState, l1_distance, quad_v, quad_x
from kinfluid.entropy import (
    EntropyReport,
    _maxwellian_passes,
    macroscopic_entropy,
    relative_entropy,
    relative_pressure,
    relative_pressure_tilde,
)
from kinfluid.fluid import dirichlet_grad_sq
from kinfluid.harness import CSV_COLUMNS, ConvergenceResult, ExperimentConfig
from kinfluid.moments import MomentSet, compute_moments, maxwellian_profile

from conftest import kinetic_work

# (1/2) log(2 pi): the per-unit-mass entropy offset between a 1-D local
# Maxwellian and its macroscopic counterpart
MAXWELLIAN_OFFSET = 0.5 * math.log(2.0 * math.pi)


_F_FLOOR = 1e-300


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def phase_mass(f: np.ndarray, grid: PhaseGrid) -> float:
    """Total mass of a phase-space density."""
    return quad_x(quad_v(f, grid), grid)


def fluid_energy(fl: FluidState, grid: PhaseGrid) -> float:
    """Total mechanical + internal energy of the gas phase."""
    return quad_x(0.5 * fl.n * fl.v**2 + fl.n**fl.gamma / (fl.gamma - 1.0), grid)


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


def maxwellian_gap(f: KineticState, rho, u, grid: PhaseGrid) -> tuple[float, float, float]:
    """(P(f|M), D1, ||f - M||_1) of f against M = M_{rho,u}, as the entropy
    report computes them (entropy._maxwellian_passes), in a new KineticWork."""
    rho, u = np.asarray(rho, dtype=float), np.asarray(u, dtype=float)
    return _maxwellian_passes(f.f, rho, u, kinetic_work(grid))[:3]


def maxwellian_gap_direct(f: KineticState, rho, u, grid: PhaseGrid) -> tuple[float, float, float]:
    """(P(f|M), D1, ||f - M||_1) as entropy._maxwellian_passes defines them, on
    (nx, nv) arrays row by row: log z by log1p where |z - 1| < 1/2 and by log
    elsewhere, phi chosen by np.where, D1 over the pairs of each row."""
    m = maxwellian_profile(np.asarray(rho, dtype=float), u, grid)
    farr = f.f
    l1_gap = quad_x(quad_v(np.abs(farr - m), grid), grid)
    np.maximum(m, _F_FLOOR, out=m)
    z = farr / m
    w = z - 1.0
    near = np.abs(w) < 0.5
    w_near = np.clip(w, -0.5, 0.5)
    log_z = np.log1p(w_near)
    np.log(z, out=log_z, where=~near & (z > 0))
    phi = np.where(near, (1.0 + w_near) * log_z - w_near, z * log_z - w)
    p_f_m = quad_x(quad_v(m * phi, grid), grid)
    pair = (farr[:, 1:] > _F_FLOOR) & (farr[:, :-1] > _F_FLOOR)
    flux = np.sqrt(m[:, 1:] * m[:, :-1]) * (z[:, 1:] - z[:, :-1])
    d1 = np.where(pair, flux * (log_z[:, 1:] - log_z[:, :-1]), 0.0)
    return p_f_m, quad_x(d1.sum(axis=1), grid) / grid.dv, l1_gap


def entropy_report_direct(
    f: KineticState, fl: FluidState, mom: MomentSet, grid: PhaseGrid
) -> tuple[EntropyReport, float]:
    """The entropy report and ||f - M||_1, each functional from its own
    phase-space arrays."""
    p_f_m, d1, l1_gap = maxwellian_gap_direct(f, mom.rho, mom.u, grid)
    moment_state = TwoPhaseState(rho=mom.rho, u=mom.u, fluid=fl, t=f.t)
    report = EntropyReport(
        F=kinetic_entropy(f, fl, grid),
        D1=d1,
        D2=dissipation_d2(f, fl, grid),
        E=macroscopic_entropy(moment_state, grid),
        P_f_M=p_f_m,
        grad_v_sq=dirichlet_grad_sq(fl.v, grid),
        drag_mismatch=quad_x(mom.rho * (mom.u - fl.v) ** 2, grid),
        mass=phase_mass(f.f, grid),
    )
    return report, l1_gap


def convergence_rows_per_sample(result: ConvergenceResult, config: ExperimentConfig) -> np.recarray:
    """The sweep's rows by their definition sample by sample: one
    single-level two-phase state per sample of each coupled run and of the
    limit run, the relative entropy and the L1 gaps of each pair of equal
    index, and their maxima over the samples; a record array with the CSV
    columns as fields."""
    grid = config.grid()
    limit = result.limit.stacks

    def state(stacks, times, k):
        fluid = FluidState(n=stacks["n"][k], v=stacks["v"][k], gamma=config.gamma)
        return TwoPhaseState(rho=stacks["rho"][k], u=stacks["u"][k], fluid=fluid, t=times[k])

    samples = range(len(result.limit.samples))
    m_end = maxwellian_profile(limit["rho"][-1], limit["u"][-1], grid)
    rows = [
        (
            run.eps,
            max(
                relative_entropy(state(run.stacks, run.reports.times, k),
                                 state(limit, result.limit.samples.times, k), grid)
                for k in samples
            ),
            max(l1_distance(run.stacks["rho"][k], limit["rho"][k], grid) for k in samples),
            max(l1_distance(run.stacks["n"][k], limit["n"][k], grid) for k in samples),
            l1_distance(run.f_final.f, m_end, grid),
        )
        for run in result.runs
    ]
    return np.rec.fromrecords(rows, names=CSV_COLUMNS)


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


@dataclass(frozen=True)
class PositivityCheck:
    min_one_plus_h: float
    max_rel_deviation: float


def density_positivity_check(h_path: np.ndarray, v_path: np.ndarray, dt: float, grid: PhaseGrid) -> PositivityCheck:
    """Verify the along-characteristics density representation on a sampled
    trajectory: 1 + h at the characteristic foot should match
    (1 + h_0) * exp(-int div v). Returns min(1+h) over the whole path and the
    worst relative deviation of the prediction."""
    h_path = np.asarray(h_path, dtype=float)
    v_path = np.asarray(v_path, dtype=float)
    if h_path.shape != v_path.shape or h_path.ndim != 2:
        raise ValueError("h_path and v_path must be matching (K, nx) arrays")
    K, nx = h_path.shape
    x = grid.x

    def v_at(k, pos):
        return np.interp(pos, x, v_path[k])

    def divv_at(k, pos):
        return np.interp(pos, x, np.gradient(v_path[k], grid.dx))

    pos = x.copy()
    integ = np.zeros(nx)
    max_dev = 0.0
    base = 1.0 + h_path[0]
    for k in range(K - 1):
        # Heun step for the characteristic and the divergence integral
        v0 = v_at(k, pos)
        pos_pred = pos + dt * v0
        v1 = v_at(k + 1, pos_pred)
        pos_new = pos + 0.5 * dt * (v0 + v1)
        integ = integ + 0.5 * dt * (divv_at(k, pos) + divv_at(k + 1, pos_new))
        pos = pos_new
        predicted = base * np.exp(-integ)
        actual = 1.0 + np.interp(pos, x, h_path[k + 1])
        max_dev = max(max_dev, float(np.max(np.abs(predicted - actual) / np.abs(actual))))
    return PositivityCheck(
        min_one_plus_h=float((1.0 + h_path).min()),
        max_rel_deviation=max_dev,
    )


def well_prepared_residuals(
    kin: KineticState, fl: FluidState, limit0: TwoPhaseState, config: ExperimentConfig
) -> tuple[float, float]:
    """Discrete residuals of the two well-preparedness requirements.

    The entropy-gap residual compares the kinetic entropy of f0 with the
    macroscopic entropy of the limit data, compensated by the universal
    Maxwellian offset (1/2) log(2 pi) per unit mass; the state-gap residual
    sums the squared velocity gaps and both relative pressures. Both are 0
    up to quadrature error for local-Maxwellian data."""
    grid = config.grid()
    mom = compute_moments(kin, grid)
    mass = phase_mass(kin.f, grid)

    f_kin = kinetic_entropy(kin, fl, grid)
    e_limit = macroscopic_entropy(limit0, grid)
    res_entropy = f_kin - e_limit + MAXWELLIAN_OFFSET * mass

    res_state = (
        quad_x(mom.rho * (mom.u - limit0.u) ** 2, grid)
        + quad_x(fl.n * (fl.v - limit0.fluid.v) ** 2, grid)
        + quad_x(relative_pressure(np.maximum(mom.rho, 0.0), limit0.rho), grid)
        + quad_x(relative_pressure_tilde(fl.n, limit0.fluid.n, config.gamma), grid)
    )
    return float(res_entropy), float(res_state)

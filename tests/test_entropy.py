import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from kinfluid.core import FluidState, KineticState, PhaseGrid, TwoPhaseState, phase_mass, quad_x
from kinfluid.entropy import (
    csiszar_kullback_margin,
    dissipation_d2,
    entropy_inequality_audit,
    evaluate_entropy_report,
    kinetic_entropy,
    macroscopic_entropy,
    maxwellian_gap,
    relative_entropy,
    relative_pressure,
    relative_pressure_tilde,
)
from kinfluid.harness import ExperimentConfig, run_coupled
from kinfluid.kinetic import _fp_raw
from kinfluid.moments import compute_moments, maxwellian

from conftest import random_positive_f
from paper_checks import (
    check_pressure_bounds,
    rel_flux_entropy_constant,
    relative_entropy_bregman,
    relative_flux_l1,
)


def _unit_fluid(grid, gamma=2.0):
    return FluidState(n=np.ones(grid.nx), v=np.zeros(grid.nx), gamma=gamma)


def random_two_phase(rng, grid, gamma=2.0):
    return TwoPhaseState(
        rho=0.5 + rng.random(grid.nx),
        u=rng.standard_normal(grid.nx),
        fluid=FluidState(
            n=0.5 + rng.random(grid.nx), v=rng.standard_normal(grid.nx), gamma=gamma
        ),
    )


# ---------------------------------------------------------------------------
# combined entropy
# ---------------------------------------------------------------------------

def test_kinetic_entropy_of_unit_maxwellian(grid):
    # oracle: int M (log M + xi^2/2) dxi = -log(2 pi)/2 per unit mass (d = 1),
    # plus the gas internal term 1/(gamma-1) = 1
    f = maxwellian(np.ones(grid.nx), np.zeros(grid.nx), grid)
    val = kinetic_entropy(f, _unit_fluid(grid), grid)
    expect = 1.0 - 0.5 * math.log(2 * math.pi)
    assert val == pytest.approx(expect, abs=1e-8)
    assert expect == pytest.approx(0.0811, abs=5e-4)


def test_kinetic_entropy_vacuum_particles(grid):
    f = KineticState(f=np.zeros((grid.nx, grid.nv)))
    assert kinetic_entropy(f, _unit_fluid(grid), grid) == pytest.approx(1.0, rel=1e-14)


def test_kinetic_entropy_velocity_sign_invariance(rng, grid):
    f = KineticState(f=random_positive_f(rng, grid))
    v = 0.3 * np.sin(2 * np.pi * grid.x)
    n = 1.0 + 0.1 * np.cos(2 * np.pi * grid.x)
    a = kinetic_entropy(f, FluidState(n=n, v=v), grid)
    b = kinetic_entropy(f, FluidState(n=n, v=-v), grid)
    assert a == pytest.approx(b, rel=1e-14)


# ---------------------------------------------------------------------------
# dissipations
# ---------------------------------------------------------------------------

def test_d1_vanishes_on_maxwellian():
    grid = PhaseGrid(nx=8, nv=256, v_max=8.0)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    u = 0.1 * np.cos(2 * np.pi * grid.x)
    f = maxwellian(rho, u, grid)
    mom = compute_moments(f, grid)
    assert maxwellian_gap(f, mom.rho, mom.u, grid)[1] < 1e-20


def test_d1_finite_on_underflowing_maxwellian_tail():
    # at v_max = 40 the Maxwellian underflows to 0 in the outer velocity
    # cells; pairs with an f below the floor add nothing
    grid = PhaseGrid(nx=8, nv=64, v_max=40.0)
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    u = 0.1 * np.cos(2 * np.pi * grid.x)
    f = maxwellian(rho, u, grid)
    mom = compute_moments(f, grid)
    d1 = maxwellian_gap(f, mom.rho, mom.u, grid)[1]
    assert math.isfinite(d1) and d1 < 1e-9


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
@pytest.mark.parametrize("nv", [8, 12, 16, 32, 64])
def test_relaxation_step_dissipates_d1(rng, nv, eps):
    # by convexity one backward-Euler relaxation step obeys
    # P(f1|M) - P(f0|M) <= -(dt/eps) D1(f1), M the Maxwellian of the step's u
    grid = PhaseGrid(nx=8, nv=nv, v_max=8.0)
    dt = 0.01
    f0 = random_positive_f(rng, grid)
    mom = compute_moments(f0, grid)
    f1 = _fp_raw(f0, mom.u, dt, grid, eps)
    p0, _, _ = maxwellian_gap(KineticState(f=f0), mom.rho, mom.u, grid)
    p1, d1, _ = maxwellian_gap(KineticState(f=f1), mom.rho, mom.u, grid)
    assert d1 > 0.0
    assert p1 - p0 <= -(dt / eps) * d1


def test_dissipations_of_zero_density(grid):
    f = KineticState(f=np.zeros((grid.nx, grid.nv)))
    u = compute_moments(f, grid).u
    assert maxwellian_gap(f, np.ones(grid.nx), u, grid)[1] == 0.0
    d2 = dissipation_d2(f, _unit_fluid(grid), grid)
    assert d2 == 0.0  # no particles and v = 0


def test_d2_drag_part_gaussian_second_moment(grid):
    # oracle: int xi^2 M_{1,0} dxi = 1 per unit mass
    f = maxwellian(np.ones(grid.nx), np.zeros(grid.nx), grid)
    d2 = dissipation_d2(f, _unit_fluid(grid), grid)
    assert d2 == pytest.approx(1.0, abs=1e-8)


def test_dissipations_nonnegative_random(rng, grid):
    for _ in range(5):
        f = KineticState(f=random_positive_f(rng, grid))
        fl = FluidState(n=0.5 + rng.random(grid.nx), v=rng.standard_normal(grid.nx))
        mom = compute_moments(f, grid)
        assert maxwellian_gap(f, mom.rho, mom.u, grid)[1] >= 0.0
        assert dissipation_d2(f, fl, grid) >= 0.0


# ---------------------------------------------------------------------------
# relative pressures
# ---------------------------------------------------------------------------

def test_relative_pressure_diagonal_and_values():
    assert relative_pressure(1.0, 1.0) == 0.0
    assert relative_pressure_tilde(1.7, 1.7, 2.3) == pytest.approx(0.0, abs=1e-14)
    assert relative_pressure(2.0, 1.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-14)
    assert relative_pressure(2.0, 1.0) == pytest.approx(0.38629, abs=1e-5)
    # gamma = 2 reduces the isentropic divergence to (x - y)^2
    assert relative_pressure_tilde(2.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        relative_pressure(1.0, 0.0)
    with pytest.raises(ValueError):
        relative_pressure_tilde(1.0, -1.0, 2.0)


def test_relative_pressure_integral_form(rng):
    # built-in self-oracle: P(x|y) = int_y^x (x - z)/z dz by quadrature
    for _ in range(20):
        x = 10 ** rng.uniform(-1, 1)
        y = 10 ** rng.uniform(-1, 1)
        val, err = scipy_quad(lambda z: (x - z) / z, y, x)
        assert relative_pressure(x, y) == pytest.approx(val, abs=max(1e-10, 5 * err))


def test_pressure_bounds_diagonal_tight():
    rec = check_pressure_bounds(1.3, 1.3, 1.8, 1.0, 2.0)
    assert rec.p_value == pytest.approx(0.0, abs=1e-14)
    assert rec.margin_basic_p == pytest.approx(0.0, abs=1e-14)
    assert rec.margin_case == pytest.approx(0.0, abs=1e-14)


def test_pressure_bounds_worked_example_gamma_two():
    # x = 2, y = 1, gamma = 2: the literal min-form bound fails (claims
    # 1 >= 2) while the case-split constant gives margin exactly 0
    rec = check_pressure_bounds(2.0, 1.0, 2.0, 1.0, 1.0)
    assert rec.tilde_value == pytest.approx(1.0, rel=1e-14)
    assert rec.literal_tilde_bound == pytest.approx(2.0, rel=1e-14)
    assert not rec.holds_literal_tilde
    assert rec.near_field
    assert rec.case_constant == pytest.approx(1.0, rel=1e-14)
    assert rec.margin_case == pytest.approx(0.0, abs=1e-14)


def test_pressure_bounds_random_sweep(rng):
    # provable bounds hold across the sampled regimes
    y_min, y_max = 0.3, 3.0
    n = 10_000
    x = 10.0 * rng.random(n) + 1e-9
    y = rng.uniform(y_min, y_max, n)
    for gamma in (1.4, 2.0, 2.5, 3.0):
        rec = check_pressure_bounds(x, y, gamma, y_min, y_max)
        assert float(np.min(rec.margin_basic_p)) >= -1e-12
        assert float(np.min(rec.margin_taylor_tilde)) >= -1e-12
        assert float(np.min(rec.margin_case)) >= -1e-12


# ---------------------------------------------------------------------------
# relative entropy of the two-phase states
# ---------------------------------------------------------------------------

def test_relative_entropy_zero_on_diagonal(rng, grid):
    st = random_two_phase(rng, grid)
    assert relative_entropy(st, st, grid) == pytest.approx(0.0, abs=1e-14)


def test_relative_entropy_velocity_shift(rng, grid):
    ref = random_two_phase(rng, grid)
    c = 0.37
    bar = TwoPhaseState(rho=ref.rho, u=ref.u + c, fluid=ref.fluid, t=ref.t)
    expect = 0.5 * c * c * quad_x(bar.rho, grid)
    assert relative_entropy(bar, ref, grid) == pytest.approx(expect, rel=1e-13)


def test_relative_entropy_equals_bregman_identity(rng, grid):
    for _ in range(50):
        bar = random_two_phase(rng, grid)
        ref = random_two_phase(rng, grid)
        a = relative_entropy(bar, ref, grid)
        b = relative_entropy_bregman(bar, ref, grid)
        assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_macroscopic_entropy_values(grid):
    st = TwoPhaseState(
        rho=np.ones(grid.nx), u=np.zeros(grid.nx), fluid=_unit_fluid(grid)
    )
    assert macroscopic_entropy(st, grid) == pytest.approx(1.0, rel=1e-14)
    st2 = TwoPhaseState(
        rho=np.ones(grid.nx), u=np.full(grid.nx, 0.4), fluid=_unit_fluid(grid)
    )
    st3 = TwoPhaseState(
        rho=np.ones(grid.nx), u=np.full(grid.nx, 0.8), fluid=_unit_fluid(grid)
    )
    kin2 = macroscopic_entropy(st2, grid) - 1.0
    kin3 = macroscopic_entropy(st3, grid) - 1.0
    assert kin3 == pytest.approx(4 * kin2, rel=1e-12)


# ---------------------------------------------------------------------------
# relative flux
# ---------------------------------------------------------------------------

def test_relative_flux_zero_on_diagonal(rng, grid):
    st = random_two_phase(rng, grid)
    assert relative_flux_l1(st, st, grid) == pytest.approx(0.0, abs=1e-14)


def test_relative_flux_density_only_ratio_three(grid):
    gamma = 2.0
    ref = TwoPhaseState(rho=np.ones(grid.nx), u=np.zeros(grid.nx), fluid=_unit_fluid(grid))
    n_bar = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x) + 0.4
    bar = TwoPhaseState(
        rho=np.ones(grid.nx), u=np.zeros(grid.nx),
        fluid=FluidState(n=n_bar, v=np.zeros(grid.nx), gamma=gamma),
    )
    flux = relative_flux_l1(bar, ref, grid)
    ent = relative_entropy(bar, ref, grid)
    assert flux == pytest.approx(3.0 * ent, rel=1e-12)
    assert rel_flux_entropy_constant(gamma) == 3.0


def test_relative_flux_entropy_bound(rng, grid):
    for gamma in (1.6, 2.0, 2.7):
        for _ in range(20):
            bar = random_two_phase(rng, grid, gamma)
            ref = random_two_phase(rng, grid, gamma)
            flux = relative_flux_l1(bar, ref, grid)
            bound = rel_flux_entropy_constant(gamma) * relative_entropy(bar, ref, grid)
            assert flux <= bound + 1e-12


# ---------------------------------------------------------------------------
# gap to the local Maxwellian
# ---------------------------------------------------------------------------

def test_maxwellian_relative_entropy_zero_on_grid():
    grid = PhaseGrid(nx=8, nv=256, v_max=8.0)
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * grid.x)
    u = 0.3 * np.cos(2 * np.pi * grid.x)
    f = maxwellian(rho, u, grid)
    assert maxwellian_gap(f, rho, u, grid)[0] < 1e-4


def test_maxwellian_relative_entropy_gaussian_shift(grid):
    # oracle: f = M_{rho, u+a} against M_{rho, u} has divergence mass*a^2/2
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    u = np.zeros(grid.nx)
    a = 0.35
    f = maxwellian(rho, u + a, grid)
    mass = phase_mass(f.f, grid)
    val = maxwellian_gap(f, rho, u, grid)[0]
    assert val == pytest.approx(0.5 * a * a * mass, rel=1e-7)


def test_csiszar_kullback_margin_nonnegative(rng, grid):
    for _ in range(10):
        f = KineticState(f=random_positive_f(rng, grid))
        mom = compute_moments(f, grid)
        report, l1_gap = evaluate_entropy_report(f, _unit_fluid(grid), mom, grid)
        assert csiszar_kullback_margin(report, l1_gap) >= 0.0


def test_report_quantities_nonnegative(rng, grid):
    for _ in range(5):
        f = KineticState(f=random_positive_f(rng, grid))
        fl = FluidState(n=0.5 + rng.random(grid.nx), v=0.5 * rng.standard_normal(grid.nx))
        rep, _ = evaluate_entropy_report(f, fl, compute_moments(f, grid), grid)
        for name in ("D1", "D2", "P_f_M", "grad_v_sq", "drag_mismatch"):
            assert getattr(rep, name) >= -1e-13, name


# ---------------------------------------------------------------------------
# budget audits
# ---------------------------------------------------------------------------

def test_audit_equilibrium_run_slack_bounds():
    cfg = ExperimentConfig(
        nx=16, nv=64, t_final=0.5, eps_list=[0.5], n_samples=8,
        initial_profile="equilibrium",
    )
    run = run_coupled(cfg, 0.5)
    mass0 = run.reports[0].mass
    # the budget holds with slack between 0 (tight at t = 0) and the full
    # 3 t mass allowance (dissipation is nonnegative, F nondecreasing here)
    assert run.audit.slack_entropy_budget >= -1e-10
    assert np.all(run.audit.slacks <= 3.0 * run.audit.times * mass0 + 1e-10)
    assert run.audit.slacks[-1] > 0.0


def test_audit_modified_constant_bounded_under_eps_halving():
    cfg = ExperimentConfig(nx=16, nv=64, t_final=0.25, eps_list=[0.5], n_samples=8)
    c_vals = []
    for eps in (0.2, 0.1):
        run = run_coupled(cfg, eps)
        c_vals.append(max(run.audit.inferred_modified_constant, 1e-12))
    ratio = c_vals[0] / c_vals[1]
    assert 0.25 <= ratio <= 4.0


def test_audit_reports_nonnegative_dissipations(rng, grid):
    f = KineticState(f=random_positive_f(rng, grid))
    fl = _unit_fluid(grid)
    reps = [evaluate_entropy_report(f, fl, compute_moments(f, grid), grid)[0] for _ in range(3)]
    rec = entropy_inequality_audit([0.0, 0.1, 0.2], reps, 0.5)
    assert rec.slacks.shape == (3,)
    assert all(r.D1 >= 0 and r.D2 >= 0 for r in reps)

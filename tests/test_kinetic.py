import math

import numpy as np
import pytest

from kinfluid.core import (
    CFLError,
    FluidState,
    KineticState,
    PhaseGrid,
    l1_distance,
    phase_mass,
    quad_v,
)
from kinfluid.entropy import maxwellian_gap
from kinfluid.kinetic import (
    _drag_raw,
    _fp_raw,
    _transport_raw,
    kinetic_step,
    wall_kernels,
)
from kinfluid.moments import compute_moments, maxwellian

from conftest import random_positive_f


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def specular(grid):
    return wall_kernels("specular", grid, 1.0)


def test_transport_even_profile_is_fixed_point(grid):
    phi = np.exp(-0.5 * grid.xi**2)  # even in xi
    f = np.tile(phi, (grid.nx, 1))
    dt = 0.9 * grid.dx / (grid.v_max - 0.5 * grid.dv)
    out, tr_lo, tr_hi = _transport_raw(f, grid, dt, specular(grid))
    np.testing.assert_array_equal(out, f)
    assert tr_lo == tr_hi == 0.0


def test_transport_unit_cfl_exact_shift():
    g = PhaseGrid(nx=16, nv=2, v_max=1.0)  # centers at +-0.5
    f = np.zeros((16, 2))
    f[7, 1] = 1.0  # pulse moving right at xi = +0.5
    dt = g.dx / g.xi[1]
    out, _, _ = _transport_raw(f, g, dt, specular(g))
    expect = np.zeros_like(f)
    expect[8, 1] = 1.0
    np.testing.assert_array_equal(out, expect)


def test_transport_cfl_violation_raises(grid):
    f = np.ones((grid.nx, grid.nv))
    with pytest.raises(CFLError):
        _transport_raw(f, grid, 10 * grid.dx / grid.v_max, specular(grid))


def test_transport_specular_mass_conservation(rng, grid):
    f = random_positive_f(rng, grid)
    m0 = phase_mass(f, grid)
    dt = 0.8 * grid.dx / grid.v_max
    for _ in range(50):
        f, tr_lo, tr_hi = _transport_raw(f, grid, dt, specular(grid))
        assert max(abs(tr_lo), abs(tr_hi)) <= 1e-12
    assert f.min() >= 0.0
    assert phase_mass(f, grid) == pytest.approx(m0, abs=1e-12)


def test_transport_specular_flux_exact_on_awkward_grid(rng):
    # non-dyadic velocity cut: the mirror-pair cancellation must still be exact
    g = PhaseGrid(nx=10, nv=30, v_max=7.3)
    dt = 0.8 * g.dx / g.v_max
    _, tr_lo, tr_hi = _transport_raw(random_positive_f(rng, g), g, dt, specular(g))
    assert tr_lo == tr_hi == 0.0


def test_transport_mass_balance_matches_reported_flux(rng, grid):
    # through absorbing walls the mass change equals minus the reported
    # outward wall traces integrated over the step, exactly
    walls = wall_kernels("dirichlet_zero", grid, 1.0)
    f = random_positive_f(rng, grid)
    dt = 0.8 * grid.dx / grid.v_max
    for _ in range(5):
        m0 = phase_mass(f, grid)
        f, tr_lo, tr_hi = _transport_raw(f, grid, dt, walls)
        assert tr_lo > 0.0 and tr_hi > 0.0
        dm = phase_mass(f, grid) - m0
        assert dm == pytest.approx(-dt * (tr_lo + tr_hi), abs=1e-13)


def test_diffuse_kernel_discrete_conditions(grid):
    # the builder's matrices: the outgoing mass flux is returned, the wall
    # Maxwellian is re-emitted as itself, and the right wall mirrors the left
    xi, speed = grid.xi, np.abs(grid.xi)
    for theta in (0.5, 1.0, 2.3):
        k_lo, k_hi = wall_kernels("diffuse", grid, theta)
        mw = np.exp(-0.5 * xi * xi / theta)
        for k, out in ((k_lo, xi < 0), (k_hi, xi > 0)):
            np.testing.assert_allclose((k @ speed)[out], speed[out], rtol=1e-13)
            np.testing.assert_array_equal(k[~out], 0.0)  # incoming rows scatter nothing
            np.testing.assert_array_equal(k[:, out], 0.0)  # nothing is emitted outward
            np.testing.assert_allclose((mw @ k)[~out], mw[~out], rtol=1e-13)
        np.testing.assert_array_equal(k_hi, k_lo[::-1, ::-1])
        assert k_hi.flags.c_contiguous


def test_specular_and_absorbing_kernels(grid):
    k_lo, k_hi = specular(grid)
    f = np.arange(1.0, grid.nv + 1.0)
    for k, inc in ((k_lo, grid.xi > 0), (k_hi, grid.xi < 0)):
        np.testing.assert_array_equal((f @ k)[inc], f[::-1][inc])
        np.testing.assert_array_equal((f @ k)[~inc], 0.0)
    for k in wall_kernels("dirichlet_zero", grid, 1.0):
        np.testing.assert_array_equal(k, 0.0)


def test_wall_kernels_reject_bad_input(grid):
    with pytest.raises(ValueError, match="boundary must be one of"):
        wall_kernels("periodic", grid, 1.0)
    for theta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="positive"):
            wall_kernels("diffuse", grid, theta)
    # the wall Maxwellian underflows on every incoming velocity
    for theta in (1e-5, 1e-320):
        with pytest.raises(ValueError, match="underflows"):
            wall_kernels("diffuse", PhaseGrid(nx=8, nv=16), theta)
    wall_kernels("specular", grid, -1.0)  # the temperature of a specular wall is never read


def test_transport_diffuse_mass_conservation(rng, grid):
    walls = wall_kernels("diffuse", grid, 1.0)
    f = random_positive_f(rng, grid)
    m0 = phase_mass(f, grid)
    dt = 0.8 * grid.dx / grid.v_max
    for _ in range(20):
        f, _, _ = _transport_raw(f, grid, dt, walls)
    assert f.min() >= 0.0
    assert phase_mass(f, grid) == pytest.approx(m0, abs=1e-12)


# ---------------------------------------------------------------------------
# drag advection in velocity
# ---------------------------------------------------------------------------

def test_drag_pulse_drifts_toward_fluid_velocity(grid):
    f = np.zeros((grid.nx, grid.nv))
    j0 = 10  # xi well below v = 2
    f[:, j0] = 1.0
    v = np.full(grid.nx, 2.0)
    dt = 0.5 * grid.dv / (2.0 + grid.v_max)
    out, _ = _drag_raw(f, v, dt, grid)
    mean0 = quad_v(grid.xi * f, grid) / quad_v(f, grid)
    mean1 = quad_v(grid.xi * out, grid) / quad_v(out, grid)
    assert np.all(mean1 > mean0)  # drift has the sign of v - xi


def test_drag_preserves_evenness_when_v_zero(grid):
    even = np.exp(-0.3 * grid.xi**2)
    f = np.tile(even, (grid.nx, 1))
    dt = 0.5 * grid.dv / grid.v_max
    out, _ = _drag_raw(f, np.zeros(grid.nx), dt, grid)
    np.testing.assert_allclose(out, out[:, ::-1], rtol=1e-14, atol=1e-300)


def test_drag_mass_conservation(rng, grid):
    f = random_positive_f(rng, grid)
    m0 = phase_mass(f, grid)
    v = 1.5 * np.sin(2 * np.pi * grid.x)
    dt = 0.5 * grid.dv / (1.5 + grid.v_max)
    for _ in range(40):
        f, _ = _drag_raw(f, v, dt, grid)
    assert f.min() >= 0.0
    assert phase_mass(f, grid) == pytest.approx(m0, abs=1e-12)


def test_drag_cfl_violation_raises(grid):
    with pytest.raises(CFLError):
        _drag_raw(np.ones((grid.nx, grid.nv)), np.zeros(grid.nx), 10 * grid.dv / grid.v_max, grid)


# ---------------------------------------------------------------------------
# velocity relaxation solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_relaxation_maxwellian_stationarity(eps, grid):
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    u = 0.2 * np.cos(2 * np.pi * grid.x)
    f = maxwellian(rho, u, grid).f
    out = _fp_raw(f, u, 1e-3, grid, eps)
    assert np.abs(out - f).max() <= 1e-10


def test_relaxation_per_cell_mass_conservation(rng, grid):
    f = random_positive_f(rng, grid)
    u = compute_moments(f, grid).u
    out = _fp_raw(f, u, 2e-3, grid, 0.5)
    np.testing.assert_allclose(quad_v(out, grid), quad_v(f, grid), rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("a", [50.0, 500.0])
def test_relaxation_stiff_mass_and_stationarity(a, rng, grid):
    # stiff relaxation, a = dt/(eps*dv^2) >= 50: per-cell mass and discrete
    # Maxwellians survive the rounding of the tridiagonal solve
    dt = 1e-3
    eps = dt / (a * grid.dv**2)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    u = 1.5 * np.cos(2 * np.pi * grid.x)
    m = maxwellian(rho, u, grid).f
    out = _fp_raw(m, u, dt, grid, eps)
    assert np.abs(out - m).max() <= 1e-12 * m.max()
    f = random_positive_f(rng, grid)
    out = _fp_raw(f, u, dt, grid, eps)
    np.testing.assert_allclose(quad_v(out, grid), quad_v(f, grid), rtol=1e-13, atol=0.0)


def test_relaxation_decreases_relative_entropy(rng, grid):
    eps = 0.2
    f = KineticState(f=random_positive_f(rng, grid))
    mom = compute_moments(f, grid)
    before = maxwellian_gap(f, mom.rho, mom.u, grid)[0]
    out = KineticState(f=_fp_raw(f.f, mom.u, 1e-3, grid, eps))
    after = maxwellian_gap(out, mom.rho, mom.u, grid)[0]
    assert after < before


def test_every_substep_preserves_positivity(rng, grid):
    # random nonnegative data through each sub-step and the composition
    eps = 0.1
    f = random_positive_f(rng, grid)
    f[rng.random(f.shape) < 0.3] = 0.0  # sprinkle hard zeros
    v = 0.8 * np.sin(2 * np.pi * grid.x)
    dt = 0.4 * grid.dx / grid.v_max
    out_t, _, _ = _transport_raw(f, grid, dt, specular(grid))
    assert out_t.min() >= 0.0
    out_d, _ = _drag_raw(f, v, dt, grid)
    assert out_d.min() >= 0.0
    out_r = _fp_raw(f, compute_moments(f, grid).u, dt, grid, eps)
    assert out_r.min() >= -1e-14
    out_full, _ = kinetic_step(KineticState(f=f), FluidState(n=np.ones(grid.nx), v=v), dt, grid, eps, specular(grid))
    assert out_full.f.min() >= -1e-14


def test_relaxation_preserves_positivity(rng, grid):
    eps = 0.01
    f = np.zeros((grid.nx, grid.nv))
    f[:, 5] = rng.random(grid.nx)  # harsh: a near-delta profile
    out = _fp_raw(f, np.zeros(grid.nx), 0.05, grid, eps)
    assert out.min() >= -1e-14


# ---------------------------------------------------------------------------
# composed step
# ---------------------------------------------------------------------------

def _uniform_fluid(grid, v=0.0):
    return FluidState(n=np.ones(grid.nx), v=np.full(grid.nx, v))


def test_kinetic_step_mass_conservation(rng, grid):
    eps = 0.5
    f = KineticState(f=random_positive_f(rng, grid))
    fl = _uniform_fluid(grid)
    dt = 0.8 * 2 * grid.dx / grid.v_max
    m0 = phase_mass(f.f, grid)
    for _ in range(20):
        f, rep = kinetic_step(f, fl, dt, grid, eps, specular(grid))
        assert rep.truncation_leak == 0.0
    assert phase_mass(f.f, grid) == pytest.approx(m0, abs=1e-12)
    assert f.f.min() >= -1e-14


def test_kinetic_step_homogeneous_relaxation_monotone(rng):
    # spatially homogeneous run: the L1 gap to the local Maxwellian decays
    # monotonically through the relaxation transient (below that it settles
    # at the O(eps) finite-relaxation floor, where monotonicity ends)
    grid = PhaseGrid(nx=4, nv=64, v_max=8.0)
    eps = 0.05
    prof = 0.2 + np.abs(np.sin(3.0 * grid.xi)) * np.exp(-0.2 * grid.xi**2)
    f = KineticState(f=np.tile(prof * np.exp(-0.1 * grid.xi**2), (grid.nx, 1)))
    fl = _uniform_fluid(grid)
    dt = 0.4 * 2 * grid.dx / grid.v_max
    gaps = []
    for _ in range(12):
        mom = compute_moments(f, grid)
        m = maxwellian(mom.rho, mom.u, grid)
        gaps.append(l1_distance(f.f, m.f, grid))
        f, _ = kinetic_step(f, fl, dt, grid, eps, specular(grid))
    floor = 2.0 * eps * gaps[0]
    active = [k for k in range(len(gaps) - 1) if gaps[k] > floor]
    assert len(active) >= 4
    assert all(gaps[k + 1] < gaps[k] for k in active)
    assert min(gaps) < 0.05 * gaps[0]


def test_kinetic_step_splitting_self_convergence_order():
    # per-step self-convergence order of the split composition (>= ~2; the
    # positivity-preserving implicit relaxation sub-step caps it at 2)
    grid = PhaseGrid(nx=4, nv=64, v_max=8.0)
    eps = 1.0
    f0 = maxwellian(np.ones(grid.nx), np.zeros(grid.nx), grid)
    fl = _uniform_fluid(grid, v=0.0)

    def advance(f, dt, substeps):
        for _ in range(substeps):
            f, _ = kinetic_step(f, fl, dt, grid, eps, specular(grid))
        return f

    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        one = advance(f0, dt, 1)
        two = advance(f0, dt / 2, 2)
        errs.append(l1_distance(one.f, two.f, grid))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9

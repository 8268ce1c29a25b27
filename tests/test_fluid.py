import numpy as np
import pytest

from kinfluid.core import CFLError, FluidState, PhaseGrid, VacuumError, quad_x
from kinfluid.fluid import N_FLOOR, dirichlet_grad_sq, gas_substep, ns_step, pressure

from paper_checks import fluid_energy


@pytest.fixture
def fgrid():
    return PhaseGrid(nx=64, nv=2, x_lo=0.0, x_hi=1.0)


def smooth_fluid(grid, gamma=2.0):
    n = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    v = 0.1 * np.sin(2 * np.pi * grid.x) * np.sin(np.pi * grid.x) ** 2
    return FluidState(n=n, v=v, gamma=gamma)


def gas_only(fl, dt, grid):
    """One drag-free gas sub-step as a FluidState."""
    n, v = gas_substep(fl.n, fl.v, dt, grid, fl.gamma)
    return FluidState(n=n, v=v, gamma=fl.gamma)


def test_pressure_values():
    assert pressure(np.array([1.0]), 1.4)[0] == 1.0
    assert pressure(np.array([2.0]), 2.0)[0] == 4.0
    with pytest.raises(VacuumError):
        pressure(np.array([0.0]), 2.0)
    with pytest.raises(VacuumError):
        pressure(np.array([-1.0]), 2.0)


def test_pressure_derivative_finite_difference():
    # oracle: central difference of n^gamma at n = 1.5, gamma = 1.6
    gamma, n0, h = 1.6, 1.5, 1e-6
    fd = (pressure(np.array([n0 + h]), gamma)[0] - pressure(np.array([n0 - h]), gamma)[0]) / (2 * h)
    assert fd == pytest.approx(gamma * n0 ** (gamma - 1.0), abs=1e-6)


def test_constant_state_fixed_point(fgrid):
    fl = FluidState(n=np.ones(fgrid.nx), v=np.zeros(fgrid.nx))
    out = gas_only(fl, 1e-3, fgrid)
    np.testing.assert_array_equal(out.n, fl.n)
    np.testing.assert_allclose(out.v, 0.0, atol=1e-16)


def test_mass_conservation_per_step(fgrid):
    fl = smooth_fluid(fgrid)
    m0 = quad_x(fl.n, fgrid)
    dt = 0.4 * fgrid.dx / 2.0
    for _ in range(50):
        fl = gas_only(fl, dt, fgrid)
        assert quad_x(fl.n, fgrid) == pytest.approx(m0, abs=1e-12)


def test_drag_with_matching_velocity_is_identity(fgrid):
    # isolate the drag stage: v = 0 constant state, drag toward 0
    fl = FluidState(n=np.ones(fgrid.nx), v=np.zeros(fgrid.nx))
    out = ns_step(fl, np.ones(fgrid.nx), np.zeros(fgrid.nx), 1e-3, fgrid)
    np.testing.assert_allclose(out.v, 0.0, atol=1e-14)
    np.testing.assert_array_equal(out.n, fl.n)


def test_energy_non_increase_without_drag(fgrid):
    # discrete energy inequality of the isolated gas sub-steps
    fl = smooth_fluid(fgrid)
    dt = 0.5 * fgrid.dx / (np.abs(fl.v).max() + np.sqrt(2.0 * fl.n.max()))
    e = fluid_energy(fl, fgrid)
    for _ in range(200):
        fl = gas_only(fl, dt, fgrid)
        e_new = fluid_energy(fl, fgrid)
        assert e_new <= e + 1e-8
        e = e_new


def test_viscous_wall_values_exact(fgrid):
    # after the implicit solve the mirror-ghost interpolation puts v = 0 on
    # both wall faces by construction; check the discrete solve satisfies
    # its stencil including the boundary rows
    fl = smooth_fluid(fgrid)
    dt = 1e-3
    out = gas_only(fl, dt, fgrid)
    v = out.v
    n = out.n
    lap = np.empty_like(v)
    vg_lo, vg_hi = -v[0], -v[-1]
    lap[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / fgrid.dx**2
    lap[0] = (v[1] - 2 * v[0] + vg_lo) / fgrid.dx**2
    lap[-1] = (vg_hi - 2 * v[-1] + v[-2]) / fgrid.dx**2
    # residual of n*v - dt*lap(v) = m_star: recompute m_star from the
    # hyperbolic half independently
    from kinfluid.fluid import rusanov_step

    n1, m1 = rusanov_step(fl.n, fl.n * fl.v, dt, fgrid, fl.gamma)
    np.testing.assert_allclose(n * v - dt * lap, m1, rtol=1e-10, atol=1e-12)


def test_vacuum_error(fgrid):
    with pytest.raises(VacuumError):
        FluidState(n=np.zeros(fgrid.nx), v=np.zeros(fgrid.nx))


def test_gas_substep_vacuum_floor(fgrid):
    # a gas at rest keeps its uniform density through the Rusanov update,
    # which then lies below the vacuum floor
    n = np.full(fgrid.nx, 1e-11)
    assert 0.0 < n[0] < N_FLOOR
    with pytest.raises(VacuumError, match=r"^fluid density hit the vacuum floor \(min 1e-11\)$"):
        gas_substep(n, np.zeros(fgrid.nx), 1e-3, fgrid, 2.0)


def test_cfl_error(fgrid):
    fl = smooth_fluid(fgrid)
    with pytest.raises(CFLError):
        gas_only(fl, 10 * fgrid.dx, fgrid)


def test_grad_sq_matches_quadratic_form(rng, fgrid):
    # oracle: <-Lap v, v> dx with the same ghost convention, dense assembly
    v = rng.standard_normal(fgrid.nx)
    n = fgrid.nx
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 2.0
        if i > 0:
            a[i, i - 1] = -1.0
        if i < n - 1:
            a[i, i + 1] = -1.0
    a[0, 0] += 1.0
    a[-1, -1] += 1.0
    expect = float(v @ a @ v) / fgrid.dx
    assert dirichlet_grad_sq(v, fgrid) == pytest.approx(expect, rel=1e-12)

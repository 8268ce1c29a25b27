import math

import numpy as np
import pytest

from kinfluid import limit
from kinfluid.core import CFLError, FluidState, PhaseGrid, PositivityError, TwoPhaseState, l2_distance, quad_x
from kinfluid.limit import (
    PicardSetup,
    SymHypState,
    drag_exchange,
    euler_step,
    from_symhyp,
    initial_trajectory,
    picard_iterate,
    picard_solve,
    to_symhyp,
    two_phase_step,
)

from paper_checks import density_positivity_check


@pytest.fixture
def xgrid():
    return PhaseGrid(nx=64, nv=2, x_lo=0.0, x_hi=1.0)


def small_two_phase(grid, amp=0.04):
    x = grid.x
    rho = 1.0 + amp * np.sin(2 * np.pi * x)
    u = amp * np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2
    n = 1.0 + 0.5 * amp * np.cos(2 * np.pi * x)
    v = np.zeros_like(x)
    return TwoPhaseState(rho=rho, u=u, fluid=FluidState(n=n, v=v, gamma=2.0))


# ---------------------------------------------------------------------------
# particle-phase hyperbolic step
# ---------------------------------------------------------------------------

def test_euler_constant_state_fixed_point(xgrid):
    rho, u = euler_step(np.ones(xgrid.nx), np.zeros(xgrid.nx), 1e-3, xgrid)
    np.testing.assert_array_equal(rho, np.ones(xgrid.nx))
    np.testing.assert_allclose(u, 0.0, atol=1e-16)


def test_euler_mass_conservation(xgrid):
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * xgrid.x)
    u = 0.1 * np.sin(np.pi * xgrid.x) ** 2 * np.sin(2 * np.pi * xgrid.x)
    m0 = quad_x(rho, xgrid)
    dt = 0.4 * xgrid.dx / 1.5
    for _ in range(100):
        rho, u = euler_step(rho, u, dt, xgrid)
        assert quad_x(rho, xgrid) == pytest.approx(m0, abs=1e-12)


def test_acoustic_pulse_speed_near_unity():
    # oracle: the linearized system has unit sound speed; track the peak of a
    # small right-going pulse
    grid = PhaseGrid(nx=512, nv=2, x_lo=0.0, x_hi=1.0)
    x = grid.x
    bump = 1e-3 * np.exp(-0.5 * ((x - 0.35) / 0.04) ** 2)
    rho = 1.0 + bump
    u = bump.copy()  # right-moving simple-wave initialization
    dt = 0.4 * grid.dx / (1.0 + 2e-3)
    t_final = 0.25
    steps = int(round(t_final / dt))
    for _ in range(steps):
        rho, u = euler_step(rho, u, dt, grid)
    t_real = steps * dt
    peak = x[np.argmax(rho)]
    speed = (peak - 0.35) / t_real
    assert speed == pytest.approx(1.0, rel=0.05)


# ---------------------------------------------------------------------------
# coupled two-phase stepping
# ---------------------------------------------------------------------------

def test_two_phase_rest_state_fixed_point(xgrid):
    st = TwoPhaseState(
        rho=np.ones(xgrid.nx), u=np.zeros(xgrid.nx),
        fluid=FluidState(n=np.ones(xgrid.nx), v=np.zeros(xgrid.nx)),
    )
    out = two_phase_step(st, 1e-3, xgrid)
    np.testing.assert_array_equal(out.rho, st.rho)
    np.testing.assert_allclose(out.u, 0.0, atol=1e-16)
    np.testing.assert_array_equal(out.fluid.n, st.fluid.n)
    np.testing.assert_allclose(out.fluid.v, 0.0, atol=1e-16)


def test_drag_exchange_momentum_antisymmetry(rng, xgrid):
    for _ in range(25):
        rho = rng.random(xgrid.nx) + 0.2
        n = rng.random(xgrid.nx) + 0.2
        u = rng.standard_normal(xgrid.nx)
        v = rng.standard_normal(xgrid.nx)
        u2, v2 = drag_exchange(rho, u, n, v, 0.01)
        dpp = quad_x(rho * (u2 - u), xgrid)
        dpf = quad_x(n * (v2 - v), xgrid)
        assert abs(dpp + dpf) <= 1e-14 * max(1.0, abs(dpp))
        # pointwise momentum conservation of the pair
        np.testing.assert_allclose(rho * (u2 - u) + n * (v2 - v), 0.0, atol=1e-15)


def test_two_phase_mass_conservation(xgrid):
    st = small_two_phase(xgrid)
    m_rho = quad_x(st.rho, xgrid)
    m_n = quad_x(st.fluid.n, xgrid)
    dt = 0.4 * 2 * xgrid.dx / 2.5
    for _ in range(60):
        st = two_phase_step(st, dt, xgrid)
    assert quad_x(st.rho, xgrid) == pytest.approx(m_rho, abs=1e-12)
    assert quad_x(st.fluid.n, xgrid) == pytest.approx(m_n, abs=1e-12)


def test_drag_exchange_closed_form(rng, xgrid):
    # oracle: the gap obeys d(u - v)/dt = -(1 + rho/n)(u - v) exactly
    for dt in (0.01, 0.5, 3.0):
        rho = rng.random(xgrid.nx) + 0.2
        n = rng.random(xgrid.nx) + 0.2
        u = rng.standard_normal(xgrid.nx)
        v = rng.standard_normal(xgrid.nx)
        u2, v2 = drag_exchange(rho, u, n, v, dt)
        np.testing.assert_allclose(u2 - v2, (u - v) * np.exp(-(1.0 + rho / n) * dt), rtol=1e-12, atol=1e-14)


def test_euler_walls_push_back():
    # uniform flow into the right wall: the kinematic ghost (negated u)
    # slows the wall cell and leaves the uniform interior untouched
    grid = PhaseGrid(nx=32, nv=2)
    _, u = euler_step(np.ones(grid.nx), np.full(grid.nx, 0.5), 1e-3, grid)
    assert u[1] == 0.5
    assert abs(u[-1]) < abs(u[1])


# ---------------------------------------------------------------------------
# reformulated variables
# ---------------------------------------------------------------------------

def test_symhyp_roundtrip(xgrid):
    st = small_two_phase(xgrid)
    sh = to_symhyp(st, xgrid)
    back = from_symhyp(sh, xgrid, gamma=st.fluid.gamma)
    np.testing.assert_allclose(back.rho, st.rho, rtol=1e-15)
    np.testing.assert_allclose(back.u, st.u, rtol=0, atol=0)
    np.testing.assert_allclose(back.fluid.n, st.fluid.n, rtol=1e-15)
    np.testing.assert_allclose(back.fluid.v, st.fluid.v, rtol=0, atol=0)


def test_symhyp_unit_values(xgrid):
    st = TwoPhaseState(
        rho=np.ones(xgrid.nx), u=np.zeros(xgrid.nx),
        fluid=FluidState(n=np.ones(xgrid.nx), v=np.zeros(xgrid.nx)),
    )
    sh = to_symhyp(st, xgrid)  # |domain| = 1
    np.testing.assert_allclose(sh.g, 0.0, atol=1e-16)
    np.testing.assert_allclose(sh.h, 0.0, atol=1e-16)


def test_symhyp_positivity_validation(xgrid):
    with pytest.raises(PositivityError):
        SymHypState(
            g=np.zeros(xgrid.nx), u=np.zeros(xgrid.nx),
            h=np.full(xgrid.nx, -1.5), v=np.zeros(xgrid.nx),
        )


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------

def _picard_setup(grid, t_final=0.25, cfl=0.4, gamma=2.0):
    # small data: speeds below |v| + c <= 0.1 + sqrt(2.2)
    nt = int(math.ceil(t_final / (cfl * grid.dx / 1.8)))
    return PicardSetup(grid=grid, t_final=t_final, nt=nt, gamma=gamma)


def test_picard_zero_data_stays_zero(xgrid):
    setup = _picard_setup(xgrid)
    z = np.zeros(xgrid.nx)
    init = SymHypState(g=z, u=z.copy(), h=z.copy(), v=z.copy())
    traj, reps = picard_solve(init, setup, max_iter=3)
    assert all(r.cauchy_l2 == 0.0 for r in reps)
    assert np.all(traj.g == 0.0) and np.all(traj.v == 0.0)


def test_picard_contraction_small_data():
    grid = PhaseGrid(nx=128, nv=2)
    setup = _picard_setup(grid)
    x = grid.x
    amp = 0.04
    init = SymHypState(
        g=amp * np.sin(2 * np.pi * x),
        u=amp * np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2,
        h=0.5 * amp * np.cos(2 * np.pi * x),
        v=np.zeros(grid.nx),
    )
    traj, reps = picard_solve(init, setup, max_iter=9)
    for rep in reps:
        if rep.m >= 2:
            assert rep.contraction_ratio < 1.0
    assert reps[-1].cauchy_l2 < 1e-10


def test_picard_agrees_with_direct_solver():
    # cross-solver oracle: converged iterate vs the direct conservative march
    grid = PhaseGrid(nx=128, nv=2)
    setup = _picard_setup(grid)
    st0 = small_two_phase(grid)
    init = to_symhyp(st0, grid)
    traj, _ = picard_solve(init, setup, max_iter=10)

    st = st0
    dt = setup.dt
    for _ in range(setup.nt):
        st = two_phase_step(st, dt, grid)
    final = from_symhyp(
        SymHypState(g=traj.g[-1], u=traj.u[-1], h=traj.h[-1], v=traj.v[-1], t=setup.t_final),
        grid, gamma=2.0,
    )
    gap = (
        l2_distance(final.rho, st.rho, grid)
        + l2_distance(final.u, st.u, grid)
        + l2_distance(final.fluid.n, st.fluid.n, grid)
        + l2_distance(final.fluid.v, st.fluid.v, grid)
    )
    assert gap <= 10.0 * (dt + grid.dx)


def test_picard_iterate_requires_positive_density(xgrid):
    setup = _picard_setup(xgrid)
    z = np.zeros(xgrid.nx)
    init = SymHypState(g=z, u=z.copy(), h=z.copy(), v=z.copy())
    traj = initial_trajectory(init, setup)
    traj.h[0] = -1.0 + 1e-9  # legal but respecting invariant
    bad = initial_trajectory(init, setup)
    bad.h[:] = -2.0
    with pytest.raises(PositivityError):
        picard_iterate(bad, setup)


@pytest.mark.parametrize("nt", [1, 15, 16, 17, 40])
def test_picard_blocks_leave_bits_unchanged(monkeypatch, nt):
    # the frozen coefficients are built per block of levels; one level per
    # block is the plain per-level march, and both give the same bits
    grid = PhaseGrid(nx=33, nv=2)
    setup = PicardSetup(grid=grid, t_final=nt * 0.4 * grid.dx / 1.8, nt=nt)
    init = to_symhyp(small_two_phase(grid, amp=0.3), grid)

    def solve():
        traj, reps = picard_solve(init, setup, max_iter=4)
        return [traj.g, traj.u, traj.h, traj.v], [repr(r) for r in reps]

    blocked = solve()
    monkeypatch.setattr(limit, "_BLOCK", 1)
    per_level = solve()
    for a, b in zip(blocked[0], per_level[0]):
        np.testing.assert_array_equal(a, b)
    assert blocked[1] == per_level[1]


@pytest.mark.parametrize(
    "cfl_level, error, match",
    [
        (None, PositivityError, "level 20"),
        (18, CFLError, "fixed-point CFL violated"),
        (20, PositivityError, "level 20"),  # at one level, 1 + h is checked first
        (25, PositivityError, "level 20"),
    ],
)
def test_picard_iterate_raises_at_the_first_failing_level(xgrid, cfl_level, error, match):
    setup = _picard_setup(xgrid)
    assert setup.nt > 32 and limit._BLOCK < 20
    z = np.zeros(xgrid.nx)
    prev = initial_trajectory(SymHypState(g=z, u=z.copy(), h=z.copy(), v=z.copy()), setup)
    prev.h[20] = -1.5
    if cfl_level is not None:
        prev.v[cfl_level] = 100.0
    with pytest.raises(error, match=match):
        picard_iterate(prev, setup)


# ---------------------------------------------------------------------------
# density representation along characteristics
# ---------------------------------------------------------------------------

def test_positivity_check_zero_velocity(xgrid):
    K = 9
    h_path = np.tile(0.2 * np.cos(2 * np.pi * xgrid.x), (K, 1))
    v_path = np.zeros((K, xgrid.nx))
    res = density_positivity_check(h_path, v_path, 0.05, xgrid)
    assert res.max_rel_deviation <= 1e-14
    assert res.min_one_plus_h == pytest.approx(0.8, abs=1e-3)


def test_positivity_check_uniform_compression():
    # hook: prescribed v = -(x - 1/2) compresses uniformly; evolving
    # d/dt(1+h) = (1+h) gives exponential growth matching the characteristic
    # formula to 1%
    grid = PhaseGrid(nx=128, nv=2)
    dt = 1e-3
    t_final = 0.5
    K = int(t_final / dt) + 1
    v = -(grid.x - 0.5)
    h_path = np.empty((K, grid.nx))
    v_path = np.tile(v, (K, 1))
    big_h = np.ones(grid.nx)
    h_path[0] = big_h - 1.0
    for k in range(1, K):
        # upwind transport of 1+h by the prescribed velocity + compression
        hp = np.concatenate(([big_h[0]], big_h, [big_h[-1]]))
        dm = hp[1:-1] - hp[:-2]
        dp = hp[2:] - hp[1:-1]
        adv = np.where(v > 0, v * dm, v * dp) / grid.dx
        divv = -1.0  # exact for the linear profile
        big_h = big_h - dt * (adv + big_h * divv)
        h_path[k] = big_h - 1.0
    res = density_positivity_check(h_path, v_path, dt, grid)
    assert res.max_rel_deviation <= 0.01
    assert res.min_one_plus_h > 0
    # sanity: final uniform value matches e^{t}
    np.testing.assert_allclose(1.0 + h_path[-1], math.e ** t_final, rtol=2e-3)

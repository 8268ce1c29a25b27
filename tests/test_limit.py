import json
import math
import warnings

import numpy as np
import pytest

from kinfluid import limit
from kinfluid.cli import EXIT_CONFIG, main_simulate_kinetic, main_simulate_limit
from kinfluid.core import (
    CFLError,
    ConfigError,
    FluidState,
    PhaseGrid,
    PositivityError,
    SolverError,
    TwoPhaseState,
    VacuumError,
    dirichlet_elimination,
    l2_distance,
    quad_x,
    tridiag_dirichlet_solve,
)
from kinfluid.fluid import N_FLOOR
from kinfluid.harness import ExperimentConfig
from kinfluid.limit import (
    PicardSetup,
    SymHypState,
    drag_exchange,
    euler_step,
    from_symhyp,
    picard_iterate,
    picard_solve,
    to_symhyp,
    two_phase_step,
)

from paper_checks import density_positivity_check


@pytest.fixture
def xgrid():
    return PhaseGrid(nx=64, nv=2, x_lo=0.0, x_hi=1.0)


def constant_iterate(init, setup):
    """Iterate 0 of picard_solve: the level init held over all nt + 1 levels."""
    return SymHypState(*(np.tile(a, (setup.nt + 1, 1)) for a in (init.g, init.u, init.h, init.v)))


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


def test_euler_vacuum_floor(xgrid):
    # particles at rest keep their uniform density through the Rusanov
    # update, which then lies below the vacuum floor
    rho = np.full(xgrid.nx, 1e-11)
    assert 0.0 < rho[0] < N_FLOOR
    with pytest.raises(VacuumError, match=r"^particle density hit the vacuum floor \(min 1e-11\)$"):
        euler_step(rho, np.zeros(xgrid.nx), 1e-3, xgrid)


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
    traj = constant_iterate(init, setup)
    traj.h[0] = -1.0 + 1e-9  # legal but respecting invariant
    bad = constant_iterate(init, setup)
    bad.h[:] = -2.0
    with pytest.raises(PositivityError):
        picard_iterate(bad, setup)


def test_picard_iterates_are_level_stacks(xgrid):
    setup = _picard_setup(xgrid)
    init = to_symhyp(small_two_phase(xgrid), xgrid)
    prev = constant_iterate(init, setup)
    nxt, cauchy = picard_iterate(prev, setup)
    assert isinstance(nxt, SymHypState) and isinstance(cauchy, float) and cauchy > 0
    for name in ("g", "u", "h", "v"):
        assert getattr(nxt, name).shape == (setup.nt + 1, xgrid.nx)
        np.testing.assert_array_equal(getattr(nxt, name)[0], getattr(init, name))
    traj, reps = picard_solve(init, setup, max_iter=2)
    assert [r.m for r in reps] == [1, 2] and reps[0].cauchy_l2 == cauchy
    assert math.isnan(reps[0].contraction_ratio)
    assert reps[1].contraction_ratio == reps[1].cauchy_l2 / cauchy


def test_picard_iterate_rejects_an_iterate_that_loses_positivity(xgrid, monkeypatch):
    # every level of prev passes its checks; the new iterate's h is pushed
    # below -1, which building its SymHypState rejects
    setup = _picard_setup(xgrid)
    z = np.zeros(xgrid.nx)
    prev = constant_iterate(SymHypState(g=z, u=z.copy(), h=z.copy(), v=z.copy()), setup)
    increments = limit._upwind_increments
    monkeypatch.setattr(limit, "_upwind_increments", lambda *a: (increments(*a)[0] - 0.1, increments(*a)[1]))
    with pytest.raises(PositivityError, match="1 \\+ h must stay positive"):
        picard_iterate(prev, setup)


def fused_dirichlet_solve(diag_add, coeff, rhs):
    """The one-row Dirichlet solve as one Thomas loop, the elimination and
    the forward substitution fused, as the solve ran before it was split in
    two: the reference the split solve must match bit for bit."""
    n = rhs.shape[0]
    coeff = np.asarray(coeff, dtype=float)
    c = coeff.tolist()
    if coeff.ndim == 0:
        c = [c] * n
    diag = diag_add + 2.0 * coeff
    diag[0] += c[0]
    diag[-1] += c[-1]
    w_prev = y_prev = 0.0
    w, y = [], []
    for d_i, c_i, r_i in zip(diag.tolist(), c, rhs.tolist()):
        m_i = d_i - c_i * w_prev
        w_prev = c_i / m_i
        y_prev = (r_i + c_i * y_prev) / m_i
        w.append(w_prev)
        y.append(y_prev)
    v_next = y_prev
    v = [v_next]
    for w_i, y_i in zip(reversed(w[:-1]), reversed(y[:-1])):
        v_next = y_i + w_i * v_next
        v.append(v_next)
    return np.array(v[::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 256])
@pytest.mark.parametrize("per_row", [False, True])
def test_split_dirichlet_solve_matches_the_fused_loop(rng, n, per_row):
    # one row eliminated and substituted, and each row of a stacked
    # elimination substituted, have the bytes of the fused loop; the stack
    # shares one diag_add row, as picard_iterate's levels do, or has its own
    k = 5
    diag_add = 0.5 + rng.random((k, n))
    coeff = 0.1 + 2.0 * rng.random((k, n)) if per_row else 0.8
    rhs = rng.standard_normal((k, n))
    stacks = [(diag_add, dirichlet_elimination(diag_add, coeff))]
    if per_row:
        stacks.append((np.ones((k, n)), dirichlet_elimination(np.ones(n), coeff)))
    for diags, stacked in stacks:
        assert stacked.shape == (k, 3, n)
        for j in range(k):
            coeff_j = coeff[j] if per_row else coeff
            expect = fused_dirichlet_solve(diags[j], coeff_j, rhs[j]).tobytes()
            one = tridiag_dirichlet_solve(dirichlet_elimination(diags[j], coeff_j), rhs[j])
            assert one.tobytes() == expect, (n, j)
            assert tridiag_dirichlet_solve(stacked[j], rhs[j]).tobytes() == expect, (n, j)


def per_phase_iterate(prev, setup):
    """picard_iterate with the two phases of a level advanced by two
    upwind calls, each padding its own pair of fields, and each level's
    viscous row solved by the fused loop: the reference the stacked pass
    must match bit for bit."""
    grid, dt, nt = setup.grid, setup.dt, setup.nt
    r = dt / grid.dx

    def coefficients(lam1, lam2, ratio):
        l1p, l1m = np.maximum(lam1, 0.0), np.minimum(lam1, 0.0)
        l2p, l2m = np.maximum(lam2, 0.0), np.minimum(lam2, 0.0)
        sp, dpm = 0.5 * (l1p + l2p), 0.5 * (l1p - l2p)
        sm, dmm = 0.5 * (l1m + l2m), 0.5 * (l1m - l2m)
        return sp, dpm * ratio, sm, dmm * ratio, dpm / ratio, dmm / ratio

    def increments(q1, q2, coef):
        sp, dpm_r, sm, dmm_r, dpm_over_r, dmm_over_r = coef
        q1p = np.concatenate(([q1[0]], q1, [q1[-1]]))
        q2p = np.concatenate(([-q2[0]], q2, [-q2[-1]]))
        dm1, dp1 = q1p[1:-1] - q1p[:-2], q1p[2:] - q1p[1:-1]
        dm2, dp2 = q2p[1:-1] - q2p[:-2], q2p[2:] - q2p[1:-1]
        inc1 = -r * (sp * dm1 + dpm_r * dm2 + sm * dp1 + dmm_r * dp2)
        inc2 = -r * (dpm_over_r * dm1 + sp * dm2 + dmm_over_r * dp1 + sm * dp2)
        return inc1, inc2

    g, u, h, v = (np.empty((nt + 1, grid.nx)) for _ in range(4))
    g[0], u[0], h[0], v[0] = prev.g[0], prev.u[0], prev.h[0], prev.v[0]
    ones = np.ones(grid.nx)
    for k0 in range(0, nt, limit._BLOCK):
        blk = slice(k0, min(k0 + limit._BLOCK, nt))
        gm, um, hm, vm = prev.g[blk], prev.u[blk], prev.h[blk], prev.v[blk]
        big_h = 1.0 + hm
        c = limit._checked_sound_speed(big_h, um, vm, k0, setup)
        gas = coefficients(vm + c, vm - c, big_h / c)
        drag = dt * (np.exp(gm) / (grid.length * big_h) * (um - vm))
        visc = dt / (big_h * grid.dx**2)
        particle = coefficients(um + 1.0, um - 1.0, 1.0)
        for j, k in enumerate(range(blk.start, blk.stop)):
            inc_h, inc_v = increments(h[k], v[k], [a[j] for a in gas])
            h[k + 1] = h[k] + inc_h
            v_new = fused_dirichlet_solve(ones, visc[j], v[k] + inc_v + drag[j])
            v[k + 1] = v_new
            inc_g, inc_u = increments(g[k], u[k], [a[j] for a in particle])
            g[k + 1] = g[k] + inc_g
            u[k + 1] = (u[k] + inc_u + dt * v_new) / (1.0 + dt)
    dist = [
        np.sqrt(grid.dx * np.square(a - b).sum(axis=1)).tolist()
        for a, b in ((g, prev.g), (u, prev.u), (h, prev.h), (v, prev.v))
    ]
    cauchy = max([0.0] + [math.sqrt(dg**2 + du**2 + dh**2 + dv**2) for dg, du, dh, dv in zip(*dist)])
    return SymHypState(g=g, u=u, h=h, v=v), cauchy


@pytest.mark.parametrize("nt", [1, 15, 16, 17, 40])
def test_picard_blocks_leave_bits_unchanged(monkeypatch, nt):
    # the frozen coefficients are built per block of levels, and both phases
    # of a level advance in one stacked pass; with one level per block or
    # _BLOCK levels, every iterate has the bits of the per-phase reference
    for nx in (33, 64):
        grid = PhaseGrid(nx=nx, nv=2)
        setup = PicardSetup(grid=grid, t_final=nt * 0.4 * grid.dx / 1.8, nt=nt)
        init = to_symhyp(small_two_phase(grid, amp=0.3), grid)
        for block in (16, 1):
            monkeypatch.setattr(limit, "_BLOCK", block)
            stacked = reference = constant_iterate(init, setup)
            for _ in range(4):
                stacked, cauchy = picard_iterate(stacked, setup)
                reference, cauchy_ref = per_phase_iterate(reference, setup)
                assert cauchy.hex() == cauchy_ref.hex()
                for name in ("g", "u", "h", "v"):
                    a, b = getattr(stacked, name), getattr(reference, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (nx, block, name)


@pytest.mark.parametrize("nan_call", [-1, 6])
def test_picard_iterate_rejects_a_non_finite_level(xgrid, monkeypatch, nan_call):
    # a NaN out of one level's viscous solve must not vanish from the sup
    # over levels of the Cauchy distance; the first non-finite level is named
    setup = _picard_setup(xgrid)
    prev = constant_iterate(to_symhyp(small_two_phase(xgrid), xgrid), setup)
    first_bad = nan_call % setup.nt
    solve, calls = limit.tridiag_dirichlet_solve, []

    def solve_with_a_nan(*args):
        calls.append(None)
        v = solve(*args)
        return np.full_like(v, np.nan) if len(calls) == first_bad + 1 else v

    monkeypatch.setattr(limit, "tridiag_dirichlet_solve", solve_with_a_nan)
    with pytest.raises(SolverError, match=f"not finite at level {first_bad + 1}$"):
        picard_iterate(prev, setup)


@pytest.mark.parametrize(
    "cfl_level, error, match",
    [
        (None, PositivityError, "level 20"),
        (18, CFLError, "fixed-point CFL violated at iterate level 18: "),
        (20, PositivityError, "level 20"),  # at one level, 1 + h is checked first
        (25, PositivityError, "level 20"),
    ],
)
def test_picard_iterate_raises_at_the_first_failing_level(xgrid, cfl_level, error, match):
    setup = _picard_setup(xgrid)
    assert setup.nt > 32 and limit._BLOCK < 20
    z = np.zeros(xgrid.nx)
    prev = constant_iterate(SymHypState(g=z, u=z.copy(), h=z.copy(), v=z.copy()), setup)
    prev.h[20] = -1.5
    if cfl_level is not None:
        prev.v[cfl_level] = 100.0
    with pytest.raises(error, match=match):
        picard_iterate(prev, setup)


@pytest.mark.parametrize(
    "field, value, error, match",
    [
        ("h", -1.0, PositivityError, "1 \\+ h lost positivity at iterate level 20$"),
        ("h", -1.5, PositivityError, "1 \\+ h lost positivity at iterate level 20$"),
        ("h", math.nan, PositivityError, "1 \\+ h lost positivity at iterate level 20$"),
        ("v", math.nan, SolverError, "fixed-point iterate is not finite at level 20$"),
    ],
)
def test_picard_iterate_bad_level_raises_before_any_warning(xgrid, field, value, error, match):
    # every level's viscous row is eliminated before the first level is
    # marched; a bad level at 20 still raises what the march raised there,
    # and no other level's elimination turns it into a RuntimeWarning
    setup = _picard_setup(xgrid)
    prev = constant_iterate(to_symhyp(small_two_phase(xgrid), xgrid), setup)
    getattr(prev, field)[20] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error, match=match):
            picard_iterate(prev, setup)


def test_grid_too_narrow_to_square_is_refused(tmp_path, capsys):
    # on a grid 1e-160 wide dx^2 would be subnormal, so where 1 + h is one
    # ulp above 0 a Picard level's viscous coefficient dt / ((1 + h) dx^2),
    # and the gas sub-step's dt / dx^2, would divide by zero; such a grid,
    # and a config or a CLI run on one, is refused before any solve. The
    # picard solve's "not finite at level k" is reached through the NaN
    # levels above.
    message = r"^cell widths must lie in \[1e-150, 1e150\): the solvers square them$"
    for kw in (dict(x_hi=1e-160), dict(v_max=1e-160)):
        with pytest.raises(ValueError, match=message):
            PhaseGrid(nx=16, nv=2, **kw)
    assert PhaseGrid(nx=1, nv=2, x_hi=1e-150, v_max=1e-150).dx == 1e-150
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(nx=16, nv=8, x_hi=1e-160)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"nx": 16, "nv": 8, "x_hi": 1e-160}))
    capsys.readouterr()
    for main in (main_simulate_kinetic, main_simulate_limit):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cell widths must lie in") and err.count("\n") == 1, err


def test_picard_solve_cfl_error_names_the_level():
    """A particle bump drags the gas faster than it starts: a dt at the
    initial CFL bound is overrun by the first iterate, from level 7 on,
    which the second iterate's check names."""
    grid = PhaseGrid(nx=64, nv=2)
    z = np.zeros(grid.nx)
    init = SymHypState(g=np.exp(-(((grid.x - 0.5) / 0.1) ** 2)), u=z, h=z.copy(), v=z.copy())
    nt = 20
    dt = 0.999 * grid.dx / math.sqrt(2.0)  # sound speed sqrt(gamma) at h = 0
    with pytest.raises(CFLError, match=r"fixed-point CFL violated at iterate level 7: 1\.00"):
        picard_solve(init, PicardSetup(grid=grid, t_final=nt * dt, nt=nt), max_iter=3)


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

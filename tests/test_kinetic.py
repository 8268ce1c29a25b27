import inspect
import math
import tracemalloc

import numpy as np
import pytest

from kinfluid import _kernels, kinetic
from kinfluid.core import (
    CFLError,
    FluidState,
    KineticState,
    PhaseGrid,
    SolverError,
    l1_distance,
    quad_v,
)
from kinfluid.kinetic import (
    KineticWork,
    _drag_constants,
    _drag_raw,
    _fp_raw,
    _transport_raw,
    kinetic_step,
    wall_kernels,
)
from kinfluid.moments import compute_moments, maxwellian

from conftest import kinetic_work, random_positive_f, serve
from paper_checks import maxwellian_gap, phase_mass


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def specular(grid):
    return wall_kernels("specular", grid, 1.0)


def transport(f, grid, dt, walls):
    """One transport sub-step of dt into a new array, in the work set of a
    run whose steps are 2 dt long: (f, trace_lo, trace_hi)."""
    return _transport_raw(f, walls, kinetic_work(grid, 2.0 * dt), np.empty_like(f))


def drag(f, v, dt, grid):
    """One drag sub-step of dt under gas velocity v into a new array, in the
    work set of a run whose steps are 2 dt long: (f, leak)."""
    work = kinetic_work(grid, 2.0 * dt)
    _, leak_weights = _drag_constants(v, work)
    return _drag_raw(f, leak_weights, work, np.empty_like(f))


def relax(f, u, dt, grid, eps):
    """One relaxation sub-step of dt at eps into a new array, in the work
    set of a run of such steps."""
    return _fp_raw(f, u, kinetic_work(grid, dt, eps), np.empty_like(f))


def test_transport_even_profile_is_fixed_point(grid):
    phi = np.exp(-0.5 * grid.xi**2)  # even in xi
    f = np.tile(phi, (grid.nx, 1))
    dt = 0.9 * grid.dx / (grid.v_max - 0.5 * grid.dv)
    out, tr_lo, tr_hi = transport(f, grid, dt, specular(grid))
    np.testing.assert_array_equal(out, f)
    assert tr_lo == tr_hi == 0.0


def test_transport_unit_cfl_exact_shift():
    g = PhaseGrid(nx=16, nv=2, v_max=1.0)  # centers at +-0.5
    f = np.zeros((16, 2))
    f[7, 1] = 1.0  # pulse moving right at xi = +0.5
    dt = g.dx / g.xi[1]
    out, _, _ = transport(f, g, dt, specular(g))
    expect = np.zeros_like(f)
    expect[8, 1] = 1.0
    np.testing.assert_array_equal(out, expect)


def test_transport_cfl_violation_raises(grid):
    # the work set of a run whose transport half-steps are 10 dx / v_max long
    with pytest.raises(CFLError, match="transport CFL violated"):
        KineticWork(grid, 20 * grid.dx / grid.v_max, 0.1)


def test_transport_specular_mass_conservation(rng, grid):
    f = random_positive_f(rng, grid)
    m0 = phase_mass(f, grid)
    dt = 0.8 * grid.dx / grid.v_max
    for _ in range(50):
        f, tr_lo, tr_hi = transport(f, grid, dt, specular(grid))
        assert max(abs(tr_lo), abs(tr_hi)) <= 1e-12
    assert f.min() >= 0.0
    assert phase_mass(f, grid) == pytest.approx(m0, abs=1e-12)


def test_transport_specular_flux_exact_on_awkward_grid(rng):
    # non-dyadic velocity cut: the mirror-pair cancellation must still be exact
    g = PhaseGrid(nx=10, nv=30, v_max=7.3)
    dt = 0.8 * g.dx / g.v_max
    _, tr_lo, tr_hi = transport(random_positive_f(rng, g), g, dt, specular(g))
    assert tr_lo == tr_hi == 0.0


def test_transport_mass_balance_matches_reported_flux(rng, grid):
    # through absorbing walls the mass change equals minus the reported
    # outward wall traces integrated over the step, exactly
    walls = wall_kernels("dirichlet_zero", grid, 1.0)
    f = random_positive_f(rng, grid)
    dt = 0.8 * grid.dx / grid.v_max
    for _ in range(5):
        m0 = phase_mass(f, grid)
        f, tr_lo, tr_hi = transport(f, grid, dt, walls)
        assert tr_lo > 0.0 and tr_hi > 0.0
        dm = phase_mass(f, grid) - m0
        assert dm == pytest.approx(-dt * (tr_lo + tr_hi), abs=1e-13)


def test_diffuse_kernel_discrete_conditions():
    # the builder's blocks: the outgoing mass flux is returned, the wall
    # Maxwellian is re-emitted as itself, and the right wall mirrors the left;
    # s = xi[nv/2:] are the incoming speeds at the left wall, s[::-1] the
    # outgoing ones
    for nv in (30, 64):
        grid = PhaseGrid(nx=8, nv=nv)
        s = grid.xi[nv // 2:]
        for theta in (0.5, 1.0, 2.3):
            b_lo, b_hi = wall_kernels("diffuse", grid, theta)
            mw = np.exp(-0.5 * s * s / theta)
            assert b_lo.shape == b_hi.shape == (nv // 2, nv // 2)
            np.testing.assert_allclose(b_lo @ s, s[::-1], rtol=1e-13)
            np.testing.assert_allclose(b_hi @ s[::-1], s, rtol=1e-13)
            np.testing.assert_allclose(mw[::-1] @ b_lo, mw, rtol=1e-13)
            np.testing.assert_allclose(mw @ b_hi, mw[::-1], rtol=1e-13)
            np.testing.assert_array_equal(b_hi, b_lo[::-1, ::-1])
            assert b_lo.flags.c_contiguous and b_hi.flags.c_contiguous


def test_specular_and_absorbing_kernels(grid):
    h = grid.nv // 2
    f_out = np.arange(1.0, h + 1.0)
    blocks = specular(grid)
    for b in blocks:
        assert b.shape == (h, h) and b.flags.c_contiguous
        np.testing.assert_array_equal(f_out @ b, f_out[::-1])
    np.testing.assert_array_equal(blocks[1], blocks[0][::-1, ::-1])
    for b in wall_kernels("dirichlet_zero", grid, 1.0):
        assert b.shape == (h, h)
        np.testing.assert_array_equal(f_out @ b, 0.0)


@pytest.mark.parametrize("boundary", ["specular", "diffuse", "dirichlet_zero"])
def test_transport_ghost_rows_are_the_upwind_wall_traces(rng, grid, boundary, monkeypatch):
    # the first and last interface rows that the kernel builds stand for the
    # ghost rows: on the outgoing half the boundary row itself, on the
    # incoming half the scattered outgoing half, summed in order over the
    # outgoing velocities (no BLAS, whose kernels round by CPU)
    seen = {}
    upwind = kinetic._kernels.upwind_transport

    def spy(f, c, in_lo, in_hi, out, work):
        result = upwind(f, c, in_lo, in_hi, out, work)
        rows = work[0][: (grid.nx + 1) * grid.nv].reshape(grid.nx + 1, grid.nv)
        seen.update(in_lo=in_lo, in_hi=in_hi, lo=rows[0].copy(), hi=rows[-1].copy())
        return result

    monkeypatch.setattr(kinetic._kernels, "upwind_transport", spy)
    b_lo, b_hi = walls = wall_kernels(boundary, grid, 0.7)
    f = random_positive_f(rng, grid)
    h = grid.nv // 2
    _, tr_lo, tr_hi = transport(f, grid, 0.5 * grid.dx / grid.v_max, walls)
    np.testing.assert_array_equal(seen["lo"][:h], f[0, :h])
    np.testing.assert_array_equal(seen["hi"][h:], f[-1, h:])
    def scattered(f_out, b):
        incoming = np.zeros(h)
        for f_j, row in zip(f_out, b):
            incoming += f_j * row
        return incoming

    for side, f_out, b in (("lo", f[0, :h], b_lo), ("hi", f[-1, h:], b_hi)):
        np.testing.assert_array_equal(seen[f"in_{side}"], scattered(f_out, b))
    np.testing.assert_array_equal(seen["lo"][h:], seen["in_lo"])
    np.testing.assert_array_equal(seen["hi"][:h], seen["in_hi"])
    assert (tr_lo, tr_hi) == kinetic._wall_traces(seen["lo"], seen["hi"], grid)
    if boundary == "dirichlet_zero":  # all outflow: both traces are positive
        assert tr_lo > 0 and tr_hi > 0
    else:
        assert abs(tr_lo) + abs(tr_hi) <= 1e-12


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
        f, _, _ = transport(f, grid, dt, walls)
    assert f.min() >= 0.0
    assert phase_mass(f, grid) == pytest.approx(m0, abs=1e-12)


# ---------------------------------------------------------------------------
# drag advection in velocity
# ---------------------------------------------------------------------------

@pytest.fixture
def drag_grid():
    """The fixture grid's velocities on 8 cells in x: the drag acts on each
    cell alone, and with dx = 1/8 the run's transport bound admits drag
    half-steps at half the drag's own CFL bound."""
    return PhaseGrid(nx=8, nv=64, v_max=8.0)


def test_drag_pulse_drifts_toward_fluid_velocity(drag_grid):
    grid = drag_grid
    f = np.zeros((grid.nx, grid.nv))
    j0 = 10  # xi well below v = 2
    f[:, j0] = 1.0
    v = np.full(grid.nx, 2.0)
    dt = 0.5 * grid.dv / (2.0 + grid.v_max)
    out, _ = drag(f, v, dt, grid)
    mean0 = quad_v(grid.xi * f, grid) / quad_v(f, grid)
    mean1 = quad_v(grid.xi * out, grid) / quad_v(out, grid)
    assert np.all(mean1 > mean0)  # drift has the sign of v - xi


def test_drag_preserves_evenness_when_v_zero(drag_grid):
    grid = drag_grid
    even = np.exp(-0.3 * grid.xi**2)
    f = np.tile(even, (grid.nx, 1))
    dt = 0.5 * grid.dv / grid.v_max
    out, _ = drag(f, np.zeros(grid.nx), dt, grid)
    np.testing.assert_allclose(out, out[:, ::-1], rtol=1e-14, atol=1e-300)


def test_drag_mass_conservation(rng, drag_grid):
    grid = drag_grid
    f = random_positive_f(rng, grid)
    m0 = phase_mass(f, grid)
    v = 1.5 * np.sin(2 * np.pi * grid.x)
    dt = 0.5 * grid.dv / (1.5 + grid.v_max)
    for _ in range(40):
        f, _ = drag(f, v, dt, grid)
    assert f.min() >= 0.0
    assert phase_mass(f, grid) == pytest.approx(m0, abs=1e-12)


def test_drag_cfl_violation_raises(grid):
    # a gas that crosses one velocity cell per drag half-step, plus the
    # largest interior edge
    work = kinetic_work(grid)
    with pytest.raises(CFLError, match="velocity-advection CFL violated"):
        _drag_constants(np.full(grid.nx, 2.0 * grid.dv / work.dt), work)


def two_part_drift(v, grid):
    """The drift as it was before the drag took one signed drift and one
    upwind value per interface: its parts max(a, 0) and min(a, 0), each a
    full (nx, nv) array whose cut column is 0."""
    a_pos = np.empty((grid.nx, grid.nv))
    np.copyto(a_pos, v[:, None])
    a_pos -= grid.xi_edges[1:]
    a_pos[:, -1] = 0.0
    return np.maximum(a_pos, 0.0), np.minimum(a_pos, 0.0)


def two_part_upwind_drag(f, a_pos, a_neg, dt_over_dv):
    """upwind_drag as it was before: the flux a_pos f_j + a_neg f_{j+1}, one
    of whose two products is always an exact zero."""
    size = f.size
    flux, t = np.empty(size + 1), np.empty(size)
    flat_f = np.ravel(f)
    flux[0] = 0.0
    np.multiply(np.ravel(a_pos), flat_f, out=flux[1:])
    np.multiply(np.ravel(a_neg)[:-1], flat_f[1:], out=t[:-1])
    flux[1:-1] += t[:-1]
    np.subtract(flux[1:], flux[:-1], out=t)
    t *= dt_over_dv
    return (flat_f - t).reshape(f.shape)


def two_part_kinetic_step(f, v, dt, grid, eps, walls):
    """kinetic_step's Strang composition with the two-part drag: (f, leak)."""
    half = 0.5 * dt
    work = KineticWork(grid, dt, eps)
    _, (w_top, w_bot) = _drag_constants(v, work)
    parts = two_part_drift(v, grid)

    def drag(f):
        leak = half * grid.dx * grid.dv * float(np.sum(w_top * f[:, -1] + w_bot * f[:, 0]))
        return two_part_upwind_drag(f, *parts, half / grid.dv), leak

    f, leak1 = drag(_transport_raw(f, walls, work, np.empty_like(f))[0])
    f, leak2 = drag(_fp_raw(f, compute_moments(f, grid).u, work, np.empty_like(f)))
    return _transport_raw(f, walls, work, np.empty_like(f))[0], leak1 + leak2


@pytest.mark.parametrize("v_amp", [0.5, 9.0])
@pytest.mark.parametrize("nv", [16, 30, 64, 128])
@pytest.mark.parametrize("boundary", ["specular", "diffuse", "dirichlet_zero"])
def test_kinetic_step_matches_two_part_drag(rng, boundary, nv, v_amp):
    """One signed drift and one upwind value per interface give the bits of
    the two-part drag, byte for byte (so also the sign of every zero), over
    20 chained steps in a run's work arrays: on an f with exactly-zero
    columns and rows, under a gas velocity of both signs, and with |v| above
    v_max (v_amp 9), where the leak through the velocity cut is not 0."""
    grid = PhaseGrid(nx=37, nv=nv, v_max=8.0)
    walls = wall_kernels(boundary, grid, 1.3)
    v = v_amp * np.sin(2 * np.pi * grid.x)
    fl = FluidState(n=np.ones(grid.nx), v=v)
    # both CFL ratios at most 0.8
    dt = 0.8 * min(2.0 * grid.dx / grid.v_max, 2.0 * grid.dv / (v_amp + grid.v_max))
    f = rng.random((grid.nx, nv)) + 0.1
    f[:, [0, 1, 3, nv - 2, nv - 1]] = 0.0
    f[[5, 6]] = 0.0
    work = KineticWork(grid, dt, 0.1)
    state, expected = KineticState(f=f), f
    for _ in range(20):
        expected, leak = two_part_kinetic_step(expected, v, dt, grid, 0.1, walls)
        state, rep = kinetic_step(state, fl, walls, work)
        assert state.f.tobytes() == expected.tobytes()
        assert rep.truncation_leak == leak
        assert (rep.truncation_leak > 0.0) == (v_amp > grid.v_max)


@pytest.mark.parametrize("nx, nv", [(128, 128), (256, 64), (37, 30), (33, 34)])
def test_kinetic_work_arrays_are_64_byte_aligned(nx, nv):
    """Every phase-space array of a run's work set and every packed level of
    its reduction starts on a 64-byte boundary, whatever the grid."""
    work = kinetic_work(PhaseGrid(nx=nx, nv=nv))
    starts = [arr.ctypes.data for arr in (work.f, work.drift, work.upwind, *work.scratch, work.speeds)]
    for level in work.reduction.levels:
        # the next level's a, c, b and x as _kernels._level_views holds
        # them: a from its second entry on (left, empty on a last level of
        # one entry), c, b and x from the first
        left, right, b1, x1 = level[9], level[11], level[14], level[15]
        starts += [right.ctypes.data, b1.ctypes.data, x1.ctypes.data]
        if left.size:
            starts.append(left.ctypes.data - left.itemsize)
    assert all(start % 64 == 0 for start in starts)


# ---------------------------------------------------------------------------
# velocity relaxation solve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_relaxation_maxwellian_stationarity(eps, grid):
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    u = 0.2 * np.cos(2 * np.pi * grid.x)
    f = maxwellian(rho, u, grid).f
    out = relax(f, u, 1e-3, grid, eps)
    assert np.abs(out - f).max() <= 1e-10


def test_relaxation_per_cell_mass_conservation(rng, grid):
    f = random_positive_f(rng, grid)
    u = compute_moments(f, grid).u
    out = relax(f, u, 2e-3, grid, 0.5)
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
    out = relax(m, u, dt, grid, eps)
    assert np.abs(out - m).max() <= 1e-12 * m.max()
    f = random_positive_f(rng, grid)
    out = relax(f, u, dt, grid, eps)
    np.testing.assert_allclose(quad_v(out, grid), quad_v(f, grid), rtol=1e-13, atol=0.0)


def test_relaxation_decreases_relative_entropy(rng, grid):
    eps = 0.2
    f = KineticState(f=random_positive_f(rng, grid))
    mom = compute_moments(f, grid)
    before = maxwellian_gap(f, mom.rho, mom.u, grid)[0]
    out = KineticState(f=relax(f.f, mom.u, 1e-3, grid, eps))
    after = maxwellian_gap(out, mom.rho, mom.u, grid)[0]
    assert after < before


def test_every_substep_preserves_positivity(rng, grid):
    # random nonnegative data through each sub-step and the composition
    eps = 0.1
    f = random_positive_f(rng, grid)
    f[rng.random(f.shape) < 0.3] = 0.0  # sprinkle hard zeros
    v = 0.8 * np.sin(2 * np.pi * grid.x)
    dt = 0.4 * grid.dx / grid.v_max
    out_t, _, _ = transport(f, grid, dt, specular(grid))
    assert out_t.min() >= 0.0
    out_d, _ = drag(f, v, dt, grid)
    assert out_d.min() >= 0.0
    out_r = relax(f, compute_moments(f, grid).u, dt, grid, eps)
    assert out_r.min() >= -1e-14
    fl = FluidState(n=np.ones(grid.nx), v=v)
    out_full, _ = kinetic_step(KineticState(f=f), fl, specular(grid), KineticWork(grid, dt, eps))
    assert out_full.f.min() >= -1e-14


def test_relaxation_preserves_positivity(rng):
    # the relaxation acts on each x cell alone; on 4 cells the run's
    # transport bound admits dt = 0.05
    grid = PhaseGrid(nx=4, nv=64, v_max=8.0)
    eps = 0.01
    f = np.zeros((grid.nx, grid.nv))
    f[:, 5] = rng.random(grid.nx)  # harsh: a near-delta profile
    out = relax(f, np.zeros(grid.nx), 0.05, grid, eps)
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
    work = KineticWork(grid, dt, eps)
    for _ in range(20):
        f, rep = kinetic_step(f, fl, specular(grid), work)
        assert rep.truncation_leak == 0.0
    assert phase_mass(f.f, grid) == pytest.approx(m0, abs=1e-12)
    assert f.f.min() >= -1e-14


def test_kinetic_step_in_run_work_arrays_allocates_only_its_result(rng):
    """In the run's work arrays, a step allocates the state it returns and
    little else, leaves its input alone and returns the bits of the same
    step in a new work set, step after step, with an entropy report in the
    same arrays between the steps, as a run interleaves them."""
    grid = PhaseGrid(nx=64, nv=64, v_max=8.0)
    walls = wall_kernels("diffuse", grid, 1.3)
    fl = FluidState(n=np.ones(grid.nx), v=0.3 * np.sin(2 * np.pi * grid.x))
    dt = 0.4 * grid.dx / grid.v_max
    work = KineticWork(grid, dt, 0.1)
    f = KineticState(f=random_positive_f(rng, grid))
    for _ in range(4):
        before = f.f.copy()
        new, rep_new = kinetic_step(f, fl, walls, KineticWork(grid, dt, 0.1))
        tracemalloc.start()
        try:
            out, rep = kinetic_step(f, fl, walls, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.18 with numpy 2.4: the result plus a few per-row and
        # per-cell arrays; no pass of the final transport broadcasts, so it
        # takes no iterator buffer beside the result
        assert peak <= 1.25 * f.f.nbytes
        assert np.array_equal(f.f, before)
        assert out.f.tobytes() == new.f.tobytes() and rep == rep_new
        serve(work, walls)
        f = out


def test_kinetic_work_checks_its_run_constants(grid):
    """A work set holds the run constants of one (dt, eps), written and
    checked once, as it is built: the transport half-step's CFL ratio and
    Courant numbers, and a refusal, with its message, of an eps that is not
    positive, of a dt above the transport's CFL bound and of an eps at which
    dt/(eps dv^2) overflows."""
    dt = 0.4 * grid.dx / grid.v_max
    work = KineticWork(grid, dt, 0.1)
    assert work.cfl_transport == 0.5 * dt * (grid.v_max - 0.5 * grid.dv) / grid.dx
    speeds = np.tile(grid.xi * (0.5 * dt / grid.dx), (grid.nx, 1))
    assert work.speeds.tobytes() == speeds.tobytes()
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            KineticWork(grid, dt, eps)
    with pytest.raises(CFLError, match="transport CFL violated"):
        KineticWork(grid, 10 * dt, 0.1)
    for eps in (1e-320, 5e-324):
        with pytest.raises(SolverError, match="overflows"):
            KineticWork(grid, dt, eps)
    # on a coarse velocity grid a is finite at eps = 1e-310 and a exp(dv xi / 2)
    # is not: refused as well, with no overflow warning
    coarse = PhaseGrid(nx=grid.nx, nv=8, v_max=grid.v_max)
    assert math.isfinite(dt / (1e-310 * coarse.dv**2))
    with pytest.raises(SolverError, match="a exp\\(dv xi / 2\\) overflows at eps = 1e-310"):
        KineticWork(coarse, dt, 1e-310)


def test_drift_parts_and_relaxation_in_run_work_arrays_allocate_little(rng):
    """Built in the run's work arrays, the drag's drift and upwind mask and
    the relaxation solve allocate well under one more state array each."""
    grid = PhaseGrid(nx=64, nv=64, v_max=8.0)
    dt = 0.4 * grid.dx / grid.v_max
    work = KineticWork(grid, dt, 0.1)
    f = random_positive_f(rng, grid)
    v = 0.3 * np.sin(2 * np.pi * grid.x)
    u = compute_moments(f, grid).u
    farr = f.copy()
    for sub_step in (
        lambda: _drag_constants(v, work),
        lambda: _fp_raw(farr, u, work, farr),
    ):
        tracemalloc.start()
        try:
            sub_step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.04 and 1.08 with numpy 2.4: the iterator buffer of the
        # per-velocity row, one state array in size at 64^2
        assert peak <= 1.25 * f.nbytes


def test_relaxation_solve_in_run_reduction_allocates_no_level(rng):
    """The run's reduction holds every level and its views: a solve in it,
    with the matrix assembled in its first level and the solution in the
    run's state array, gives the bits of the same solve in a new work set's
    reduction and allocates a few small views, not a level, solve after
    solve, with a step and an entropy report in the same arrays between
    the solves."""
    grid = PhaseGrid(nx=64, nv=64, v_max=8.0)
    walls = specular(grid)
    dt = 0.4 * grid.dx / grid.v_max
    work = KineticWork(grid, dt, 0.1)
    reduction = work.reduction
    for _ in range(3):
        serve(work, walls)
        lower, upper = -rng.random((grid.nx, grid.nv)), -rng.random((grid.nx, grid.nv))
        diag = 2.0 + rng.random((grid.nx, grid.nv))
        rhs = random_positive_f(rng, grid)
        new = KineticWork(grid, dt, 0.1).reduction
        expected = _kernels.thomas_batch(lower, diag, upper, rhs, np.empty_like(rhs), new)
        for w, arr in zip((reduction.lower, reduction.diag, reduction.upper), (lower, diag, upper)):
            w[...] = arr
        work.f[...] = rhs
        tracemalloc.start()
        try:
            out = _kernels.thomas_batch(reduction.lower, reduction.diag, reduction.upper, work.f, work.f, reduction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 0.036 and then 0.029 with numpy 2.4: level 0's right-hand
        # side views, which the solve builds from out
        assert peak < 0.05 * rhs.nbytes
        assert out is work.f and out.tobytes() == expected.tobytes()


def test_kinetic_layer_has_one_calling_convention():
    """No function or class of the kinetic layer has a parameter that
    defaults to None: each takes its work and out arrays and its run
    constants from its caller, with no second path that builds them."""
    for module in (_kernels, kinetic):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                defaults = [p.default for p in inspect.signature(obj).parameters.values()]
                assert all(d is not None for d in defaults), f"{module.__name__}.{name}"


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
    work = KineticWork(grid, dt, eps)
    gaps = []
    for _ in range(12):
        mom = compute_moments(f, grid)
        m = maxwellian(mom.rho, mom.u, grid)
        gaps.append(l1_distance(f.f, m.f, grid))
        f, _ = kinetic_step(f, fl, specular(grid), work)
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
        work = KineticWork(grid, dt, eps)
        for _ in range(substeps):
            f, _ = kinetic_step(f, fl, specular(grid), work)
        return f

    errs = []
    for dt in (2e-3, 1e-3, 5e-4):
        one = advance(f0, dt, 1)
        two = advance(f0, dt / 2, 2)
        errs.append(l1_distance(one.f, two.f, grid))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with -s to see the per-criterion lines. The heavy sweep fixtures are
module-scoped so criteria sharing a run compute it once.
"""
import math
import time

import numpy as np
import pytest

from kinfluid.core import (
    FluidState,
    PhaseGrid,
    TwoPhaseState,
    l2_distance,
)
from kinfluid.entropy import relative_entropy
from kinfluid.harness import ExperimentConfig, run_convergence, run_coupled, run_limit
from kinfluid.kinetic import _fp_raw
from kinfluid.limit import (
    PicardSetup,
    SymHypState,
    from_symhyp,
    picard_solve,
    to_symhyp,
    two_phase_step,
)
from kinfluid.moments import maxwellian

from conftest import kinetic_work
from paper_checks import check_pressure_bounds, density_positivity_check, relative_entropy_bregman


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def wave_run():
    cfg = ExperimentConfig(nx=64, nv=64, t_final=1.0, cfl=0.4, eps_list=[0.5], n_samples=32)
    t0 = time.perf_counter()
    run = run_coupled(cfg, 0.5)
    return run, time.perf_counter() - t0, cfg


@pytest.fixture(scope="module")
def wave_limit(wave_run):
    _, _, cfg = wave_run
    return run_limit(cfg)


@pytest.fixture(scope="module")
def sweep():
    cfg = ExperimentConfig(
        nx=128, nv=128, t_final=0.5, cfl=0.4,
        eps_list=[0.4, 0.2, 0.1, 0.05], n_samples=32,
    )
    return run_convergence(cfg)


@pytest.fixture(scope="module")
def picard_result():
    grid = PhaseGrid(nx=128, nv=2)
    x = grid.x
    amp = 0.04  # L-infinity of the data stays below 0.05
    st0 = TwoPhaseState(
        rho=1.0 + amp * np.sin(2 * np.pi * x),
        u=amp * np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2,
        fluid=FluidState(n=1.0 + 0.5 * amp * np.cos(2 * np.pi * x), v=np.zeros(grid.nx), gamma=2.0),
    )
    t_final = 0.25
    nt = int(math.ceil(t_final / (0.4 * grid.dx / 1.8)))
    setup = PicardSetup(grid=grid, t_final=t_final, nt=nt, gamma=2.0)
    traj, reports = picard_solve(to_symhyp(st0, grid), setup, max_iter=9)
    return grid, st0, setup, traj, reports


def test_criterion_01_entropy_budget(wave_run):
    run, seconds, _ = wave_run
    f0 = run.reports[0].F
    allowance = 0.05 * abs(f0)
    slack = run.audit.slack_entropy_budget
    ok = slack >= -allowance and seconds < 60.0
    _report(1, "entropy budget", ok, f"worst slack {slack:.3e} >= {-allowance:.3e}, runtime {seconds:.1f}s")


def test_criterion_02_conservation(wave_run, wave_limit):
    run, _, _ = wave_run
    dk = abs(run.reports[-1].mass - run.reports[0].mass)
    df = abs(run.reports[-1].mass_fluid - run.reports[0].mass_fluid)
    mass_rho = wave_limit.samples.mass_rho
    dl = float(np.abs(mass_rho - mass_rho[0]).max())
    # the limit run's exchange book, which sums the momenta its drag applies
    asym = wave_limit.book["max_exchange_asym"]
    ok = dk <= 1e-10 and df <= 1e-10 and dl <= 1e-10 and asym <= 1e-12
    _report(2, "conservation", ok, f"kinetic {dk:.2e}, fluid {df:.2e}, limit {dl:.2e}, exchange asym {asym:.2e}")


def test_criterion_03_specular_zero_flux(wave_run):
    run, _, _ = wave_run
    ok = run.book["max_wall_flux"] <= 1e-12
    _report(3, "specular zero flux", ok, f"max wall trace {run.book['max_wall_flux']:.2e}")


def test_criterion_04_maxwellian_stationarity():
    grid = PhaseGrid(nx=32, nv=64, v_max=8.0)
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    u = 0.2 * np.cos(2 * np.pi * grid.x)
    worst = 0.0
    for eps in (1.0, 0.1, 0.01):
        f = maxwellian(rho, u, grid).f
        out = _fp_raw(f, u, kinetic_work(grid, 1e-3, eps), np.empty_like(f))
        worst = max(worst, float(np.abs(out - f).max()))
    ok = worst <= 1e-10
    _report(4, "Maxwellian stationarity", ok, f"worst per-step drift {worst:.2e}")


def test_criterion_05_pressure_bounds():
    rng = np.random.default_rng(123)
    y_min, y_max = 0.3, 3.0
    n = 10_000
    t0 = time.perf_counter()
    worst = math.inf
    for gamma in (1.4, 2.0, 2.6):
        x = 10.0 * rng.random(n) + 1e-9
        y = rng.uniform(y_min, y_max, n)
        rec = check_pressure_bounds(x, y, gamma, y_min, y_max)
        worst = min(worst, float(np.min(rec.margin_basic_p)), float(np.min(rec.margin_case)))
    seconds = time.perf_counter() - t0
    ok = worst >= -1e-12 and seconds < 1.0
    _report(5, "relative-pressure bounds", ok, f"worst margin {worst:.2e}, runtime {seconds * 1e3:.0f}ms")


def test_criterion_06_bregman_identity():
    rng = np.random.default_rng(31415)
    grid = PhaseGrid(nx=24, nv=2)
    worst = 0.0
    for _ in range(1000):
        def rand_state():
            return TwoPhaseState(
                rho=0.5 + rng.random(grid.nx),
                u=rng.standard_normal(grid.nx),
                fluid=FluidState(n=0.5 + rng.random(grid.nx), v=rng.standard_normal(grid.nx), gamma=2.0),
            )

        bar, ref = rand_state(), rand_state()
        worst = max(worst, abs(relative_entropy(bar, ref, grid) - relative_entropy_bregman(bar, ref, grid)))
    ok = worst <= 1e-12
    _report(6, "relative-entropy identity", ok, f"worst deviation {worst:.2e} over 1000 pairs")


def test_criterion_07_hydrodynamic_rate(sweep):
    sup_h = [r.sup_H for r in sweep.rows]
    ok = (not sweep.degenerate) and sweep.slope >= 0.4 and sweep.monotone and sweep.wall_seconds < 600.0
    _report(
        7, "relaxation rate", ok,
        f"slope {sweep.slope:.3f}, sup_H {['%.3e' % v for v in sup_h]}, runtime {sweep.wall_seconds:.0f}s",
    )


def test_fitted_slope_mesh_sensitivity(sweep):
    # the fitted rate moves by a few hundredths per grid doubling (0.626 at
    # 64^2 against 0.587 at 128^2); a larger gap means the coarse grid
    # no longer resolves the rate the acceptance sweep reports
    coarse = run_convergence(ExperimentConfig(
        nx=64, nv=64, t_final=0.5, cfl=0.4, eps_list=[0.4, 0.2, 0.1, 0.05], n_samples=32,
    ))
    assert len(coarse.local_slopes) == len(sweep.local_slopes) == 3
    assert abs(coarse.slope - sweep.slope) <= 0.1, (coarse.slope, sweep.slope)


def test_criterion_08_kinetic_to_maxwellian(sweep):
    gaps = [r.f_to_M_l1 for r in sweep.rows]
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    ck_min = min(r.ck_margin_min for r in sweep.runs)
    ok = all(rat <= 0.9 for rat in ratios) and ck_min >= -1e-12
    _report(
        8, "kinetic-to-Maxwellian decay", ok,
        f"gaps {['%.3e' % g for g in gaps]}, ratios {['%.2f' % r for r in ratios]}, CK margin min {ck_min:.1e}",
    )


def test_criterion_09_picard_contraction(picard_result):
    grid, st0, setup, traj, reports = picard_result
    # every consecutive pair through iterate 9 must contract by 0.9
    ratios = {r.m: r.contraction_ratio for r in reports if r.m >= 2}
    contraction_ok = all(ratios[m] <= 0.9 for m in ratios if 2 <= m <= 9)

    st = st0
    for _ in range(setup.nt):
        st = two_phase_step(st, setup.dt, grid)
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
    budget = 10.0 * (setup.dt + grid.dx)
    ok = contraction_ok and gap <= budget
    _report(
        9, "fixed-point contraction", ok,
        f"ratios m2-m9 {['%.3f' % ratios[m] for m in sorted(ratios)]}, cross-solver gap {gap:.3e} <= {budget:.3e}",
    )


def test_criterion_10_density_positivity(sweep, picard_result):
    grid, _, setup, traj, _ = picard_result
    min_limit = sweep.limit.book["min_one_plus_h"]
    min_picard = float((1.0 + traj.h).min())

    # uniform-compression hook: prescribed v = -(x - 1/2)
    hook_grid = PhaseGrid(nx=128, nv=2)
    dt = 1e-3
    steps = 500
    v = -(hook_grid.x - 0.5)
    h_path = np.empty((steps + 1, hook_grid.nx))
    v_path = np.tile(v, (steps + 1, 1))
    big_h = np.ones(hook_grid.nx)
    h_path[0] = big_h - 1.0
    for k in range(1, steps + 1):
        hp = np.concatenate(([big_h[0]], big_h, [big_h[-1]]))
        adv = np.where(v > 0, v * (hp[1:-1] - hp[:-2]), v * (hp[2:] - hp[1:-1])) / hook_grid.dx
        big_h = big_h - dt * (adv - big_h)
        h_path[k] = big_h - 1.0
    res = density_positivity_check(h_path, v_path, dt, hook_grid)

    ok = min_limit > 0 and min_picard > 0 and res.max_rel_deviation <= 0.05
    _report(
        10, "density positivity", ok,
        f"min(1+h): limit {min_limit:.3f}, fixed-point {min_picard:.3f}; hook deviation {res.max_rel_deviation:.2%}",
    )

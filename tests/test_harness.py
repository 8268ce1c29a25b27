import contextlib
import errno
import fcntl
import itertools
import json
import math
import mmap
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinfluid
import kinfluid.entropy as entropy
import kinfluid.harness as harness
import kinfluid.kinetic as kinetic
import kinfluid.limit as limit
from kinfluid.core import ConfigError, PhaseGrid, SolverError, VacuumError, quad_x
from kinfluid.cli import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    main_check_entropy,
    main_converge,
    main_simulate_kinetic,
    main_simulate_limit,
)
from kinfluid.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    emit_csv,
    load_state,
    make_well_prepared,
    run_coupled,
    save_state,
)

from kinfluid.limit import two_phase_step

from paper_checks import convergence_rows_per_sample, well_prepared_residuals


def tiny_config(**kw):
    base = dict(nx=16, nv=32, v_max=8.0, t_final=0.1, eps_list=[0.4, 0.2, 0.1], n_samples=4)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_json_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"nx": 8, "nv": 16, "eps_list": [0.4, 0.2, 0.1], "t_final": 0.25}))
    cfg = ExperimentConfig.from_json(p)
    assert cfg.nx == 8 and cfg.t_final == 0.25


def test_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"nx": 8, "bogus_knob": 3}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(p)


def test_config_eps_order_enforced():
    with pytest.raises(ConfigError):
        tiny_config(eps_list=[0.1, 0.2])
    with pytest.raises(ConfigError):
        tiny_config(t_final=-1.0)
    with pytest.raises(ConfigError):
        tiny_config(initial_profile="nonsense")


# ---------------------------------------------------------------------------
# well-prepared data
# ---------------------------------------------------------------------------

def test_well_prepared_equilibrium_residuals():
    cfg = tiny_config(nx=64, nv=64, initial_profile="equilibrium")
    kin, fl, lim = make_well_prepared(cfg)
    r_entropy, r_state = well_prepared_residuals(kin, fl, lim, cfg)
    assert abs(r_entropy) <= 1e-10
    assert abs(r_state) <= 1e-10


def test_well_prepared_wave_residuals():
    cfg = tiny_config(nx=64, nv=64)
    kin, fl, lim = make_well_prepared(cfg)
    r_entropy, r_state = well_prepared_residuals(kin, fl, lim, cfg)
    assert abs(r_entropy) <= 1e-8
    assert abs(r_state) <= 1e-8


def test_well_prepared_custom_roundtrip(tmp_path):
    cfg0 = tiny_config(nx=32, nv=32)
    grid = cfg0.grid()
    rng = np.random.default_rng(7)
    rho0 = 1.0 + 0.05 * np.sin(2 * np.pi * grid.x)
    u0 = np.zeros(grid.nx)
    n0 = 1.0 + 0.05 * np.cos(2 * np.pi * grid.x) * np.sin(np.pi * grid.x) ** 2
    v0 = np.zeros(grid.nx)
    desc = save_state(tmp_path / "init", {"rho0": rho0, "u0": u0, "n0": n0, "v0": v0})
    cfg = tiny_config(nx=32, nv=32, initial_profile="custom", custom_state=str(desc))
    kin, fl, lim = make_well_prepared(cfg)
    # bit-exact round trip of the stored profile
    assert np.array_equal(lim.rho, rho0)
    assert np.array_equal(fl.n, n0)


def test_well_prepared_rejects_incompatible_walls(tmp_path):
    cfg0 = tiny_config(nx=32, nv=32)
    grid = cfg0.grid()
    bad_u = np.full(grid.nx, 0.3)  # u.r != 0 at walls
    desc = save_state(
        tmp_path / "bad",
        {"rho0": np.ones(grid.nx), "u0": bad_u, "n0": np.ones(grid.nx), "v0": np.zeros(grid.nx)},
    )
    cfg = tiny_config(nx=32, nv=32, initial_profile="custom", custom_state=str(desc))
    with pytest.raises(ConfigError):
        make_well_prepared(cfg)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_equilibrium_run_constant_macroscopic_states():
    cfg = ExperimentConfig(
        nx=24, nv=64, t_final=1.0, eps_list=[0.5], n_samples=8,
        initial_profile="equilibrium",
    )
    run = run_coupled(cfg, 0.5)
    samples, stacks = run.reports, run.stacks
    assert np.abs(stacks["rho"] - stacks["rho"][0]).max() <= 1e-10
    assert np.abs(stacks["u"]).max() <= 1e-10
    assert np.abs(stacks["n"] - stacks["n"][0]).max() <= 1e-10
    assert np.abs(stacks["v"]).max() <= 1e-10
    assert abs(samples[-1].mass - samples[0].mass) <= 1e-10
    assert abs(samples[-1].mass_fluid - samples[0].mass_fluid) <= 1e-10


def test_coupled_run_mass_books_and_audit():
    cfg = ExperimentConfig(nx=32, nv=32, t_final=1.0, eps_list=[0.5], n_samples=8)
    run = run_coupled(cfg, 0.5)
    assert abs(run.reports[-1].mass - run.reports[0].mass) <= 1e-10
    assert abs(run.reports[-1].mass_fluid - run.reports[0].mass_fluid) <= 1e-10
    assert run.audit.slack_entropy_budget >= -1e-10
    assert run.book["max_wall_flux"] <= 1e-12


def test_coupled_run_makes_one_diagnostics_pass(monkeypatch, tmp_path):
    # moments once per step after the step (shared by the sample and the next
    # gas drag) plus once inside each kinetic step; one local Maxwellian per
    # sample, shared by P(f|M), D1 and the Csiszar-Kullback margin. The
    # samples are taken in the run's sampler process, so each call is
    # counted as a line appended to one file, which both processes write.
    log = tmp_path / "calls"

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(name + "\n")
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, kinetic):
        monkeypatch.setattr(module, "compute_moments", counted("moments", module.compute_moments))
    monkeypatch.setattr(entropy, "maxwellian_profile", counted("maxwellian", entropy.maxwellian_profile))
    cfg = tiny_config()
    run = run_coupled(cfg, 0.4)
    calls = Counter(log.read_text().split())
    nt = round(cfg.t_final / run.dt)
    assert calls["moments"] == 2 * nt + 1
    assert calls["maxwellian"] == len(run.reports) == cfg.n_samples + 1


def test_cadence_bounds_the_step_count():
    cfg = tiny_config(t_final=1.0)
    dt, nt, per = harness._cadence(cfg, 0.01)
    assert (nt, per) == (100, 25) and dt * nt == 1.0
    assert harness._cadence(cfg, (1 + 1e-9) / harness.MAX_STEPS)[1] == harness.MAX_STEPS
    for dt_target in (0.99 / harness.MAX_STEPS, 1e-300, 0.0):
        with pytest.raises(ConfigError):
            harness._cadence(cfg, dt_target)
    with pytest.raises(ConfigError):
        harness._cadence(tiny_config(t_final=1e300), 0.01)
    harness._cadence(tiny_config(n_samples=harness.MAX_STEPS), 1.0)
    with pytest.raises(ConfigError):
        tiny_config(n_samples=harness.MAX_STEPS + 1)


@pytest.mark.parametrize(
    "kw, name",
    [
        (dict(nx=64, nv=100_000_000), r"nx \* nv"),
        (dict(nx=4_000_000_000, nv=64), r"nx \* nv"),
        (dict(nx=2, nv=2**13 + 2), r"\(nv/2\)\^2"),
        (dict(nx=2**18, nv=8, n_samples=64), r"\(n_samples \+ 1\) \* nx"),
        (dict(nx=2**18 + 1, nv=64), r"nx \* nv"),
    ],
)
def test_config_rejects_a_grid_above_max_cells(monkeypatch, kw, name):
    """A grid whose phase space, wall blocks or sample record exceeds
    MAX_CELLS is a ConfigError naming the bound, raised before any block of
    that size is built: no wall block, no grid array."""

    def no_block(*args):
        raise AssertionError("wall_kernels reached")

    monkeypatch.setattr(harness, "wall_kernels", no_block)
    with pytest.raises(ConfigError, match=f"^{name} = [0-9]+ exceeds MAX_CELLS = {harness.MAX_CELLS}$"):
        ExperimentConfig(**kw)


def test_config_admits_a_grid_of_max_cells():
    cfg = ExperimentConfig(nx=2**18, nv=64, n_samples=63)
    assert cfg.nx * cfg.nv == (cfg.n_samples + 1) * cfg.nx == harness.MAX_CELLS


def test_equilibrium_sweep_reported_degenerate(tmp_path, capsys):
    from kinfluid.harness import run_convergence

    cfg = tiny_config(initial_profile="equilibrium")
    res = run_convergence(cfg)
    assert res.degenerate
    assert res.slope is None and res.prefactor is None and res.local_slopes is None
    assert all(r.sup_H <= 1e-20 for r in res.rows)
    # converge says so on its line and writes null for the fit
    out = tmp_path / "sweep"
    assert main_converge(["--config", str(_write_cfg(tmp_path, initial_profile="equilibrium")),
                          "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("sup_H degenerate (zero gap); no slope fitted worst_slack=")
    meta_text = (out / "convergence_meta.json").read_text()
    assert '"slope": null' in meta_text and json.loads(meta_text)["degenerate"] is True


def test_sweep_without_eps_dependence_reported_degenerate(tmp_path, capsys):
    """At nv = 8 the equilibrium data's discrete Maxwellian misses its mass by
    a quadrature error that every eps run inherits: sup_H is the same nonzero
    value at each eps, which carries no rate either."""
    res = harness.run_convergence(tiny_config(nx=8, nv=8, t_final=0.02, n_samples=2, initial_profile="equilibrium"))
    assert res.degenerate and res.degeneracy == "no eps dependence"
    assert res.slope is None and res.local_slopes is None
    assert res.rows.sup_H.min() > 1e-5
    assert np.ptp(res.rows.sup_H) <= 1e-9 * res.rows.sup_H.max()
    out = tmp_path / "sweep"
    cfg = _write_cfg(tmp_path, nx=8, nv=8, t_final=0.02, n_samples=2, initial_profile="equilibrium")
    assert main_converge(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("sup_H degenerate (no eps dependence); no slope fitted worst_slack=")
    assert "not monotone" not in captured.err
    meta = json.loads((out / "convergence_meta.json").read_text())
    assert meta["degenerate"] is True and meta["slope"] is None


def test_coupled_run_with_diffuse_walls():
    # a colder wall on a velocity grid that is not a power of two too
    for nv, theta in ((32, 1.0), (30, 0.7)):
        cfg = ExperimentConfig(
            nx=16, nv=nv, t_final=0.05, eps_list=[0.5], n_samples=2,
            boundary="diffuse", wall_temperature=theta,
        )
        run = run_coupled(cfg, 0.5)
        assert abs(run.reports[-1].mass - run.reports[0].mass) <= 1e-10


@pytest.mark.parametrize(
    "boundary, wall_temperature", [("specular", 1.0), ("diffuse", 0.7), ("diffuse", 1.3), ("dirichlet_zero", 1.0)]
)
def test_coupled_run_wall_outflow_books_the_mass_change(boundary, wall_temperature):
    # mass(T) - mass(0) + wall_outflow = 0 up to rounding for every wall
    # kind: the transport's mass change telescopes to its wall traces, and
    # the drag and relaxation conserve mass; the absorbing walls lose a
    # sizeable share of it
    cfg = ExperimentConfig(nx=32, nv=32, t_final=0.25, eps_list=[0.1], n_samples=4,
                           boundary=boundary, wall_temperature=wall_temperature)
    run = run_coupled(cfg, 0.1)
    mass0, outflow = run.reports[0].mass, run.book["wall_outflow"]
    assert abs(run.reports[-1].mass - mass0 + outflow) <= 1e-13 * mass0
    if boundary == "specular":
        assert outflow == 0.0
    elif boundary == "dirichlet_zero":
        assert outflow > 0.1 * mass0


def test_coupled_run_with_outflow_walls_loses_mass_monotonically():
    cfg = ExperimentConfig(
        nx=16, nv=32, t_final=0.1, eps_list=[0.5], n_samples=4,
        boundary="dirichlet_zero",
    )
    run = run_coupled(cfg, 0.5)
    assert np.all(np.diff([r.mass for r in run.reports]) < 0)


def test_shifted_domain_conservation_and_transform():
    cfg = ExperimentConfig(
        nx=24, nv=32, x_lo=2.0, x_hi=3.5, t_final=0.05, eps_list=[0.5], n_samples=2,
    )
    run = run_coupled(cfg, 0.5)
    assert abs(run.reports[-1].mass - run.reports[0].mass) <= 1e-12
    # log-density transform respects the non-unit domain measure
    from kinfluid.limit import from_symhyp, to_symhyp
    from kinfluid.core import FluidState, TwoPhaseState

    grid = cfg.grid()
    st = TwoPhaseState(
        rho=1.0 / grid.length + 0.1 * np.sin(2 * np.pi * (grid.x - 2.0)),
        u=np.zeros(grid.nx),
        fluid=FluidState(n=np.ones(grid.nx), v=np.zeros(grid.nx)),
    )
    back = from_symhyp(to_symhyp(st, grid), grid)
    np.testing.assert_allclose(back.rho, st.rho, rtol=1e-14)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_empty_table_header_only(tmp_path):
    p = emit_csv([], tmp_path / "empty.csv")
    assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_emit_csv_formatting(tmp_path):
    rows = np.rec.fromrecords([(1 / 3, math.pi * 1e-4, 1.0, 0.0, 2.0)], names=CSV_COLUMNS)
    p = emit_csv(rows, tmp_path / "t.csv")
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "eps,sup_H,sup_L1_rho,sup_L1_n,f_to_M_l1"
    cells = lines[1].split(",")
    assert cells[0] == f"{1/3:.17g}"
    assert "." in cells[0] and "," not in cells[0][1:]
    assert float(cells[1]) == pytest.approx(math.pi * 1e-4, rel=1e-16)


def test_state_files_bit_exact_roundtrip(tmp_path, rng):
    arrays = {"a": rng.standard_normal((7, 5)), "b": rng.standard_normal(11)}
    desc = save_state(tmp_path / "st", arrays, meta={"k": 1})
    loaded, meta = load_state(desc)
    assert meta == {"k": 1}
    for name in arrays:
        assert np.array_equal(loaded[name], arrays[name])
        assert loaded[name].dtype == np.float64


def _descriptor(**info):
    """Descriptor text of one (2, 3) array in a.bin; a None value drops the key."""
    entry = {"file": "a.bin", "shape": [2, 3], "dtype": "<f8"}
    entry.update(info)
    return json.dumps({"arrays": {"a": {k: v for k, v in entry.items() if v is not None}}})


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"meta": {}}',
        '{"arrays": [1, 2]}',
        _descriptor(file=None),
        _descriptor(shape=None),
        _descriptor(dtype=None),
        _descriptor(dtype="<f4"),
        _descriptor(shape=[4, 3]),
        _descriptor(shape=[2, -3]),
        _descriptor(file="../a.bin"),
        _descriptor(file="missing.bin"),
    ],
    ids=["not-json", "no-arrays", "arrays-list", "no-file", "no-shape", "no-dtype", "f4",
         "size", "negative-shape", "outside", "missing-file"],
)
def test_load_state_rejects_bad_descriptor(tmp_path, text):
    run = tmp_path / "run"
    run.mkdir()
    for folder in (tmp_path, run):  # "../a.bin" would be a valid array file
        (folder / "a.bin").write_bytes(np.arange(6.0).tobytes())
    good = run / "good.json"
    good.write_text(_descriptor())
    assert load_state(good)[0]["a"].shape == (2, 3)
    bad = run / "bad.json"
    bad.write_text(text)
    with pytest.raises(ConfigError):
        load_state(bad)
    with pytest.raises(ConfigError):
        load_state(run / "no_such.json")


def test_run_determinism_bitwise(tmp_path):
    from kinfluid.harness import run_convergence

    for boundary in ("specular", "diffuse"):
        cfg = tiny_config(boundary=boundary)
        csvs = []
        for tag in ("a", "b"):
            res = run_convergence(cfg)
            p = emit_csv(res.rows, tmp_path / f"{boundary}_{tag}.csv")
            csvs.append(p.read_bytes())
        assert csvs[0] == csvs[1]


@pytest.mark.parametrize("kw", [{}, dict(nx=136, nv=16, t_final=0.02, boundary="diffuse")])
def test_sweep_rows_match_their_per_sample_definition(kw):
    # the sweep compares whole sample stacks; its rows carry the bits of the
    # comparison of single-level states, sample by sample
    cfg = tiny_config(**kw)
    res = harness.run_convergence(cfg)
    per_sample = convergence_rows_per_sample(res, cfg)
    assert per_sample.dtype == res.rows.dtype
    np.testing.assert_array_equal(res.rows, per_sample)


def test_reaudit_of_an_emitted_run_equals_the_run_audit(tmp_path):
    cfg = tiny_config(boundary="diffuse")
    run = run_coupled(cfg, 0.2)
    harness.save_run_series(run, tmp_path / "run", cfg)
    audit, tol = harness.reaudit_run(tmp_path / "run")
    assert tol == cfg.audit_tolerance
    for f in fields(entropy.AuditRecord):
        np.testing.assert_array_equal(getattr(audit, f.name), getattr(run.audit, f.name), err_msg=f.name)
    # each report row carries the bits of the emitted series, field by field
    for f in fields(entropy.EntropyReport):
        emitted = np.fromfile(tmp_path / "run" / f"series__{f.name}.bin", dtype="<f8")
        rows = np.array([getattr(run.reports[k], f.name) for k in range(len(run.reports))])
        assert rows.tobytes() == emitted.tobytes() == run.reports[f.name].tobytes(), f.name


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, **kw):
    payload = dict(nx=16, nv=32, t_final=0.1, eps_list=[0.4, 0.2, 0.1], n_samples=4)
    payload.update(kw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_cli_simulate_kinetic_and_check_entropy(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    rc = main_simulate_kinetic(["--config", str(cfg), "--eps", "0.3", "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "series.json").exists()
    # every book of the run is in its sidecar and on its summary line
    line = capsys.readouterr().out
    meta = json.loads((out / "run_meta.json").read_text())
    run = run_coupled(ExperimentConfig.from_json(cfg), 0.3)
    assert set(run.book) == {
        "max_wall_flux", "wall_outflow", "truncation_leak", "max_cfl_transport", "max_cfl_drag", "min_n",
    }
    for key, value in run.book.items():
        assert meta[key] == value and f" {key}={value:.6g} " in line, key
    # and so are the CPU its march ran on, the CPU its sampler was pinned
    # to and the gas sub-steps that the sampler made
    for key in ("march_cpu", "sampler_cpu", "sampler_gas_steps"):
        assert f" {key}={meta[key]:.6g} " in line, key
    for placed in (meta, run.cost):
        _check_placement(placed)
    # and so is its audit summary, which check-entropy prints too
    assert meta["audit"] == run.audit.summary
    rc2 = main_check_entropy(["--run", str(out)])
    assert rc2 == EXIT_OK
    check_line = f" {capsys.readouterr().out.strip()} "
    for key, value in run.audit.summary.items():
        assert f" {key}={value:.6g} " in line and f" {key}={value:.6g} " in check_line, key


def test_cli_simulate_kinetic_coarse_velocity_grid(tmp_path, capsys):
    # dv = 2: the entropy budget holds with the relaxation scheme's own D1
    cfg = _write_cfg(tmp_path, nx=8, nv=8, t_final=0.02, n_samples=2)
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert " slack_entropy_budget=0 " in capsys.readouterr().out


def test_cli_reports_the_slack_after_start(tmp_path, capsys):
    # the worst slack includes the 0 at t = 0; the run also records, and
    # check-entropy prints, the smallest slack over the later samples
    cfg = _write_cfg(tmp_path, nx=8, nv=8, t_final=0.02, n_samples=2)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    recorded = json.loads((out / "run_meta.json").read_text())["audit"]["slack_after_start"]
    audit, _ = harness.reaudit_run(out)
    assert recorded == audit.slack_after_start == float(audit.slacks[1:].min())
    assert recorded != 0.0 and audit.slack_entropy_budget == 0.0
    assert f" slack_entropy_budget=0 slack_at=0 slack_after_start={recorded:.6g} " in capsys.readouterr().out
    assert main_check_entropy(["--run", str(out)]) == EXIT_OK
    assert f"slack_after_start={recorded:.6g} " in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default output directory "out" lands here
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"nx": 8, "mystery": True}))
    assert main_simulate_kinetic(["--config", str(p)]) == EXIT_CONFIG
    assert main_converge(["--config", str(p)]) == EXIT_CONFIG
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"eps_list": [0.1, 0.4]}))
    assert main_simulate_limit(["--config", str(p2)]) == EXIT_CONFIG
    for bad in ({"nv": 15}, {"nx": "16"}, {"gamma": 1.0}):
        p3 = _write_cfg(tmp_path, **bad)
        assert main_simulate_kinetic(["--config", str(p3)]) == EXIT_CONFIG
    # the retired truncation, velocity-floor and solver-mode knobs
    for bad in ({"chi_lambda": "inf"}, {"vel_floor": 1e-12}, {"solver_mode": "coupled"}):
        capsys.readouterr()
        assert main_simulate_kinetic(["--config", str(_write_cfg(tmp_path, **bad))]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config keys") and err.count("\n") == 1, err
    # runs of more than MAX_STEPS steps, found before any buffer is allocated
    for bad in ({"t_final": 1e300}, {"n_samples": 10**12}):
        p4 = _write_cfg(tmp_path, **bad)
        assert main_simulate_kinetic(["--config", str(p4)]) == EXIT_CONFIG
        assert main_converge(["--config", str(p4)]) == EXIT_CONFIG
    assert main_simulate_kinetic(["--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    # bad custom initial data is only found inside the run
    missing_state = _write_cfg(tmp_path, initial_profile="custom", custom_state=str(tmp_path / "missing.json"))
    assert main_simulate_kinetic(["--config", str(missing_state)]) == EXIT_CONFIG
    ones = np.ones(16)
    desc = save_state(tmp_path / "wall", {"rho0": ones, "u0": 0.5 * ones, "n0": ones, "v0": 0 * ones})
    bad_walls = _write_cfg(tmp_path, initial_profile="custom", custom_state=str(desc))
    assert main_simulate_kinetic(["--config", str(bad_walls)]) == EXIT_CONFIG
    # a positive rho0 whose discrete Maxwellian column underflows to 0
    rho0 = ones.copy()
    rho0[5] = 5e-324
    desc = save_state(tmp_path / "vacuum", {"rho0": rho0, "u0": 0 * ones, "n0": ones, "v0": 0 * ones})
    vacuum = _write_cfg(tmp_path, nv=16, initial_profile="custom", custom_state=str(desc))
    capsys.readouterr()
    assert main_simulate_kinetic(["--config", str(vacuum)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    (tmp_path / "state").mkdir()
    (tmp_path / "outside.bin").write_bytes(np.zeros(16).tobytes())
    outside = tmp_path / "state" / "init.json"
    outside.write_text(json.dumps({"arrays": {
        name: {"file": "../outside.bin", "shape": [16], "dtype": "<f8"} for name in ("rho0", "u0", "n0", "v0")
    }}))
    escaping = _write_cfg(tmp_path, initial_profile="custom", custom_state=str(outside))
    assert main_simulate_kinetic(["--config", str(escaping)]) == EXIT_CONFIG
    one_eps = _write_cfg(tmp_path, eps_list=[0.4])
    assert main_converge(["--config", str(one_eps)]) == EXIT_CONFIG
    # --eps is checked as an eps_list entry is: finite and positive
    for eps in ("nan", "inf", "-0.1", "0"):
        assert main_simulate_kinetic(["--config", str(_write_cfg(tmp_path)), "--eps", eps]) == EXIT_CONFIG
    # a diffuse wall Maxwellian that underflows on every incoming velocity
    cold = _write_cfg(tmp_path, nx=8, nv=16, boundary="diffuse", wall_temperature=1e-5)
    capsys.readouterr()
    assert main_simulate_kinetic(["--config", str(cold), "--out", str(tmp_path / "cold")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    # an audit tolerance no run can meet, and the retired fixed-point iterate count
    out = ["--out", str(tmp_path / "never")]
    negative_tol = _write_cfg(tmp_path, audit_tolerance=-1.0)
    assert main_simulate_kinetic(["--config", str(negative_tol), *out]) == EXIT_CONFIG
    capsys.readouterr()
    assert main_simulate_limit(["--config", str(_write_cfg(tmp_path, picard_iters=10)), *out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config keys") and err.count("\n") == 1, err
    # usage errors are config errors too, not argparse's exit 2 (a solver failure)
    cfg = str(_write_cfg(tmp_path))
    usage_errors = [
        (main_simulate_kinetic, ["--config", cfg, "--eps", "abc"]),
        (main_simulate_kinetic, []),
        (main_check_entropy, []),
        (main_simulate_limit, ["--config", cfg, "--mode", "picard", *out]),
        (main_converge, ["--config", cfg, "--bogus"]),
    ]
    # an output path that cannot hold a directory, found before the run
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(harness, "_two_phase_substeps", None)  # no run may start
    monkeypatch.setattr(harness, "kinetic_step", None)
    unusable_out = [
        (main_simulate_kinetic, ["--config", cfg, "--out", str(tmp_path / "file")]),
        (main_simulate_limit, ["--config", cfg, "--out", str(tmp_path / "file")]),
        (main_converge, ["--config", cfg, "--out", str(tmp_path / "file")]),
        (main_simulate_kinetic, ["--config", cfg, "--out", str(tmp_path / "file" / "below")]),
    ]
    for main, argv in usage_errors + unusable_out:
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG, (main.__name__, argv)
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
    assert not (tmp_path / "never").exists()
    # --help still exits 0
    with pytest.raises(SystemExit) as exit_info:
        main_simulate_limit(["--help"])
    assert exit_info.value.code == 0


_INPUT_CHECKS = [
    "not_an_object", "cfl_0", "cfl_2", "custom_without_state", "state_misses_array", "state_nan",
    "state_n0_zero", "descriptor_file_not_string", "series_misses_D1", "series_unequal_lengths",
]


def _checked_input(tmp: Path, case: str):
    """The entry point and argv of one input that a check rejects."""
    out = ["--out", str(tmp / "out")]
    if case == "not_an_object":
        cfg = tmp / "config.json"
        cfg.write_text("[16, 32]")
        return main_simulate_kinetic, ["--config", str(cfg), *out]
    if case.startswith("cfl_"):
        return main_simulate_kinetic, ["--config", str(_write_cfg(tmp, cfl=int(case[-1]))), *out]
    if case == "custom_without_state":
        return main_simulate_kinetic, ["--config", str(_write_cfg(tmp, initial_profile="custom")), *out]
    if case.startswith("series_"):
        run = tmp / "run"
        cfg = _write_cfg(tmp, nx=8, nv=8, t_final=0.02, n_samples=2)
        assert main_simulate_kinetic(["--config", str(cfg), "--out", str(run)]) == EXIT_OK
        arrays, _ = load_state(run / "series.json")
        if case == "series_misses_D1":
            del arrays["D1"]
        else:
            arrays["D1"] = arrays["D1"][:-1]
        save_state(run / "series", arrays)
        return main_check_entropy, ["--run", str(run)]
    ones = np.ones(16)
    arrays = {"rho0": ones, "u0": 0.0 * ones, "n0": ones.copy(), "v0": 0.0 * ones}
    if case == "state_misses_array":
        del arrays["v0"]
    elif case == "state_nan":
        arrays["n0"][3] = math.nan
    elif case == "state_n0_zero":
        arrays["n0"][3] = 0.0
    desc = save_state(tmp / "init", arrays)
    if case == "descriptor_file_not_string":
        info = json.loads(desc.read_text())
        info["arrays"]["n0"]["file"] = 7
        desc.write_text(json.dumps(info))
    cfg = _write_cfg(tmp, initial_profile="custom", custom_state=str(desc))
    return main_simulate_kinetic, ["--config", str(cfg), *out]


@pytest.mark.parametrize("case", _INPUT_CHECKS)
def test_cli_input_checks_exit_with_one_line(tmp_path, capsys, case):
    main, argv = _checked_input(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err


_DROP = "<drop>"
_BAD_VALUES = [_DROP, None, True, "x", [], {}, -1, 0, 1, 2, -0.5, 0.5, 1e300, math.nan, math.inf, -math.inf]
# a huge count only where it cannot size an array before the checks see it;
# huge grids, which the MAX_CELLS check rejects before any array is built
_HUGE_SAMPLES = ("n_samples", 10**12)
_HUGE_GRIDS = [("nx", 4_000_000_000), ("nv", 100_000_000), ("nx", 2**24), ("nv", 2**13 + 2)]
_BAD_EPS_LISTS = [[], [0.4], [0.1, 0.4], [0.4, 0.2, math.nan], [math.inf, 0.2, 0.1], [0.4, 0.2, -0.1], ["a"]]
_BAD_STATES = ["missing", "directory", "not_json", "escaping", "short", "wrong_nx", "bad_walls"]


def _bad_custom_state(tmp: Path, kind: str) -> Path:
    """A custom_state path that must be rejected, written under tmp."""
    if kind == "missing":
        return tmp / "missing.json"
    if kind == "directory":
        return tmp
    ones = np.ones(8)
    arrays = {"rho0": ones, "u0": 0.0 * ones, "n0": ones, "v0": 0.0 * ones}
    if kind == "wrong_nx":
        arrays = {name: np.ones(5) for name in arrays}
    if kind == "bad_walls":
        arrays["u0"] = 0.5 * ones
    desc = save_state(tmp / "st" / "init", arrays)
    if kind == "not_json":
        desc.write_text("arrays: none")
    if kind == "escaping":
        save_state(tmp / "init", arrays)  # valid array files one level up
    if kind in ("escaping", "short"):
        info = json.loads(desc.read_text())
        for entry in info["arrays"].values():
            if kind == "escaping":
                entry["file"] = "../" + entry["file"]
            else:
                entry["shape"] = [9]
        desc.write_text(json.dumps(info))
    return desc


# mutations of a tiny valid config: dropped keys, wrong types, out-of-range
# or huge values, bad eps lists and bad custom_state files
_CONFIG_EDITS = st.fixed_dictionaries({
    "edits": st.lists(
        st.tuples(st.sampled_from([f.name for f in fields(ExperimentConfig)]), st.sampled_from(_BAD_VALUES))
        | st.just(_HUGE_SAMPLES)
        | st.sampled_from(_HUGE_GRIDS),
        max_size=3,
    ),
    "eps_list": st.sampled_from([None, *_BAD_EPS_LISTS]),
    "custom_state": st.sampled_from([None, *_BAD_STATES]),
})


def _edited_config(tmp: Path, case: dict) -> Path:
    payload = dict(nx=8, nv=8, t_final=0.02, eps_list=[0.4, 0.2, 0.1], n_samples=2)
    if case["custom_state"] is not None:
        payload.update(initial_profile="custom", custom_state=str(_bad_custom_state(tmp, case["custom_state"])))
    if case["eps_list"] is not None:
        payload["eps_list"] = case["eps_list"]
    for key, value in case["edits"]:
        if value == _DROP:
            payload.pop(key, None)
        else:
            payload[key] = value
    path = tmp / "config.json"
    path.write_text(json.dumps(payload))
    return path


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=_CONFIG_EDITS)
@example(case={"edits": [("nx", 1)], "eps_list": None, "custom_state": None})
@example(case={"edits": [("nv", 2)], "eps_list": None, "custom_state": None})
@example(case={"edits": [("v_max", math.inf)], "eps_list": [0.4, 0.2, math.nan], "custom_state": None})
@example(case={"edits": [("t_final", 1e300)], "eps_list": None, "custom_state": None})
@example(case={"edits": [_HUGE_SAMPLES], "eps_list": None, "custom_state": None})
@example(case={"edits": [("x_hi", 1e300)], "eps_list": None, "custom_state": None})
@example(case={"edits": [("nx", 64), ("nv", 100_000_000)], "eps_list": None, "custom_state": None})
@example(case={"edits": [("nx", 4_000_000_000), ("nv", 64)], "eps_list": None, "custom_state": None})
def test_cli_fuzzed_config_exit_codes(case):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _edited_config(Path(tmp), case)
        for main in (main_simulate_kinetic, main_converge):
            assert main(["--config", str(cfg), "--out", str(Path(tmp) / "out")]) in (0, 1, 2, 3)


def test_cli_converge_writes_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    capsys.readouterr()
    rc = main_converge(["--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "convergence.csv").exists()
    meta = json.loads((out / "convergence_meta.json").read_text())
    assert "slope" in meta and len(meta["local_slopes"]) == 2
    # one record per run, in eps_list order, with the keys of a run's
    # run_meta.json other than its config
    runs = meta["runs"]
    assert [r["eps"] for r in runs] == [0.4, 0.2, 0.1]
    book_keys = {"max_wall_flux", "wall_outflow", "truncation_leak", "max_cfl_transport", "max_cfl_drag", "min_n"}
    cost_keys = {
        "steps", "kinetic_seconds", "gas_seconds", "moments_seconds", "sample_seconds", "sample_wait_seconds",
        "march_cpu", "sampler_cpu", "sampler_gas_steps",
    }
    assert all(set(r) == {"eps", "dt", "wall_seconds", "audit", "ck_margin_min", *book_keys, *cost_keys}
               for r in runs)
    # every run takes the same steps, and the march's kinetic and moments
    # parts and its hand-off to the sampler fit in its wall time; the gas
    # sub-steps and the reports may run in the sampler's own process. Each
    # worker places its run as a run of this process would
    assert {r["steps"] for r in runs} == {round(0.1 / runs[0]["dt"])}
    for r in runs:
        _check_placement(r)
        parts = [r[key] for key in ("kinetic_seconds", "moments_seconds", "sample_wait_seconds")]
        assert all(t > 0 for t in parts) and sum(parts) < r["wall_seconds"]
        assert 0 < r["gas_seconds"] and 0 < r["sample_seconds"] < r["wall_seconds"]
    # and so does the limit march's
    limit_cost = meta["limit"]
    assert set(limit_cost) == {"steps", "substep_seconds", "sample_seconds"}
    assert limit_cost["steps"] > 0 and limit_cost["substep_seconds"] > 0 and limit_cost["sample_seconds"] > 0
    # the slack at t = 0 is 0, so each worst slack is min(0, the slack after it)
    slacks = [r["audit"]["slack_entropy_budget"] for r in runs]
    after = [r["audit"]["slack_after_start"] for r in runs]
    assert all(s != 0.0 for s in after) and slacks == [min(0.0, s) for s in after]
    workers = min(3, len(os.sched_getaffinity(0)))
    assert meta["workers"] == workers
    assert f" worst_slack={min(slacks):.6g} workers={workers} -> " in capsys.readouterr().out


def test_cli_simulate_limit(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, nx=32, nv=2)
    out = tmp_path / "lim"
    assert main_simulate_limit(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    line = capsys.readouterr().out
    arrays, meta = load_state(out / "limit_series.json")
    books = f"max_exchange_asym={meta['max_exchange_asym']:.6g} min_one_plus_h={meta['min_one_plus_h']:.6g}"
    cost = " ".join(f"{key}={meta[key]:.6g}" for key in ("steps", "substep_seconds", "sample_seconds"))
    assert line == f"dt={meta['dt']:g} {books} {cost} -> {out}\n"
    run = harness.run_limit(ExperimentConfig.from_json(cfg))
    assert run.book == {key: meta[key] for key in ("max_exchange_asym", "min_one_plus_h")}
    assert set(run.cost) == {"steps", "substep_seconds", "sample_seconds"}
    assert meta["steps"] == run.cost["steps"] == 12
    assert set(arrays) == {"times", "rho", "u", "n", "v", "mass_rho"}
    assert arrays["times"].shape == (5,) and arrays["n"].shape == (5, 32)
    # the samples are a subset of the steps the minimum runs over
    assert 0 < meta["min_one_plus_h"] <= arrays["n"].min()


def test_limit_run_exchange_book_measures_the_applied_momenta(monkeypatch):
    # the book sums the momenta the drag exchange applies to the two phases:
    # a fluid velocity off by delta leaves delta * int n unmatched each step
    cfg = tiny_config(nx=32, nv=2)
    assert harness.run_limit(cfg).book["max_exchange_asym"] <= 1e-12
    delta, real = 1e-6, limit.drag_exchange

    def offset(rho, u, n, v, dt):
        u2, v2 = real(rho, u, n, v, dt)
        return u2, v2 + delta

    monkeypatch.setattr(limit, "drag_exchange", offset)
    mass_n = quad_x(make_well_prepared(cfg)[2].fluid.n, cfg.grid())
    assert harness.run_limit(cfg).book["max_exchange_asym"] >= 0.5 * delta * mass_n


def test_limit_run_min_one_plus_h_reads_every_step(tmp_path):
    # the gas rarefies deepest between t = 0 and the one sample at t_final;
    # the run's minimum has the bits of a direct step-by-step march
    grid = PhaseGrid(nx=64, nv=16)
    ones = np.ones(grid.nx)
    v0 = -0.5 * np.sin(2 * np.pi * grid.x) * np.sin(np.pi * grid.x) ** 2
    state = save_state(tmp_path / "wave", {"rho0": ones, "u0": 0.0 * ones, "n0": ones, "v0": v0})
    cfg = ExperimentConfig(nx=64, nv=16, t_final=0.3, n_samples=1, initial_profile="custom",
                           custom_state=str(state), output_dir=str(tmp_path / "out"))
    run = harness.run_limit(cfg)
    st = make_well_prepared(cfg)[2]
    lows = [float(st.fluid.n.min())]
    for _ in range(round(cfg.t_final / run.dt)):
        st = two_phase_step(st, run.dt, grid)
        lows.append(float(st.fluid.n.min()))
    assert run.book["min_one_plus_h"] == min(lows)
    assert round(run.book["min_one_plus_h"], 5) == 0.95544 and round(float(run.stacks["n"].min()), 5) == 0.97363


def _rarefying_coupled_run(tmp_path):
    """The same rarefying gas as above, coupled to a kinetic phase at rest:
    the run, and the gas velocities and densities of a step-by-step march of
    it, from t = 0 to the end."""
    grid = PhaseGrid(nx=64, nv=16)
    ones = np.ones(grid.nx)
    v0 = -0.5 * np.sin(2 * np.pi * grid.x) * np.sin(np.pi * grid.x) ** 2
    state = save_state(tmp_path / "wave", {"rho0": ones, "u0": 0.0 * ones, "n0": ones, "v0": v0})
    cfg = ExperimentConfig(nx=64, nv=16, t_final=0.3, n_samples=1, initial_profile="custom",
                           custom_state=str(state), output_dir=str(tmp_path / "out"))
    run = harness.run_coupled(cfg, 0.1)
    kin, fl, _ = make_well_prepared(cfg)
    walls = kinetic.wall_kernels(cfg.boundary, grid, cfg.wall_temperature)
    work = kinetic.KineticWork(grid, run.dt, 0.1)
    gas = [fl]
    for _ in range(round(cfg.t_final / run.dt)):
        mom = kinfluid.compute_moments(kin, grid)
        kin, _ = kinetic.kinetic_step(kin, fl, walls, work)
        fl = harness.ns_step(fl, mom.rho, mom.u, run.dt, grid)
        gas.append(fl)
    return grid, run, gas


def test_coupled_run_min_n_reads_every_step(tmp_path):
    # the run's min_n has the bits of a step-by-step march and lies below
    # both samples
    _, run, gas = _rarefying_coupled_run(tmp_path)
    assert run.book["min_n"] == min(float(fl.n.min()) for fl in gas)
    assert round(run.book["min_n"], 5) == 0.9557 and round(float(run.stacks["n"].min()), 5) == 0.97381


def test_coupled_run_cfl_book_reads_every_step(tmp_path):
    # the CFL ratios of the run's transport half-steps, a run constant, and
    # the largest of its drag half-steps, from the gas velocity at the start
    # of each step, recomputed here from dt, the grid and the march's v
    grid, run, gas = _rarefying_coupled_run(tmp_path)
    half = 0.5 * run.dt
    assert run.book["max_cfl_transport"] == half * (grid.v_max - 0.5 * grid.dv) / grid.dx
    drag = [half * (float(np.abs(fl.v).max()) + grid.xi_edges[-2]) / grid.dv for fl in gas[:-1]]
    assert run.book["max_cfl_drag"] == max(drag)
    assert min(drag) < max(drag)  # the gas speeds move, so the book reads every step
    for key in ("max_cfl_transport", "max_cfl_drag"):
        assert 0.0 < run.book[key] <= 1.0, key


@pytest.mark.parametrize(
    "main, blocked, argv",
    [
        (main_simulate_kinetic, "series.json", []),
        (main_converge, "convergence.csv", []),
        (main_simulate_limit, "limit_series.json", []),
        # the failure-state dump of a run whose relaxation coefficient overflows
        (main_simulate_kinetic, "failure_step_0.json", ["--eps", "1e-320"]),
    ],
    ids=["simulate-kinetic", "converge", "simulate-limit", "failure-dump"],
)
def test_cli_unwritable_output_file_exit_code(tmp_path, capsys, main, blocked, argv):
    # a directory where an output file goes: exit 1 with one stderr line
    # naming that file, not a traceback
    cfg = _write_cfg(tmp_path, nv=8, t_final=0.02, n_samples=2)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["--config", str(cfg), "--out", str(out), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and err.count("\n") == 1, err
    assert str(out / blocked) in err
    assert list(out.glob(".*")) == []  # no streamed stack file is left behind


def test_cli_check_entropy_rejects_non_run(tmp_path):
    assert main_check_entropy(["--run", str(tmp_path)]) == EXIT_CONFIG
    # a run_meta.json without the series it describes
    (tmp_path / "run_meta.json").write_text(json.dumps({"eps": 0.1}))
    assert main_check_entropy(["--run", str(tmp_path)]) == EXIT_CONFIG
    # a valid series next to a run_meta.json with missing or malformed fields
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "run_meta.json").read_text())
    bad_tols = ({**meta, "config": {"audit_tolerance": "x"}}, {**meta, "config": {"audit_tolerance": -1.0}},
                {**meta, "config": {}}, {**meta, "config": {"audit_tolerance": math.inf}})
    # json writes math.inf as Infinity, which json reads back as inf
    for bad in ({}, {"eps": "0.1"}, {**meta, "eps": math.inf}, {**meta, "config": 1}, *bad_tols):
        (out / "run_meta.json").write_text(json.dumps(bad))
        assert main_check_entropy(["--run", str(out)]) == EXIT_CONFIG


def test_cli_check_entropy_reads_series_with_retired_fields(tmp_path):
    # series.json files written while the report carried H and rel_flux_l1
    # hold those two series too; the re-audit reads only the report's fields
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    arrays, _ = load_state(out / "series.json")
    assert "H" not in arrays and "rel_flux_l1" not in arrays
    audit, _ = harness.reaudit_run(out)
    arrays["H"] = arrays["rel_flux_l1"] = np.zeros_like(arrays["times"])
    save_state(out / "series", arrays)
    assert main_check_entropy(["--run", str(out)]) == EXIT_OK
    assert harness.reaudit_run(out)[0].slack_entropy_budget == audit.slack_entropy_budget


def test_mid_run_vacuum_dumps_state_and_exit_code(tmp_path, monkeypatch, capsys):
    # the relaxation coefficient dt/(eps*dv^2) overflows at eps = 1e-320, and
    # at eps = 5e-324 (dv = 0.5) eps*dv^2 underflows to 0: the relaxation
    # solve refuses both with one line on stderr
    for eps in ("1e-320", "5e-324"):
        out = tmp_path / f"tiny_eps_{eps}"
        cfgfile = _write_cfg(tmp_path, output_dir=str(out))
        capsys.readouterr()
        assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", eps]) == EXIT_SOLVER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure:"), err
        assert list(out.glob("failure_step_0__f.bin"))

    # a particle density that vanishes in one cell after the first step
    real = harness.compute_moments
    calls = []

    def thinned(f, grid, *work):
        mom = real(f, grid, *work)
        calls.append(1)
        if len(calls) > 1:
            mom.rho[3] = 0.0
        return mom

    monkeypatch.setattr(harness, "compute_moments", thinned)
    cfgfile = _write_cfg(tmp_path, output_dir=str(tmp_path / "dump"))
    assert main_simulate_kinetic(["--config", str(cfgfile)]) == EXIT_SOLVER
    assert list((tmp_path / "dump").glob("failure_step_*__f.bin"))


def test_solver_failure_dumps_state_and_exit_code(tmp_path, monkeypatch):
    from kinfluid import cli
    from kinfluid.core import CFLError, SolverError
    import kinfluid.harness as harness

    def boom(*a, **k):
        raise CFLError("forced failure")

    monkeypatch.setattr(harness, "kinetic_step", boom)
    cfg = tiny_config(output_dir=str(tmp_path / "dump"))
    with pytest.raises(SolverError) as err:
        run_coupled(cfg, 0.4)
    assert "step 0" in str(err.value)
    assert list((tmp_path / "dump").glob("failure_step_*__f.bin"))

    cfgfile = _write_cfg(tmp_path, output_dir=str(tmp_path / "dump2"))
    monkeypatch.setattr(cli, "run_coupled", boom)
    assert cli.main_simulate_kinetic(["--config", str(cfgfile)]) == 2


def _lean_bubble_state(tmp_path):
    """nx = 32 custom data whose particle density is 1e-9 on cells 12-19."""
    x = (np.arange(32) + 0.5) / 32
    rho0 = np.ones(32)
    rho0[12:20] = 1e-9
    u0 = -0.5 * np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2
    return save_state(tmp_path / "bubble", {"rho0": rho0, "u0": u0, "n0": np.ones(32), "v0": np.zeros(32)})


def test_limit_run_failure_dumps_state(tmp_path, monkeypatch):
    desc = _lean_bubble_state(tmp_path)
    cfg = _write_cfg(tmp_path, nx=32, nv=16, t_final=0.2, initial_profile="custom", custom_state=str(desc))
    assert main_simulate_limit(["--config", str(cfg), "--out", str(tmp_path / "d")]) == EXIT_OK
    dt = load_state(tmp_path / "d" / "limit_series.json")[1]["dt"]

    # a failing step dumps the state it started from
    real = harness._two_phase_substeps

    def fail_at_step_2(st, dt, grid):
        if st.t > 1.5 * dt:
            raise SolverError("forced failure")
        return real(st, dt, grid)

    monkeypatch.setattr(harness, "_two_phase_substeps", fail_at_step_2)
    out = tmp_path / "direct"
    assert main_simulate_limit(["--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    arrays, meta = load_state(out / "failure_step_2.json")
    assert meta["step"] == 2 and meta["t"] == pytest.approx(2 * dt)
    assert set(arrays) == {"rho", "u", "n", "v"} and arrays["n"].shape == (32,)


def test_cli_simulate_kinetic_audit_failure(tmp_path, capsys):
    # a hot diffuse wall heats the gas faster than the certified budget
    # allows; with no tolerance the run's own audit fails, and so does the
    # re-audit of the directory it wrote
    cfg = _write_cfg(tmp_path, nx=16, nv=16, t_final=0.1, n_samples=4, eps_list=[0.4],
                     boundary="diffuse", wall_temperature=20.0, audit_tolerance=0.0)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(out)]) == EXIT_AUDIT
    assert capsys.readouterr().err == "entropy audit failed\n"
    assert {"series.json", "state_final.json", "run_meta.json"} <= {p.name for p in out.iterdir()}
    assert json.loads((out / "run_meta.json").read_text())["audit"]["slack_entropy_budget"] < 0
    assert main_check_entropy(["--run", str(out)]) == EXIT_AUDIT


def test_cli_converge_audit_failure(tmp_path, capsys):
    # the same hot wall in a sweep: every run's audit fails, so converge
    # exits 3 after writing its outputs, with one stderr line naming each
    # failing eps, and its table is the one run_convergence builds
    cfg = _write_cfg(tmp_path, nx=16, nv=16, t_final=0.1, n_samples=4, eps_list=[0.4, 0.2, 0.1],
                     boundary="diffuse", wall_temperature=20.0, audit_tolerance=0.0)
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main_converge(["--config", str(cfg), "--out", str(out)]) == EXIT_AUDIT
    captured = capsys.readouterr()
    assert captured.err == "entropy audit failed at eps=0.4,0.2,0.1\n"
    assert captured.out.startswith("fitted slope=")
    runs = json.loads((out / "convergence_meta.json").read_text())["runs"]
    assert all(r["audit"]["slack_entropy_budget"] < 0 for r in runs)
    rows = harness.run_convergence(ExperimentConfig.from_json(cfg)).rows
    expected = emit_csv(rows, tmp_path / "expected.csv")
    assert (out / "convergence.csv").read_bytes() == expected.read_bytes()


def _untimed(record: dict) -> dict:
    """A run or sweep record without its timings, the keys ending in
    _seconds, and its placement, which depends on the CPUs it found: the
    CPUs of its processes, ending in _cpu, and the gas sub-steps that its
    sampler made."""
    return {key: value for key, value in record.items()
            if not key.endswith(("_seconds", "_cpu")) and key != "sampler_gas_steps"}


def test_sweep_keeps_its_bytes_on_every_path(tmp_path, monkeypatch):
    # the coupled runs of a sweep go to forked child processes, one per eps,
    # at most one per CPU at once; the table and every run's record but its
    # timings are the same with the default workers, with one worker, with
    # each run's sampler giving the gas sub-steps back to its march after
    # the first two, and with run_coupled replaced by a closure, as a
    # profiler wraps it: each child looks it up and runs it itself
    cfg = _write_cfg(tmp_path, eps_list=[0.4, 0.2, 0.1, 0.05])
    children, running = [], []  # the sweep's children, and how many ran as each started

    class Counted(harness._Child):
        def __init__(self, *args):
            running.append(sum(not child.ended for child in children))
            super().__init__(*args)
            children.append(self)

    monkeypatch.setattr(harness, "_Child", Counted)

    def sweep(tag):
        out = tmp_path / tag
        children.clear()
        running.clear()
        assert main_converge(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "convergence_meta.json").read_text())
        assert len(children) == 4 and max(running) == meta["workers"] - 1
        return (out / "convergence.csv").read_bytes(), [_untimed(run) for run in meta["runs"]], meta["workers"]

    default = sweep("default")
    assert default[2] == min(4, len(os.sched_getaffinity(0)))
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = sweep("one")
    assert one[2] == 1
    with monkeypatch.context() as patch:
        _handing_back(patch, 2)
        handed_back = sweep("handed_back")

    real, pids = harness.run_coupled, tmp_path / "pids"
    pids.mkdir()

    def wrapped(config, eps):
        (pids / str(os.getpid())).touch()
        return real(config, eps)

    monkeypatch.setattr(harness, "run_coupled", wrapped)
    closure = sweep("closure")
    assert {int(p.name) for p in pids.iterdir()} == {child.pid for child in children}
    assert default[:2] == one[:2] == handed_back[:2] == closure[:2]


def test_cli_converge_failing_run(tmp_path, capsys):
    # a run that fails inside a sweep (at eps = 1e-310 the relaxation
    # coefficient overflows) ends the sweep with exit 2 and one stderr line
    # naming its dump, which lies in the run's own directory, and no table
    # is written
    cfg = _write_cfg(tmp_path, eps_list=[0.4, 0.2, 0.1, 1e-310])
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main_converge(["--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
    err = capsys.readouterr().err.splitlines()
    dump = out / "eps_1e-310" / "failure_step_0.json"
    assert len(err) == 1 and err[0].startswith("solver failure: step 0: relaxation coefficient"), err
    assert err[0].endswith(f"at eps = 1e-310 (state dumped to {dump})") and dump.is_file()
    assert not (out / "convergence.csv").exists()


@pytest.mark.parametrize("failing", ["run", "limit"])
def test_sweep_starts_no_run_after_a_failure(tmp_path, monkeypatch, failing):
    # on one CPU the runs go one at a time; once the first run or the limit
    # march has failed, no further run starts, and the first run, under way
    # as the limit march fails, ends first
    ran, real = tmp_path / "ran", harness.run_coupled
    ran.mkdir()

    def recorded(config, eps):
        (ran / repr(eps)).touch()
        if failing == "run":
            raise SolverError(f"forced failure at eps = {eps!r}")
        return real(config, eps)

    def failing_limit(config):
        raise SolverError("forced limit failure")

    monkeypatch.setattr(harness, "run_coupled", recorded)
    if failing == "limit":
        monkeypatch.setattr(harness, "run_limit", failing_limit)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    message = "forced failure at eps = 0.4" if failing == "run" else "forced limit failure"
    with pytest.raises(SolverError, match=f"^{message}$"):
        harness.run_convergence(tiny_config(output_dir=str(tmp_path / "sweep")))
    assert [p.name for p in ran.iterdir()] == ["0.4"]


def test_cli_converge_worker_killed(tmp_path, monkeypatch, capsys):
    # a worker that ends abruptly, as one killed for want of memory would,
    # ends the sweep as a solver failure with one stderr line, not a traceback
    def killed(config, eps):
        os._exit(1)

    monkeypatch.setattr(harness, "run_coupled", killed)
    cfg = _write_cfg(tmp_path)
    capsys.readouterr()
    assert main_converge(["--config", str(cfg), "--out", str(tmp_path / "sweep")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: a sweep worker process ended abruptly:") and err.count("\n") == 1, err


def test_sweep_runs_failing_together_keep_their_dumps(tmp_path, monkeypatch):
    # runs that fail at the same step at the same time each dump the state
    # they reached, not one another's, and the sweep raises the failure of
    # the first failing eps
    real = harness.kinetic_step

    def fail_at_step_2(kin, fl, walls, work):
        if kin.t > 1.5 * work.dt:
            raise SolverError("forced failure")
        return real(kin, fl, walls, work)

    monkeypatch.setattr(harness, "kinetic_step", fail_at_step_2)
    cfg = tiny_config(output_dir=str(tmp_path / "sweep"))
    with pytest.raises(SolverError) as err:
        harness.run_convergence(cfg)
    first = tmp_path / "sweep" / "eps_0.4" / "failure_step_2.json"
    assert str(err.value).endswith(f"(state dumped to {first})")
    dumps = list((tmp_path / "sweep").glob("eps_*/failure_step_2.json"))
    assert first in dumps
    for dump in dumps:
        eps = float(dump.parent.name.removeprefix("eps_"))
        alone = tmp_path / f"alone_{eps!r}"
        with pytest.raises(SolverError):
            run_coupled(tiny_config(output_dir=str(alone)), eps)
        assert load_state(dump)[0]["f"].tobytes() == load_state(alone / "failure_step_2.json")[0]["f"].tobytes()


# a sweep whose runs never end, each in a worker that names itself in a
# file in the working directory
_ENDLESS_SWEEP = """
import os, time
from kinfluid import harness
def endless(config, eps):
    open(f"pid_{os.getpid()}", "w").close()
    time.sleep(60)
harness.run_coupled = endless
harness.run_convergence(harness.ExperimentConfig(nx=8, nv=8, t_final=0.02, n_samples=2))
"""


def _alive(pid: int) -> bool:
    """Whether process pid exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _wait_for(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)
    return condition()


def test_sweep_workers_end_with_their_process(tmp_path):
    # a sweep's process killed mid-sweep takes its workers with it, where a
    # worker left waiting on its call queue would wait for ever
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", _ENDLESS_SWEEP], cwd=tmp_path, env=env)
    pids = []
    try:
        workers = min(4, len(os.sched_getaffinity(0)))

        def all_named():
            pids[:] = [int(p.name.removeprefix("pid_")) for p in tmp_path.glob("pid_*")]
            return len(pids) == workers

        assert _wait_for(all_named, 30)
        proc.kill()
        proc.wait(timeout=10)
        assert _wait_for(lambda: not any(map(_alive, pids)), 10)
    finally:
        proc.kill()
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# the sampler process of a coupled run
# ---------------------------------------------------------------------------


def _children() -> list[int]:
    """The pids of this process's children, zombies included."""
    return [int(pid) for pid in Path(f"/proc/self/task/{os.getpid()}/children").read_text().split()]


def _dense_config(tmp_path, **kw) -> Path:
    """A diffuse-wall config file, 16 x 16 unless kw says otherwise,
    sampled on every one of its steps."""
    kw = {**dict(nx=16, nv=16, t_final=0.05, eps_list=[0.2], boundary="diffuse", wall_temperature=1.3), **kw}
    steps = run_coupled(ExperimentConfig(**kw, n_samples=1), 0.2).cost["steps"]
    return _write_cfg(tmp_path, **kw, n_samples=steps)


def _failing_at(name: str, call: int, how):
    """harness.<name>, with how() called first at its call-th call from 0:
    the report of that sample (evaluate_entropy_report), say, or the gas
    sub-step of that step (ns_step). The sampler process inherits it as the
    run forks it, and shares its count of calls with the run's process, so
    the count is the step's on whichever side a step's gas sub-step runs.
    For one run at a time: they take turns with the count."""
    real, calls = getattr(harness, name), np.frombuffer(mmap.mmap(-1, 8), np.int64)

    def wrapper(*args):
        calls[0] += 1
        if calls[0] == call + 1:
            how()
        return real(*args)

    return wrapper


def _forced_vacuum():
    raise VacuumError("forced vacuum")


# the child process that a sweep's run and a run's sampler each run in
# (harness._Child)


def test_child_returns_its_result():
    child = harness._Child(lambda out: ("done", os.getpid()), "ended abruptly")
    try:
        assert child.result() == ("done", child.pid) and child.result() == ("done", child.pid)
    finally:
        child.stop()
    assert _children() == []


def test_child_raises_its_exception():
    def failing(out):
        raise VacuumError("forced vacuum")

    child = harness._Child(failing, "ended abruptly")
    try:
        for _ in range(2):  # and again once its message is read
            with pytest.raises(VacuumError, match="^forced vacuum$"):
                child.result()
    finally:
        child.stop()
    assert _children() == []


def test_child_ending_without_a_message_is_a_solver_error():
    child = harness._Child(lambda out: os._exit(1), "the child ended abruptly")
    try:
        with pytest.raises(SolverError, match="^the child ended abruptly$"):
            child.result()
    finally:
        child.stop()
    assert _children() == []


def test_stopped_child_leaves_no_process():
    # stop() kills a child still at work, rather than wait for it, and reaps it
    child = harness._Child(lambda out: time.sleep(60), "ended abruptly")
    assert _children() == [child.pid]
    t_a = time.monotonic()
    child.stop()
    assert time.monotonic() - t_a < 10 and _children() == []


# a tiny converge, then the names of the modules of a process pool that it
# imported
_POOL_IMPORTS = """
import json, sys
from kinfluid import cli
json.dump({"nx": 8, "nv": 8, "t_final": 0.02, "n_samples": 2, "eps_list": [0.4, 0.2, 0.1]}, open("tiny.json", "w"))
assert cli.main_converge(["--config", "tiny.json", "--out", "sweep"]) == 0
print(sorted(name for name in ("concurrent.futures.process", "multiprocessing") if name in sys.modules))
"""


def test_sweep_imports_no_process_pool(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _POOL_IMPORTS], cwd=tmp_path, env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "[]"


def test_sampled_rows_match_reports_made_in_process(tmp_path):
    # the sampler writes each row from its own copy of the run's work set;
    # the first and the last row carry the bits of a report made here, on
    # the initial state and, in a fresh work set, on the run's final state,
    # and a run sampled at those two levels only has their smaller margin
    cfg = ExperimentConfig.from_json(_dense_config(tmp_path))
    run = run_coupled(cfg, 0.2)
    assert run.cost["steps"] == cfg.n_samples
    grid = cfg.grid()

    def in_process(kin, fl):
        work = kinetic.KineticWork(grid, run.dt, 0.2)
        mom = harness.compute_moments(kin, grid, work.f)
        report, l1_gap = entropy.evaluate_entropy_report(kin, fl, mom, work)
        row = np.recarray(1, dtype=run.reports.dtype)
        row[0] = (kin.t, *vars(report).values(), quad_x(fl.n, grid))
        level = np.stack([mom.rho, mom.u, fl.n, fl.v])
        return row, level, entropy.csiszar_kullback_margin(report, l1_gap)

    def sampled_fields(run, k):
        return np.stack([run.stacks[name][k] for name in ("rho", "u", "n", "v")])

    kin, fl, _ = make_well_prepared(cfg)
    first, first_fields, first_margin = in_process(kin, fl)
    last, last_fields, last_margin = in_process(run.f_final, run.fluid_final)
    assert run.reports[:1].tobytes() == first.tobytes()
    assert run.reports[-1:].tobytes() == last.tobytes()
    assert sampled_fields(run, 0).tobytes() == first_fields.tobytes()
    assert sampled_fields(run, -1).tobytes() == last_fields.tobytes()
    two_levels = run_coupled(replace(cfg, n_samples=1), 0.2)
    assert two_levels.reports.tobytes() == run.reports[[0, -1]].tobytes()
    for name, stack in two_levels.stacks.items():
        assert stack.tobytes() == run.stacks[name][[0, -1]].tobytes(), name
    assert two_levels.ck_margin_min == min(first_margin, last_margin)
    assert run.ck_margin_min <= two_levels.ck_margin_min


_RUN_ARGS = ["--config", "config.json", "--eps", "0.2", "--out", "run"]

# a simulate-kinetic on the config in the working directory, on one CPU
_ONE_CPU_RUN = f"""
import os, sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from kinfluid import cli
sys.exit(cli.main_simulate_kinetic({_RUN_ARGS!r}))
"""


def _placement(run_dir: Path) -> tuple:
    """The CPU that a run's march ran on, the CPU its sampler was pinned to
    and the gas sub-steps its sampler made, as its run_meta.json records
    them."""
    meta = json.loads((run_dir / "run_meta.json").read_text())
    return meta["march_cpu"], meta["sampler_cpu"], meta["sampler_gas_steps"]


def _check_placement(cost: dict):
    """Check the placement that a run of this process records in cost (or
    in a record of it): where the process may take two CPUs or more at once,
    the sampler makes every gas sub-step, pinned to the CPU of the set next
    after the march's, cyclically; else the march makes them and nothing is
    pinned."""
    cpus = sorted(os.sched_getaffinity(0))
    march, sampler = cost["march_cpu"], cost["sampler_cpu"]
    if min(len(cpus), harness._cpu_quota()) >= 2:
        assert march in cpus and sampler == cpus[(cpus.index(march) + 1) % len(cpus)], (march, sampler)
        assert cost["sampler_gas_steps"] == cost["steps"]
    else:
        assert (march, sampler, cost["sampler_gas_steps"]) == (-1, -1, 0)


def _handing_back(patch, steps: int):
    """Make the sampler of each run give the gas sub-steps back to its march
    after its first steps of them, an even number, as a sampler that waits
    for a CPU longer than they take does: it looks twice, each look at its
    wait reading a second more."""
    assert steps % 2 == 0
    patch.setattr(harness, "GAS_LOOK_STEPS", steps // 2)
    looks = itertools.count()
    patch.setattr(harness, "_cpu_wait", lambda *pids: next(looks))


def test_sampled_run_keeps_its_bytes_on_one_cpu(tmp_path, monkeypatch):
    # by default the sampler makes the gas sub-steps beside the march, on a
    # CPU of its own; in a process that reads one CPU, or one CPU's quota,
    # or runs on one, the march makes them, and the march and its sampler
    # share the CPU, so the march waits while the sampler's pipe is full;
    # and a sampler that waits for its CPU gives them back to the march
    # midway. On a diffuse and a specular wall, the record, the smallest
    # margin and every file, the final gas state included, keep their
    # bytes on all five paths
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    tags = ("default", "read_one", "quota_one", "one", "handed_back")
    for boundary in ("diffuse", "specular"):
        root = tmp_path / boundary
        root.mkdir()
        config = _dense_config(root, boundary=boundary).read_text()
        for tag in tags:
            (root / tag).mkdir()
            (root / tag / "config.json").write_text(config)
        monkeypatch.chdir(root / "default")
        assert main_simulate_kinetic(_RUN_ARGS) == EXIT_OK
        for tag, patched in (("read_one", _one_cpu_read), ("quota_one", _one_cpu_quota),
                             ("handed_back", lambda patch: _handing_back(patch, 4))):
            with monkeypatch.context() as patch:
                patched(patch)
                patch.chdir(root / tag)
                assert main_simulate_kinetic(_RUN_ARGS) == EXIT_OK
        subprocess.run([sys.executable, "-c", _ONE_CPU_RUN], cwd=root / "one", env=env, check=True, timeout=120)
        runs = {tag: {p.name: _comparable(p) for p in (root / tag / "run").iterdir()} for tag in tags}
        default = runs["default"]
        assert "series__F.bin" in default and "state_final__n.bin" in default
        for tag in tags[1:]:
            assert runs[tag].keys() == default.keys()
            assert [name for name in default if default[name] != runs[tag][name]] == [], (boundary, tag)
        for tag in ("read_one", "quota_one", "one"):
            assert _placement(root / tag / "run") == (-1, -1, 0)
        _check_placement(json.loads((root / "default" / "run" / "run_meta.json").read_text()))
        if _placement(root / "default" / "run")[1] >= 0:
            assert _placement(root / "handed_back" / "run")[2] == 4


# put before _ONE_CPU_RUN: the sampler's pipe is left at its default size
_DEFAULT_PIPE = """
import errno, fcntl, os
def refused(*args):
    raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))
fcntl.fcntl = refused
"""


def _refused_pipe_size(calls: list):
    """fcntl.fcntl refusing every call with EPERM, as the kernel refuses a
    pipe above pipe-max-size; records each call's command in calls."""

    def refused(fd, cmd, *args):
        calls.append(cmd)
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    return refused


def test_run_on_a_pipe_smaller_than_a_sample_keeps_its_bytes(tmp_path, monkeypatch):
    # where the system refuses to enlarge the sampler's pipe, it keeps its
    # default size, smaller than one sample of this 128 x 64 grid (69 KiB),
    # so each sample goes over in lockstep with the sampler's reads; the
    # series, their descriptor and the smallest margin keep their bytes, on
    # one CPU too
    nx, nv = 128, 64
    pipe_r, pipe_w = os.pipe()
    try:
        assert fcntl.fcntl(pipe_w, fcntl.F_GETPIPE_SZ) < 8 * (nx * nv + 5 * nx + 1)
    finally:
        os.close(pipe_r)
        os.close(pipe_w)
    config = _dense_config(tmp_path, nx=nx, nv=nv).read_text()
    for tag in ("default", "small", "small_one"):
        (tmp_path / tag).mkdir()
        (tmp_path / tag / "config.json").write_text(config)
    monkeypatch.chdir(tmp_path / "default")
    assert main_simulate_kinetic(_RUN_ARGS) == EXIT_OK
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(fcntl, "fcntl", _refused_pipe_size(calls))
        patch.chdir(tmp_path / "small")
        assert main_simulate_kinetic(_RUN_ARGS) == EXIT_OK
    assert calls == [fcntl.F_SETPIPE_SZ]
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", _DEFAULT_PIPE + _ONE_CPU_RUN], cwd=tmp_path / "small_one", env=env,
                   check=True, timeout=120)

    def series(tag):
        run = tmp_path / tag / "run"
        margin = json.loads((run / "run_meta.json").read_text())["ck_margin_min"]
        return margin, {p.name: p.read_bytes() for p in run.glob("series*")}

    default = series("default")
    assert len(default[1]) > 4 and "series__rho.bin" in default[1]
    assert series("small") == default
    assert series("small_one") == default


def test_short_sample_write_is_a_solver_failure(tmp_path, monkeypatch):
    # a write that the pipe takes only part of, as one cut by a signal, is a
    # solver failure of the march, dumped at its step; no process outlives
    # the run
    cfg = ExperimentConfig.from_json(_dense_config(tmp_path, output_dir=str(tmp_path / "out")))
    real = os.writev
    monkeypatch.setattr(os, "writev", lambda fd, buffers: real(fd, buffers[:1]))  # f only
    took, size = 8 * cfg.nx * cfg.nv, 8 * (cfg.nx * cfg.nv + 5 * cfg.nx + 1)
    with pytest.raises(SolverError, match=rf"^step 0: the sampler pipe took {took} of a sample's {size} bytes"):
        run_coupled(cfg, 0.2)
    assert (tmp_path / "out" / "failure_step_0.json").exists()
    assert _children() == []


def test_sample_failure_dumps_the_sampled_state(tmp_path, monkeypatch, capsys):
    # a report that fails in the sampler exits 2 with the step of its
    # sample and the dump of the sampled state, as a report made in the
    # march would; no process outlives the run
    cfgfile = _dense_config(tmp_path)
    cfg = ExperimentConfig.from_json(cfgfile)
    run = run_coupled(cfg, 0.2)
    monkeypatch.setattr(harness, "evaluate_entropy_report", _failing_at("evaluate_entropy_report", 3, _forced_vacuum))
    out = tmp_path / "failed"
    capsys.readouterr()
    assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", "0.2", "--out", str(out)]) == EXIT_SOLVER
    dump = out / "failure_step_2.json"
    assert capsys.readouterr().err == f"solver failure: step 2: forced vacuum (state dumped to {dump})\n"
    arrays, meta = load_state(dump)
    assert meta == {"step": 2, "t": run.reports.times[3]}
    assert arrays["n"].tobytes() == run.stacks["n"][3].tobytes()
    assert _children() == []


def test_sample_failure_wins_over_a_later_march_failure(tmp_path, monkeypatch):
    # the sample after step 0 fails in the sampler, then the march fails at
    # step 2 before it learns of it: the earlier failure is raised, and the
    # march dumps nothing
    cfg = ExperimentConfig.from_json(_dense_config(tmp_path, output_dir=str(tmp_path / "out")))
    real = harness.kinetic_step

    def fail_at_step_2(kin, fl, walls, work):
        if kin.t > 1.5 * work.dt:
            raise SolverError("forced failure")
        return real(kin, fl, walls, work)

    monkeypatch.setattr(harness, "kinetic_step", fail_at_step_2)
    monkeypatch.setattr(harness, "evaluate_entropy_report", _failing_at("evaluate_entropy_report", 1, _forced_vacuum))
    with pytest.raises(SolverError) as err:
        run_coupled(cfg, 0.2)
    assert str(err.value).startswith("step 0: forced vacuum (state dumped to ")
    assert sorted(p.name for p in (tmp_path / "out").glob("failure_step_*.json")) == ["failure_step_0.json"]
    assert _children() == []


class _Deadline(BaseException):
    """Raised by SIGALRM in a test that would otherwise hang; a
    BaseException, so no handler of the run takes it for the run's own
    failure."""


def _timed_out(signum, frame):
    raise _Deadline("the run did not end")


@contextlib.contextmanager
def _deadline(seconds: int = 60):
    """Raise _Deadline in the block after seconds, should it hang."""
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_killed_sampler_is_a_solver_failure(tmp_path, monkeypatch, capsys):
    # a sampler that ends abruptly, as one killed for want of memory would,
    # ends the run with exit 2 and one stderr line, not a hang
    cfgfile = _dense_config(tmp_path)
    monkeypatch.setattr(harness, "evaluate_entropy_report",
                        _failing_at("evaluate_entropy_report", 2, lambda: os.kill(os.getpid(), signal.SIGKILL)))
    capsys.readouterr()
    with _deadline():
        code = main_simulate_kinetic(["--config", str(cfgfile), "--out", str(tmp_path / "run")])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err == "solver failure: the sampler process ended abruptly\n"
    assert _children() == []


def _one_cpu_read(patch):
    """Make this process read one CPU as its set, as a run on one CPU
    does: the run's march then makes its gas sub-steps."""
    patch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _one_cpu_quota(patch):
    """Make this process read one CPU's time as its cgroup's quota: the
    run's march then makes its gas sub-steps."""
    patch.setattr(harness, "_cpu_quota", lambda: 1.0)


@pytest.mark.parametrize("where", ["sampler", "march", "handed-back"])
def test_gas_failure_dumps_the_state_its_step_started_from(tmp_path, monkeypatch, capsys, where):
    # a gas sub-step that fails at step 3, in the sampler by default and in
    # the march on one CPU, exits 2 with the stderr line and the dump of
    # the step's input f, n and v that a failure in the march gives; no
    # process outlives the run
    cfgfile = _dense_config(tmp_path)
    cfg = ExperimentConfig.from_json(cfgfile)
    run = run_coupled(cfg, 0.2)
    # the f that step 3 starts from, marched here
    kin, fl, _ = make_well_prepared(cfg)
    grid = cfg.grid()
    walls, work = kinetic.wall_kernels(cfg.boundary, grid, cfg.wall_temperature), kinetic.KineticWork(grid, run.dt, 0.2)
    for _ in range(3):
        mom = kinfluid.compute_moments(kin, grid)
        kin, _ = kinetic.kinetic_step(kin, fl, walls, work)
        fl = harness.ns_step(fl, mom.rho, mom.u, run.dt, grid)
    if where == "march":
        _one_cpu_read(monkeypatch)
    elif where == "handed-back":
        _handing_back(monkeypatch, 2)
    monkeypatch.setattr(harness, "ns_step", _failing_at("ns_step", 3, _forced_vacuum))
    out = tmp_path / "failed"
    capsys.readouterr()
    with _deadline():
        assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", "0.2", "--out", str(out)]) == EXIT_SOLVER
    dump = out / "failure_step_3.json"
    assert capsys.readouterr().err == f"solver failure: step 3: forced vacuum (state dumped to {dump})\n"
    assert sorted(p.name for p in out.glob("*.json")) == [dump.name]
    arrays, meta = load_state(dump)
    assert meta == {"step": 3, "t": run.reports.times[3]}
    assert arrays["f"].tobytes() == kin.f.tobytes()
    for name in ("n", "v"):
        assert arrays[name].tobytes() == run.stacks[name][3].tobytes() == getattr(fl, name).tobytes(), name
    assert _children() == []


def _kinetic_failing_at(step: int):
    """harness.kinetic_step, failing with "forced kinetic failure" at step."""
    real = harness.kinetic_step

    def failing(kin, fl, walls, work):
        if kin.t > (step - 0.5) * work.dt:
            raise SolverError("forced kinetic failure")
        return real(kin, fl, walls, work)

    return failing


def _forced_gas_vacuum():
    raise VacuumError("forced gas vacuum")


@pytest.mark.parametrize("where", ["sampler", "march", "handed-back"])
@pytest.mark.parametrize(
    "gas_step, kinetic_step, report, raised",
    [
        # the kinetic and the gas sub-step of step 3: the kinetic one, which
        # the march makes first
        (3, 3, None, "step 3: forced kinetic failure"),
        # the gas sub-step of step 2 before the kinetic sub-step of step 3
        (2, 3, None, "step 2: forced gas vacuum"),
        # the report of the sample after step 2 before the gas sub-step of step 3
        (3, None, 3, "step 2: forced vacuum"),
        # the gas sub-step of step 2 before the report after it
        (2, None, 3, "step 2: forced gas vacuum"),
    ],
    ids=["kinetic-same-step", "gas-before-kinetic", "report-before-gas", "gas-before-report"],
)
def test_earlier_failure_wins_wherever_the_gas_step_runs(tmp_path, monkeypatch, where, gas_step, kinetic_step,
                                                         report, raised):
    # of the failures of a kinetic sub-step, a gas sub-step and a report,
    # the earliest is raised, with its dump alone, on both paths
    cfg = ExperimentConfig.from_json(_dense_config(tmp_path, output_dir=str(tmp_path / "out")))
    if where == "march":
        _one_cpu_read(monkeypatch)
    elif where == "handed-back":
        _handing_back(monkeypatch, 2)
    monkeypatch.setattr(harness, "ns_step", _failing_at("ns_step", gas_step, _forced_gas_vacuum))
    if kinetic_step is not None:
        monkeypatch.setattr(harness, "kinetic_step", _kinetic_failing_at(kinetic_step))
    if report is not None:
        monkeypatch.setattr(harness, "evaluate_entropy_report",
                            _failing_at("evaluate_entropy_report", report, _forced_vacuum))
    with _deadline(), pytest.raises(SolverError) as err:
        run_coupled(cfg, 0.2)
    step = raised.split(":")[0].removeprefix("step ")
    assert str(err.value) == f"{raised} (state dumped to {tmp_path / 'out' / f'failure_step_{step}.json'})"
    assert [p.name for p in (tmp_path / "out").glob("failure_step_*.json")] == [f"failure_step_{step}.json"]
    assert _children() == []


@pytest.mark.parametrize("grid", [{}, dict(nx=8192, nv=4, t_final=2e-4)], ids=["16x16", "reply-above-the-pipe"])
def test_march_failure_while_the_sampler_replies(tmp_path, monkeypatch, grid):
    # the march fails at step 3 and stops reading replies while its sampler
    # is still making that step's gas sub-step; the reply the sampler then
    # writes to the closed pipe fails it nothing, not even one of 128 KiB,
    # above the default pipe's 64 KiB, and the march's failure is raised
    # with its dump
    cfg = ExperimentConfig.from_json(_dense_config(tmp_path, **grid, output_dir=str(tmp_path / "out")))
    monkeypatch.setattr(harness, "ns_step", _failing_at("ns_step", 3, lambda: time.sleep(0.2)))
    monkeypatch.setattr(harness, "kinetic_step", _kinetic_failing_at(3))
    with _deadline(), pytest.raises(SolverError, match="^step 3: forced kinetic failure"):
        run_coupled(cfg, 0.2)
    assert (tmp_path / "out" / "failure_step_3.json").exists()
    assert _children() == []


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("reply", ["missing", "short"])
def test_gas_reply_cut_short_is_a_solver_failure(tmp_path, monkeypatch, capsys, reply):
    # a sampler that ends before its gas reply is whole, killed before it
    # sends the reply of step 3 or once it has sent half of it, ends the
    # run with exit 2 and the abrupt-end line; the march builds no state
    # from the part it read, so it takes the moments of no state after step
    # 2's and dumps nothing, and no process outlives it
    cfgfile = _dense_config(tmp_path)
    moments, real_moments = [], harness.compute_moments
    monkeypatch.setattr(harness, "compute_moments", lambda *args: moments.append(1) or real_moments(*args))
    if reply == "missing":
        monkeypatch.setattr(harness, "ns_step", _failing_at("ns_step", 3, _killed))
    else:
        real, calls = harness.ns_step, []

        def halved(*args):  # at step 3, a state of half the cells: half a reply's bytes
            calls.append(1)
            fl = real(*args)
            return fl if len(calls) != 4 else harness.FluidState(n=fl.n[::2].copy(), v=fl.v[::2].copy())

        # after the gas sub-step of step 3 the sampler reports on the state
        # that step started from, and is killed there
        monkeypatch.setattr(harness, "ns_step", halved)
        monkeypatch.setattr(harness, "evaluate_entropy_report", _failing_at("evaluate_entropy_report", 3, _killed))
    out = tmp_path / "run"
    capsys.readouterr()
    with _deadline():
        code = main_simulate_kinetic(["--config", str(cfgfile), "--out", str(out)])
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err == "solver failure: the sampler process ended abruptly\n"
    assert len(moments) == 1 + 3 and list(out.glob("failure_step_*")) == []
    assert _children() == []


def test_runs_leave_their_callers_cpus_alone(tmp_path, monkeypatch):
    # the march keeps its caller's CPU set through a run and a failing run;
    # only the sampler, which makes the gas sub-steps in its own process, is
    # pinned, to the CPU next after the one the march ran on, and a second
    # run in the process places its sampler afresh
    cpus = os.sched_getaffinity(0)
    placements, during = tmp_path / "placements", []
    placements.mkdir()
    real_gas, real_step = harness.ns_step, harness.kinetic_step

    def placed(*args):  # names the process that makes it and the CPUs it may use
        (placements / "_".join(map(str, (os.getpid(), *sorted(os.sched_getaffinity(0)))))).touch()
        return real_gas(*args)

    def step(*args):
        during.append(frozenset(os.sched_getaffinity(0)))
        return real_step(*args)

    monkeypatch.setattr(harness, "ns_step", placed)
    monkeypatch.setattr(harness, "kinetic_step", step)
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    runs = [run_coupled(cfg, 0.4) for _ in range(2)]
    assert os.sched_getaffinity(0) == cpus and set(during) == {frozenset(cpus)}
    for run in runs:
        _check_placement(run.cost)
    seen = {tuple(map(int, p.name.split("_"))) for p in placements.iterdir()}  # (pid, *cpus)
    if runs[0].cost["sampler_cpu"] >= 0:  # two samplers, each on its run's sampler CPU
        assert len(seen) == 2 and os.getpid() not in {pid for pid, *_ in seen}
        assert sorted(on for _, *on in seen) == sorted([run.cost["sampler_cpu"]] for run in runs)
    else:
        assert seen == {(os.getpid(), *sorted(cpus))}
    monkeypatch.setattr(harness, "kinetic_step", _kinetic_failing_at(2))
    with pytest.raises(SolverError, match="^step 2: forced kinetic failure"):
        run_coupled(cfg, 0.4)
    assert os.sched_getaffinity(0) == cpus


def test_refused_pinning_leaves_the_run_as_it_is(tmp_path, monkeypatch):
    # where the kernel refuses the sampler its CPU, the sampler runs
    # unpinned and still makes the gas sub-steps; the run keeps its bytes,
    # and a failing run raises its own failure
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    default = run_coupled(cfg, 0.4)

    def refused(pid, cpus):
        raise OSError(errno.EINVAL, "refused")

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    run = run_coupled(cfg, 0.4)
    assert run.cost["sampler_cpu"] == -1 and (run.cost["march_cpu"] >= 0) == (default.cost["march_cpu"] >= 0)
    assert run.cost["sampler_gas_steps"] == default.cost["sampler_gas_steps"]
    assert run.fluid_final.n.tobytes() == default.fluid_final.n.tobytes()
    assert run.reports.tobytes() == default.reports.tobytes()
    monkeypatch.setattr(harness, "kinetic_step", _kinetic_failing_at(2))
    with _deadline(), pytest.raises(SolverError, match="^step 2: forced kinetic failure"):
        run_coupled(cfg, 0.4)
    assert _children() == []


def test_sampler_gives_the_gas_back_when_it_waits_for_a_cpu(tmp_path, monkeypatch):
    # a sampler that waited for its CPU longer than its gas sub-steps
    # since its last look took gives them back: those and no later
    # ones are made in the sampler, the rest in the march; a sampler that
    # does not wait keeps them to the end. A sweep's workers do the same
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    steps = run_coupled(cfg, 0.4).cost["steps"]
    if min(len(os.sched_getaffinity(0)), harness._cpu_quota()) < 2:
        pytest.skip("the march makes every gas sub-step on one CPU")
    real, calls = harness.ns_step, tmp_path / "calls"

    def named(*args):  # appends the pid of the process that makes it
        with open(calls, "a") as log:
            log.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(harness, "ns_step", named)
    monkeypatch.setattr(harness, "GAS_LOOK_STEPS", 2)
    monkeypatch.setattr(harness, "_cpu_wait", lambda *pids: 0.0)
    assert run_coupled(cfg, 0.4).cost["sampler_gas_steps"] == steps
    pids = calls.read_text().split()
    assert len(pids) == steps and str(os.getpid()) not in pids
    calls.unlink()
    _handing_back(monkeypatch, 4)
    assert run_coupled(cfg, 0.4).cost["sampler_gas_steps"] == 4
    pids = calls.read_text().split()
    assert len(pids) == steps and len(set(pids[:4])) == 1 and pids[4:] == [str(os.getpid())] * (steps - 4)
    result = harness.run_convergence(replace(cfg, output_dir=str(tmp_path / "sweep")))
    assert [run.cost["sampler_gas_steps"] for run in result.runs] == [4] * 3
    # one look that finds the run short of a CPU is not enough: the waits
    # read at the start and at the looks after 2, 4, 6 and 8 gas sub-steps
    # grow by more than those took at the first, third and fourth look only
    waits = iter([0.0, 1.0, 1.0, 2.0, 3.0])
    monkeypatch.setattr(harness, "_cpu_wait", lambda *pids: next(waits))
    assert run_coupled(cfg, 0.4).cost["sampler_gas_steps"] == 8


def test_cpu_quota_reads_the_cgroup_of_the_process(tmp_path):
    # the quota over the period, of cgroup v2 (cpu.max) or v1 (a cpu
    # controller's cpu.cfs_quota_us and cpu.cfs_period_us), the smaller where
    # both are set; inf where none is set or none can be read
    def quota(cgroups: str, files: dict) -> float:
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        (tmp_path / "cgroup").write_text(cgroups)
        try:
            return harness._cpu_quota(tmp_path / "cgroup", tmp_path / "fs")
        finally:
            for name in files:
                (tmp_path / name).unlink()

    assert quota("0::/a/b\n", {"fs/a/b/cpu.max": "150000 100000\n"}) == 1.5
    assert quota("0::/\n", {"fs/cpu.max": "max 100000\n"}) == math.inf
    v1 = {"fs/cpu,cpuacct/j/cpu.cfs_quota_us": "50000\n", "fs/cpu,cpuacct/j/cpu.cfs_period_us": "100000\n"}
    assert quota("3:memory:/m\n4:cpu,cpuacct:/j\n0::/\n", v1) == 0.5
    assert quota("4:cpu,cpuacct:/j\n0::/u\n", {**v1, "fs/u/cpu.max": "300000 100000"}) == 0.5
    assert quota("1:cpu:/\n", {"fs/cpu/cpu.cfs_quota_us": "-1\n", "fs/cpu/cpu.cfs_period_us": "100000\n"}) == math.inf
    assert quota("0::/gone\n", {}) == math.inf
    assert harness._cpu_quota(tmp_path / "no_such_file") == math.inf
    assert harness._current_cpu() in os.sched_getaffinity(0)


def test_emitted_run_saves_into_another_file_system(tmp_path, monkeypatch):
    # a stack that cannot be linked into the directory it is saved into, one
    # on another file system (EXDEV), is written there as an anonymous stack
    # is: every file, series.json included, has the bytes of a linked save;
    # and so does a save into /dev/shm, where that is another file system
    out = tmp_path / "run"
    out.mkdir()
    cfg = tiny_config(output_dir=str(out))
    run = run_coupled(cfg, 0.4, out)
    harness.save_run_series(run, out, cfg)
    linked = _files(out)
    assert "series.json" in linked
    refused = []

    def exdev(src, dst, **kw):
        refused.append(Path(dst).name)
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    with monkeypatch.context() as patch:
        patch.setattr(os, "link", exdev)
        harness.save_run_series(run, tmp_path / "written", cfg)
    assert sorted(refused) == [f"series__{name}.bin" for name in sorted(harness._FIELDS)]
    assert _files(tmp_path / "written") == linked
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK) and shm.stat().st_dev != out.stat().st_dev:
        with tempfile.TemporaryDirectory(dir=shm) as other:
            harness.save_run_series(run, other, cfg)
            assert _files(Path(other)) == linked


# a coupled run whose sampler names itself in a file in the working
# directory and then sleeps, away from its pipe
_SLEEPING_SAMPLER = """
import os, time
from kinfluid import harness
def sleeping(*args):
    open(f"pid_{os.getpid()}", "w").close()
    time.sleep(60)
harness.evaluate_entropy_report = sleeping
harness.run_coupled(harness.ExperimentConfig(nx=8, nv=8, t_final=0.02, n_samples=2), 0.4)
"""


def test_sampler_ends_with_its_run(tmp_path):
    # a run's process killed while its sampler is busy takes the sampler
    # with it
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", _SLEEPING_SAMPLER], cwd=tmp_path, env=env)
    pids = []
    try:
        def named():
            pids[:] = [int(p.name.removeprefix("pid_")) for p in tmp_path.glob("pid_*")]
            return len(pids) == 1

        assert _wait_for(named, 30)
        assert _alive(pids[0])
        proc.kill()
        proc.wait(timeout=10)
        assert _wait_for(lambda: not _alive(pids[0]), 10)
    finally:
        proc.kill()
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


# a plain BLAS product, which shows whether the core types differ, then a
# tiny simulate-kinetic and converge on the config in the working directory
_CORETYPE_RUN = """
import pathlib, sys
import numpy as np
from kinfluid import cli
rng = np.random.default_rng(0)
pathlib.Path("probe.bin").write_bytes((rng.random(64) @ rng.random((64, 64))).tobytes())
codes = [cli.main_simulate_kinetic(["--config", "config.json", "--out", "run"]),
         cli.main_converge(["--config", "config.json", "--out", "sweep"])]
sys.exit(max(codes))
"""


def _comparable(path: Path):
    """A file's bytes, or a JSON sidecar without its timings, its own and
    those of the runs and the limit march it records."""
    if path.suffix != ".json":
        return path.read_bytes()
    data = _untimed(json.loads(path.read_text()))
    if "runs" in data:
        data["runs"] = [_untimed(run) for run in data["runs"]]
        data["limit"] = _untimed(data["limit"])
    return data


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 OpenBLAS core types")
def test_outputs_keep_their_bytes_across_blas_kernels(tmp_path):
    # OpenBLAS picks its kernels by CPU when it loads, and its kernels round
    # one product differently; no output may depend on that choice. Prescott
    # and Nehalem run on any x86-64 CPU; None is the CPU's own choice.
    src = str(Path(kinfluid.__file__).parents[1])
    config = dict(nx=8, nv=32, t_final=0.05, n_samples=2, eps_list=[0.4, 0.2, 0.1],
                  boundary="diffuse", wall_temperature=1.3)
    outputs = {}
    for coretype in (None, "Prescott", "Nehalem"):
        env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        env.update(PYTHONPATH=os.pathsep.join(filter(None, (src, env.get("PYTHONPATH")))), OPENBLAS_NUM_THREADS="1")
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        cwd = tmp_path / str(coretype)
        cwd.mkdir()
        (cwd / "config.json").write_text(json.dumps(config))
        subprocess.run([sys.executable, "-c", _CORETYPE_RUN], cwd=cwd, env=env, check=True, timeout=120)
        outputs[coretype] = {p.relative_to(cwd): _comparable(p) for p in cwd.rglob("*") if p.is_file()}
    if len({files.pop(Path("probe.bin")) for files in outputs.values()}) == 1:
        pytest.skip("x @ b has the same bits under every core type tried")
    first = outputs[None]
    for coretype, files in outputs.items():
        assert files.keys() == first.keys(), coretype
        assert [str(p) for p in files if files[p] != first[p]] == [], coretype


def test_cli_audit_failure_exit_code(tmp_path):
    # doctor a run directory so the stored series violates the budget
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    arrays, _ = load_state(out / "series.json")
    arrays["D2"] = arrays["D2"] + 1e6  # impossible dissipation
    save_state(out / "series", arrays)
    assert main_check_entropy(["--run", str(out)]) == EXIT_AUDIT


# ---------------------------------------------------------------------------
# the sampled fields streamed into their output files
# ---------------------------------------------------------------------------


def _files(folder: Path) -> dict:
    """Every file of a folder by name, with its bytes."""
    return {p.name: p.read_bytes() for p in folder.iterdir()}


def test_streamed_series_match_a_run_saved_after_it(tmp_path, monkeypatch):
    # simulate-kinetic streams the stacks into their unnamed files and links
    # them into place; a run without a destination, saved after it, writes
    # the same bytes, and a sweep's runs keep their stacks in memory
    cfgfile = _dense_config(tmp_path)
    cfg = ExperimentConfig.from_json(cfgfile)
    fallocated = []
    real = os.posix_fallocate
    monkeypatch.setattr(os, "posix_fallocate", lambda fd, *span: fallocated.append(span) or real(fd, *span))
    assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", "0.2", "--out", str(tmp_path / "streamed")]) == EXIT_OK
    assert fallocated == [(0, 8 * (cfg.n_samples + 1) * cfg.nx)] * 4
    run = run_coupled(cfg, 0.2)
    assert run.files == {} and len(fallocated) == 4
    harness.save_run_series(run, tmp_path / "saved", cfg)
    streamed, saved = _files(tmp_path / "streamed"), _files(tmp_path / "saved")
    assert streamed.keys() == saved.keys() and not [name for name in streamed if name.startswith(".")]
    names = [name for name in streamed if name.startswith("series")]
    assert len(names) == 4 + 1 + len(run.reports.dtype.names) and "series__rho.bin" in names
    assert [name for name in names if streamed[name] != saved[name]] == []
    for name, stack in run.stacks.items():
        assert streamed[f"series__{name}.bin"] == stack.tobytes()
    # a second run into the directory: its series.json is gone before any
    # other file is written, and comes back last
    seen = []
    real_save = harness.save_state
    monkeypatch.setattr(harness, "save_state", lambda prefix, *a, **kw: seen.append(
        ((tmp_path / "streamed" / "series.json").exists(), Path(prefix).name)) or real_save(prefix, *a, **kw))
    first = {p.name: _comparable(p) for p in (tmp_path / "streamed").iterdir()}
    assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", "0.2", "--out", str(tmp_path / "streamed")]) == EXIT_OK
    assert seen == [(False, "state_final"), (False, "series")]
    assert {p.name: _comparable(p) for p in (tmp_path / "streamed").iterdir()} == first
    tiny = tiny_config(output_dir=str(tmp_path / "sweep"))
    assert all(r.files == {} for r in harness.run_convergence(tiny).runs) and len(fallocated) == 8


@pytest.mark.parametrize("failure", ["eps-1e-320", "sampler"])
def test_failed_run_leaves_the_previous_run_files(tmp_path, monkeypatch, capsys, failure):
    # a run that fails after its stack files were made leaves none of them,
    # as they have no name until saved; the previous run's files keep their
    # bytes and only the failure dump is new
    cfgfile = _dense_config(tmp_path)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", "0.2", "--out", str(out)]) == EXIT_OK
    before = _files(out)
    made = []
    real = os.posix_fallocate
    monkeypatch.setattr(os, "posix_fallocate", lambda fd, *span: made.append(span) or real(fd, *span))
    eps, dumped = "1e-320", "failure_step_0"
    if failure == "sampler":
        monkeypatch.setattr(harness, "evaluate_entropy_report",
                            _failing_at("evaluate_entropy_report", 3, _forced_vacuum))
        eps, dumped = "0.2", "failure_step_2"
    capsys.readouterr()
    assert main_simulate_kinetic(["--config", str(cfgfile), "--eps", eps, "--out", str(out)]) == EXIT_SOLVER
    assert len(made) == 4 and capsys.readouterr().err.startswith("solver failure:")
    after = _files(out)
    assert {name: after[name] for name in before} == before
    assert sorted(set(after) - set(before)) == [f"{dumped}.json", f"{dumped}__f.bin", f"{dumped}__n.bin",
                                                f"{dumped}__v.bin"]
    assert main_check_entropy(["--run", str(out)]) == EXIT_OK
    assert _children() == []


# simulate-kinetic into the directory out, killed outright at its step 5
# after it names the children it has, its sampler among them, in a file
_KILLED_RUN = """
import os, signal
from pathlib import Path
from kinfluid import cli, harness
real, steps = harness.kinetic_step, []
def step(*args):
    steps.append(1)
    if len(steps) == 6:
        Path("children").write_text(Path(f"/proc/self/task/{os.getpid()}/children").read_text())
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args)
harness.kinetic_step = step
cli.main_simulate_kinetic(["--config", "config.json", "--out", "out"])
"""


def test_killed_run_leaves_no_file(tmp_path):
    # the stacks a killed run streamed into its output directory have no
    # name yet, so the kernel drops them with the process and its sampler
    _write_cfg(tmp_path, nx=16, nv=16, t_final=0.05, n_samples=10, eps_list=[0.2])
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _KILLED_RUN], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, (proc.returncode, proc.stderr[-2000:])
    pids = [int(pid) for pid in (tmp_path / "children").read_text().split()]
    try:
        assert len(pids) == 1 and _wait_for(lambda: not any(map(_alive, pids)), 10)
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)
    assert os.listdir(tmp_path / "out") == []
    assert _children() == []


# emitted runs that are saved, saved twice, failed, refused room or dropped,
# under -X dev -W error::ResourceWarning: each closes the files it opened
_RUNS_CLOSE_THEIR_FILES = """
import errno, gc, os
from pathlib import Path
from kinfluid import harness
from kinfluid.core import SolverError
def fds():
    return sorted(os.listdir("/proc/self/fd"))
cfg = harness.ExperimentConfig(nx=8, nv=8, t_final=0.02, n_samples=2, eps_list=[0.4], output_dir="failed")
for folder in ("saved", "again", "failed", "full", "dropped"):
    Path(folder).mkdir()
before = fds()
run = harness.run_coupled(cfg, 0.4, "saved")
harness.save_run_series(run, "saved", cfg)
harness.save_run_series(run, "again", cfg)
for name, stack in run.stacks.items():
    assert Path(f"saved/series__{name}.bin").read_bytes() == Path(f"again/series__{name}.bin").read_bytes() == stack.tobytes()
del run, stack
try:
    harness.run_coupled(cfg, 1e-320, "failed")
    raise AssertionError("the run at eps 1e-320 passed")
except SolverError:
    pass
real = os.posix_fallocate
def full(fd, offset, size):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
os.posix_fallocate = full
try:
    harness.run_coupled(cfg, 0.4, "full")
    raise AssertionError("the run on a full disk passed")
except OSError as exc:
    assert exc.errno == errno.ENOSPC
os.posix_fallocate = real
harness.run_coupled(cfg, 0.4, "dropped")
gc.collect()
assert fds() == before, (before, fds())
assert os.listdir("full") == os.listdir("dropped") == []
assert sorted(os.listdir("failed")) == ["failure_step_0.json", "failure_step_0__f.bin", "failure_step_0__n.bin", "failure_step_0__v.bin"]
print("closed")
"""


def test_runs_close_their_stack_files(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", _RUNS_CLOSE_THEIR_FILES],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "closed\n", (proc.returncode, proc.stderr[-2000:])
    assert "ResourceWarning" not in proc.stderr, proc.stderr[-2000:]


# two runs into one directory, the first still mapping its streamed stacks,
# then a run written without a destination into it too: the first run's
# stacks keep their bytes, where a file truncated under them would be a
# SIGBUS at the first read past its new end
_TWO_RUNS_ONE_DIR = """
from dataclasses import replace
from pathlib import Path
from kinfluid import harness
cfg = harness.ExperimentConfig(nx=16, nv=16, t_final=0.05, n_samples=16, eps_list=[0.2], output_dir="run")
Path("run").mkdir()
first = harness.run_coupled(cfg, 0.2, "run")
harness.save_run_series(first, "run", cfg)
kept = {name: stack.tobytes() for name, stack in first.stacks.items()}
assert kept == {name: Path(f"run/series__{name}.bin").read_bytes() for name in kept}
second_cfg = replace(cfg, n_samples=2)
second = harness.run_coupled(second_cfg, 0.4, "run")
harness.save_run_series(second, "run", second_cfg)
assert {name: stack.tobytes() for name, stack in first.stacks.items()} == kept
kept_second = {name: stack.tobytes() for name, stack in second.stacks.items()}
third = harness.run_coupled(second_cfg, 0.1)
harness.save_run_series(third, "run", second_cfg)
assert {name: stack.tobytes() for name, stack in first.stacks.items()} == kept
assert {name: stack.tobytes() for name, stack in second.stacks.items()} == kept_second
assert Path("run/series__rho.bin").read_bytes() == third.stacks["rho"].tobytes() != kept_second["rho"]
print("kept")
"""


def test_earlier_run_keeps_its_mapped_stacks(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _TWO_RUNS_ONE_DIR], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "kept\n", (proc.returncode, proc.stderr[-2000:])


_EMITTERS = [(main_simulate_kinetic, "series"), (main_simulate_limit, "limit_series")]


@pytest.mark.parametrize(
    "main, prefix, refused",
    [
        *(pytest.param(main, prefix, None, id=f"{main.__name__}-{prefix}") for main, prefix in _EMITTERS),
        *(pytest.param(main, prefix, code, id=f"{main.__name__}-{prefix}-tmpfile-{name}")
          for main, prefix in _EMITTERS
          for name, code in (("EOPNOTSUPP", errno.EOPNOTSUPP), ("EISDIR", errno.EISDIR), ("ENOSPC", errno.ENOSPC))),
    ],
)
def test_full_disk_is_a_config_error(tmp_path, monkeypatch, capsys, main, prefix, refused):
    # no room for the stack files: exit 1 with one stderr line before the
    # run starts, the previous run's files as they were and no process left.
    # A file system without unnamed files (EOPNOTSUPP, or EISDIR from a
    # kernel without O_TMPFILE) refused as the files are opened: the stacks
    # are anonymous, and the run writes the stack files and descriptor a
    # default run does; any other refusal there is as a full disk.
    cfgfile = _write_cfg(tmp_path, nx=8, nv=8, t_final=0.02, n_samples=2)
    out = tmp_path / "run"
    assert main(["--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    before = _files(out)
    assert f"{prefix}__rho.bin" in before
    code = refused or errno.ENOSPC
    refusals, real_open = [], os.open

    def full(fd, offset, size):
        raise OSError(code, os.strerror(code))

    def no_tmpfile(path, flags, *args, **kw):
        if flags & os.O_TMPFILE == os.O_TMPFILE:
            refusals.append(path)
            raise OSError(code, os.strerror(code))
        return real_open(path, flags, *args, **kw)

    if refused is None:
        monkeypatch.setattr(os, "posix_fallocate", full)
    else:
        monkeypatch.setattr(os, "open", no_tmpfile)
    capsys.readouterr()
    if refused in (errno.EOPNOTSUPP, errno.EISDIR):
        assert main(["--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
        after = _files(out)
        assert len(refusals) == 4 and after.keys() == before.keys()
        assert [name for name in after if name.startswith(f"{prefix}__") and after[name] != before[name]] == []
        descriptor = f"{prefix}.json"
        assert json.loads(after[descriptor])["arrays"] == json.loads(before[descriptor])["arrays"]
        if prefix == "series":  # with no timings in it
            assert after[descriptor] == before[descriptor]
    else:
        assert main(["--config", str(cfgfile), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: cannot write output: [Errno {code}] {os.strerror(code)}\n"
        assert _files(out) == before
    assert _children() == []


def test_check_entropy_rejects_a_short_stack_file(tmp_path, capsys):
    # check-entropy reads only the scalar series, but checks the size of
    # every file series.json lists
    cfgfile = _write_cfg(tmp_path, nx=8, nv=8, t_final=0.02, n_samples=2)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    stack = out / "series__rho.bin"
    stack.write_bytes(stack.read_bytes()[:-8])
    capsys.readouterr()
    assert main_check_entropy(["--run", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{stack}: 184 bytes do not hold a float64 array of shape (3, 8)" in err


def test_load_state_reads_only_the_arrays_named(tmp_path):
    desc = save_state(tmp_path / "st", {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    arrays, _ = load_state(desc, ("a", "c"))
    assert list(arrays) == ["a"] and arrays["a"].tobytes() == np.arange(6.0).tobytes()
    (tmp_path / "st__b.bin").write_bytes(b"")
    with pytest.raises(ConfigError, match="0 bytes do not hold a float64 array of shape \\(4,\\)"):
        load_state(desc, ("a",))


# one command of the CLI on a run whose sampled fields take 16 MiB, after a
# tiny run of the same command; prints the growth of the process's peak RSS
# across the command, in bytes
_SERIES_RSS = """
import json, resource, sys
from kinfluid import cli
main = getattr(cli, sys.argv[1])
json.dump({"nx": 8, "nv": 8, "t_final": 0.02, "n_samples": 2}, open("tiny.json", "w"))
json.dump({"nx": 1024, "nv": 4, "t_final": 0.005, "n_samples": 512}, open("big.json", "w"))
args = {"main_simulate_kinetic": lambda name: ["--config", f"{name}.json", "--out", name],
        "main_check_entropy": lambda name: ["--run", name]}[sys.argv[1]]
assert main(args("tiny")) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert main(args("big")) == 0
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))
"""


def test_series_stay_out_of_the_cli_processes(tmp_path):
    # the sampler writes the fields into their files, simulate-kinetic never
    # reads them and check-entropy reads only the scalar series: neither
    # process's peak RSS grows by a quarter of the series
    env = {**os.environ, "PYTHONPATH": str(Path(kinfluid.__file__).parents[1])}
    growth = {}
    for main in ("main_simulate_kinetic", "main_check_entropy"):
        proc = subprocess.run([sys.executable, "-c", _SERIES_RSS, main], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        growth[main] = int(proc.stdout.splitlines()[-1])
    series = sum(p.stat().st_size for p in (tmp_path / "big").glob("series__*.bin"))
    assert json.loads((tmp_path / "big" / "run_meta.json").read_text())["steps"] == 512
    stacks = sum((tmp_path / "big" / f"series__{name}.bin").stat().st_size for name in ("rho", "u", "n", "v"))
    assert stacks == 4 * 8 * 513 * 1024 >= 16 << 20 and series > stacks
    assert max(growth.values()) < stacks / 4, growth

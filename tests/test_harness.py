import json
import math
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinfluid.entropy as entropy
import kinfluid.harness as harness
import kinfluid.kinetic as kinetic
from kinfluid.core import ConfigError, SolverError
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
    ConvergenceRow,
    CSV_COLUMNS,
    ExperimentConfig,
    emit_csv,
    load_state,
    make_well_prepared,
    run_coupled,
    run_limit,
    save_state,
)

from paper_checks import well_prepared_residuals


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
    assert np.abs(run.rho - run.rho[0]).max() <= 1e-10
    assert np.abs(run.u).max() <= 1e-10
    assert np.abs(run.n - run.n[0]).max() <= 1e-10
    assert np.abs(run.v).max() <= 1e-10
    assert abs(run.mass_kinetic[-1] - run.mass_kinetic[0]) <= 1e-10
    assert abs(run.mass_fluid[-1] - run.mass_fluid[0]) <= 1e-10


def test_coupled_run_mass_books_and_audit():
    cfg = ExperimentConfig(nx=32, nv=32, t_final=1.0, eps_list=[0.5], n_samples=8)
    run = run_coupled(cfg, 0.5)
    assert abs(run.mass_kinetic[-1] - run.mass_kinetic[0]) <= 1e-10
    assert abs(run.mass_fluid[-1] - run.mass_fluid[0]) <= 1e-10
    assert run.audit.slack_entropy_budget >= -1e-10
    assert run.max_wall_flux <= 1e-12


def test_coupled_run_makes_one_diagnostics_pass(monkeypatch):
    # moments once per step after the step (shared by the sample and the next
    # gas drag) plus once inside each kinetic step; one local Maxwellian per
    # sample, shared by P(f|M), D1 and the Csiszar-Kullback margin
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (harness, kinetic):
        monkeypatch.setattr(module, "compute_moments", counted("moments", module.compute_moments))
    monkeypatch.setattr(entropy, "maxwellian_profile", counted("maxwellian", entropy.maxwellian_profile))
    cfg = tiny_config()
    run = run_coupled(cfg, 0.4)
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


def test_equilibrium_sweep_reported_degenerate():
    from kinfluid.harness import run_convergence

    cfg = tiny_config(initial_profile="equilibrium")
    res = run_convergence(cfg)
    assert res.degenerate
    assert math.isnan(res.slope)
    assert all(r.sup_H <= 1e-20 for r in res.rows)


def test_coupled_run_with_diffuse_walls():
    cfg = ExperimentConfig(
        nx=16, nv=32, t_final=0.05, eps_list=[0.5], n_samples=2,
        boundary="diffuse", wall_temperature=1.0,
    )
    run = run_coupled(cfg, 0.5)
    assert abs(run.mass_kinetic[-1] - run.mass_kinetic[0]) <= 1e-10


def test_coupled_run_with_outflow_walls_loses_mass_monotonically():
    cfg = ExperimentConfig(
        nx=16, nv=32, t_final=0.1, eps_list=[0.5], n_samples=4,
        boundary="dirichlet_zero",
    )
    run = run_coupled(cfg, 0.5)
    assert np.all(np.diff(run.mass_kinetic) < 0)


def test_shifted_domain_conservation_and_transform():
    cfg = ExperimentConfig(
        nx=24, nv=32, x_lo=2.0, x_hi=3.5, t_final=0.05, eps_list=[0.5], n_samples=2,
    )
    run = run_coupled(cfg, 0.5)
    assert abs(run.mass_kinetic[-1] - run.mass_kinetic[0]) <= 1e-12
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


def test_limit_run_modes_agree():
    cfg = ExperimentConfig(nx=64, nv=2, t_final=0.2, eps_list=[0.5], n_samples=4, picard_iters=10)
    direct = run_limit(cfg)
    pic = run_limit(cfg, picard=True)
    assert pic.picard_reports is not None
    gap = np.abs(direct.n[-1] - pic.n[-1]).max() + np.abs(direct.u[-1] - pic.u[-1]).max()
    assert gap <= 10 * (direct.dt + cfg.grid().dx)
    assert direct.min_one_plus_h > 0
    assert pic.min_one_plus_h > 0


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def test_emit_empty_table_header_only(tmp_path):
    p = emit_csv([], tmp_path / "empty.csv")
    assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_emit_csv_formatting(tmp_path):
    rows = [ConvergenceRow(eps=1 / 3, sup_H=math.pi * 1e-4, sup_L1_rho=1.0, sup_L1_n=0.0, f_to_M_l1=2.0)]
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


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, **kw):
    payload = dict(nx=16, nv=32, t_final=0.1, eps_list=[0.4, 0.2, 0.1], n_samples=4)
    payload.update(kw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return p


def test_cli_simulate_kinetic_and_check_entropy(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    rc = main_simulate_kinetic(["--config", str(cfg), "--eps", "0.3", "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "run_meta.json").exists()
    assert (out / "series.json").exists()
    rc2 = main_check_entropy(["--run", str(out)])
    assert rc2 == EXIT_OK


def test_cli_simulate_kinetic_coarse_velocity_grid(tmp_path, capsys):
    # dv = 2: the entropy budget holds with the relaxation scheme's own D1
    cfg = _write_cfg(tmp_path, nx=8, nv=8, t_final=0.02, n_samples=2)
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert "entropy_budget_slack=0 " in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
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
    # no fixed-point iterate, and an audit tolerance no run can meet
    no_iterate = _write_cfg(tmp_path, picard_iters=0)
    out = ["--out", str(tmp_path / "never")]
    assert main_simulate_limit(["--config", str(no_iterate), "--mode", "picard", *out]) == EXIT_CONFIG
    negative_tol = _write_cfg(tmp_path, audit_tolerance=-1.0)
    assert main_simulate_kinetic(["--config", str(negative_tol), *out]) == EXIT_CONFIG
    # 782 fixed-point iterates of nt = 128 steps: more than MAX_STEPS time levels
    many_iterates = _write_cfg(tmp_path, nx=64, nv=2, t_final=0.5, n_samples=32, picard_iters=782)
    capsys.readouterr()
    assert main_simulate_limit(["--config", str(many_iterates), "--mode", "picard", *out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: picard_iters = 782 iterates of 128 steps") and err.count("\n") == 1, err
    assert not (tmp_path / "never").exists()


_DROP = "<drop>"
_BAD_VALUES = [_DROP, None, True, "x", [], {}, -1, 0, 1, 2, -0.5, 0.5, 1e300, math.nan, math.inf, -math.inf]
# a huge count only where it cannot size an array before the checks see it
_HUGE_SAMPLES = ("n_samples", 10**12)
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
        | st.just(_HUGE_SAMPLES),
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
def test_cli_fuzzed_config_exit_codes(case):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _edited_config(Path(tmp), case)
        for main in (main_simulate_kinetic, main_converge):
            assert main(["--config", str(cfg), "--out", str(Path(tmp) / "out")]) in (0, 1, 2, 3)


def test_cli_converge_writes_outputs(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    rc = main_converge(["--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "convergence.csv").exists()
    meta = json.loads((out / "convergence_meta.json").read_text())
    assert "slope" in meta and "audit_slacks" in meta
    assert len(meta["local_slopes"]) == 2


def test_cli_simulate_limit_both_modes(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, nx=32, nv=2)
    for mode in ("direct", "picard"):
        out = tmp_path / f"lim_{mode}"
        rc = main_simulate_limit(["--config", str(cfg), "--mode", mode, "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "limit_series.json").exists()
    # without --mode the run is the direct march
    capsys.readouterr()
    assert main_simulate_limit(["--config", str(cfg), "--out", str(tmp_path / "lim_default")]) == EXIT_OK
    assert capsys.readouterr().out.startswith("mode=direct ")
    for name in ("rho", "u", "n", "v"):
        default = (tmp_path / "lim_default" / f"limit_series__{name}.bin").read_bytes()
        assert default == (tmp_path / "lim_direct" / f"limit_series__{name}.bin").read_bytes()


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
                {**meta, "config": {}})
    for bad in ({}, {"eps": "0.1"}, {**meta, "config": 1}, *bad_tols):
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

    def thinned(f, grid):
        mom = real(f, grid)
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
    """nx = 32 custom data whose particle density is 1e-9 on cells 12-19:
    the fixed-point iterates outgrow the speeds that fix the picard dt."""
    x = (np.arange(32) + 0.5) / 32
    rho0 = np.ones(32)
    rho0[12:20] = 1e-9
    u0 = -0.5 * np.sin(2 * np.pi * x) * np.sin(np.pi * x) ** 2
    return save_state(tmp_path / "bubble", {"rho0": rho0, "u0": u0, "n0": np.ones(32), "v0": np.zeros(32)})


def test_limit_run_failure_dumps_state(tmp_path, monkeypatch):
    desc = _lean_bubble_state(tmp_path)
    cfg = _write_cfg(tmp_path, nx=32, nv=16, t_final=0.2, initial_profile="custom", custom_state=str(desc))
    out = tmp_path / "picard"
    assert main_simulate_limit(["--config", str(cfg), "--mode", "picard", "--out", str(out)]) == EXIT_SOLVER
    # iterate 2 fails; its input, the last completed iterate, is dumped with
    # one row per time level
    (dump,) = out.glob("failure_iterate_*.json")
    arrays, meta = load_state(dump)
    assert dump.name == "failure_iterate_2.json" and meta == {"iterate": 2, "t": 0.2}
    assert set(arrays) == {"g", "u", "h", "v"}
    assert arrays["g"].shape[1] == 32 and np.isfinite(arrays["g"]).all()
    assert main_simulate_limit(["--config", str(cfg), "--mode", "direct", "--out", str(tmp_path / "d")]) == EXIT_OK
    dt = load_state(tmp_path / "d" / "limit_series.json")[1]["dt"]

    # direct mode dumps the state before the failing step
    real = harness._two_phase_substeps

    def fail_at_step_2(st, dt, grid):
        if st.t > 1.5 * dt:
            raise SolverError("forced failure")
        return real(st, dt, grid)

    monkeypatch.setattr(harness, "_two_phase_substeps", fail_at_step_2)
    out = tmp_path / "direct"
    assert main_simulate_limit(["--config", str(cfg), "--mode", "direct", "--out", str(out)]) == EXIT_SOLVER
    arrays, meta = load_state(out / "failure_step_2.json")
    assert meta["step"] == 2 and meta["t"] == pytest.approx(2 * dt)
    assert set(arrays) == {"rho", "u", "n", "v"} and arrays["n"].shape == (32,)


def test_cli_audit_failure_exit_code(tmp_path):
    # doctor a run directory so the stored series violates the budget
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main_simulate_kinetic(["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    arrays, _ = load_state(out / "series.json")
    arrays["D2"] = arrays["D2"] + 1e6  # impossible dissipation
    save_state(out / "series", arrays)
    assert main_check_entropy(["--run", str(out)]) == EXIT_AUDIT

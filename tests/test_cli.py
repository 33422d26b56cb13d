import json

import numpy as np
import pytest

from ductflow import cli
from ductflow.cli import main
from ductflow.errors import ScenarioError
from ductflow.hopf import flux_norms
from ductflow.scenario import (
    bundled_scenario_path,
    load_scenario,
    parse_scenario_text,
    set_key,
)
from ductflow.solver import GalerkinSolver

QUICK = bundled_scenario_path("quick-decay")


def test_bundled_scenarios_parse():
    for name in ("free-decay", "heat-relax", "pulsed-flux", "forced-warm", "quick-decay"):
        cfg = load_scenario(bundled_scenario_path(name))
        cfg.validate()


def test_parse_error_reports_line_number():
    text = "domain.L1 = 1.0\nbogus.key = 3\n"
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario_text(text)
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario_text("domain.N1 = not-a-number\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario_text("domain.L1 = 1\ndomain.L2 = 1\ndomain.L1 = 2\n")


def test_set_key_replaces_and_appends():
    text = QUICK.read_text()
    out = set_key(text, "galerkin.m", 12)
    assert parse_scenario_text(out).m == 12
    out2 = set_key("domain.L1 = 1.0\n", "galerkin.m", 9)
    assert parse_scenario_text(out2).m == 9


def test_run_writes_outputs_and_manifest(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", str(QUICK), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    for rel in manifest["outputs"]:
        assert (out / rel).exists(), rel
    csv = (out / "timeseries.csv").read_text().splitlines()
    assert csv[0] == "t,X,Y,F,w_l2,theta_l2,theta_min,theta_max,flux_residual"
    assert len(csv) == 1 + 2 * 20 + 1  # header + samples


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(QUICK), "--out", str(out1)]) == 0
    assert main(["run", str(QUICK), "--out", str(out2)]) == 0
    for name in ("timeseries.csv", "certificates.txt", "certificates.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_malformed_scenario_no_partial_outputs(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("domain.L1 = -3\n")
    out = tmp_path / "out"
    rc = main(["run", str(bad), "--out", str(out)])
    assert rc == 1
    assert not out.exists()


def test_missing_scenario_file(tmp_path):
    rc = main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_check_passes_bundled():
    assert main(["check", str(QUICK)]) == 0
    assert main(["check", str(bundled_scenario_path("pulsed-flux"))]) == 0


def test_check_fails_on_bad_regime(tmp_path):
    text = bundled_scenario_path("pulsed-flux").read_text()
    text = set_key(text, "hopf.mode", "auto")
    text = set_key(text, "physics.nu", 50.0)  # auto-selection needs rho < 1
    bad = tmp_path / "regime.scn"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 1


def scenario_with(tmp_path, base, keys):
    text = base.read_text()
    for key, value in keys.items():
        text = set_key(text, key, value)
    path = tmp_path / "edited.scn"
    path.write_text(text)
    return path


def test_auto_regime_holds_over_the_whole_horizon(tmp_path, capsys):
    # the pulse peaks at t = period/4 = 1, after the first window [0, 0.5]
    scn = scenario_with(tmp_path, bundled_scenario_path("pulsed-flux"), {
        "domain.N1": 8, "domain.N2": 8, "domain.N3": 16, "galerkin.m": 6,
        "flux.amplitude": 0.1, "flux.beta": 0.9, "flux.period": 4.0,
        "time.T": 0.5, "time.windows": 8, "hopf.mode": "auto",
    })
    cfg = load_scenario(scn)
    solver = GalerkinSolver(cfg)
    params = solver.hopf_params
    ts = np.linspace(0.0, cfg.n_windows * cfg.T, 801)
    sup = max(flux_norms(solver.profile, solver.grid, float(t)).w13_inf_total for t in ts)
    lhs = cfg.hopf_c_cal * (params.eps + params.rho ** (1.0 / 6.0)) * sup
    assert abs(lhs - cfg.nu / 4.0) <= 1e-3
    assert main(["check", str(scn)]) == 0
    assert f"eps={params.eps} " in capsys.readouterr().out


def test_auto_regime_uses_the_exact_supremum(tmp_path):
    # the pulse peaks at t = period/4 = 0.1125, between two of the 33 points
    # a 32-per-window sampling of [0, 0.5] would see; the supremum is taken
    # at the peak, so the smallness certificate holds with equality
    scn = scenario_with(tmp_path, bundled_scenario_path("pulsed-flux"), {
        "domain.N1": 8, "domain.N2": 8, "domain.N3": 16, "galerkin.m": 6,
        "flux.period": 0.45, "time.windows": 1, "hopf.mode": "auto",
    })
    cfg = load_scenario(scn)
    solver = GalerkinSolver(cfg)
    params = solver.hopf_params
    peak = flux_norms(solver.profile, solver.grid, cfg.flux_period / 4.0).w13_inf_total
    ts = np.linspace(0.0, cfg.n_windows * cfg.T, 2001)
    assert all(
        flux_norms(solver.profile, solver.grid, float(t)).w13_inf_total <= peak * (1 + 1e-15)
        for t in ts
    )
    lhs = cfg.hopf_c_cal * (params.eps + params.rho ** (1.0 / 6.0)) * peak
    assert abs(lhs - cfg.nu / 4.0) <= 1e-12 * cfg.nu


def test_unresolved_cutoff_layer_fails_with_note(tmp_path):
    # auto mode at constant flux 0.6 picks rho = eps^6 ~ 1.3e-6, inside the
    # first x3 node (h3/2 = 0.0625 at N3 = 16): no volume node sees the layer
    scn = scenario_with(tmp_path, QUICK, {
        "galerkin.m": 6, "flux.profile": "constant", "flux.amplitude": 0.6,
        "hopf.mode": "auto",
    })
    assert main(["check", str(scn)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 0
    report = json.loads((out / "certificates.json").read_text())
    certs = {c["eq_id"]: c for c in report["certificates"]}
    for eq_id in ("E10", "E11"):
        assert certs[eq_id]["status"] == "FAIL", eq_id
        assert certs[eq_id]["note"] == "cutoff layer not resolved by the x3 grid"


def test_library_value_error_is_one_line(tmp_path, monkeypatch, capsys):
    def execute(config, snapshot_cb=None):
        raise ValueError("rejected by the library")

    monkeypatch.setattr(cli, "execute", execute)
    assert main(["run", str(QUICK), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "rejected by the library" in err
    out = tmp_path / "sweep"
    rc = main(["sweep", str(QUICK), "--axis", "galerkin.m", "--values", "6,8",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert all("skipped" in row for row in rows[1:])


@pytest.mark.parametrize("keys", [
    {"flux.profile": "swirl"},
    {"flux.beta": 1.5},
    {"flux.amplitude": -0.6},
    {"flux.period": 0},
])
def test_check_reports_library_value_error_in_one_line(tmp_path, capsys, keys):
    scn = scenario_with(tmp_path, bundled_scenario_path("pulsed-flux"), keys)
    assert main(["check", str(scn)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_rejects_the_mode_count_run_rejects(tmp_path, capsys):
    scn = scenario_with(tmp_path, QUICK, {"galerkin.m": 5000})
    assert main(["check", str(scn)]) == 1
    assert "[FAIL] galerkin-modes: requested m = 5000" in capsys.readouterr().out
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert "only 625 are resolvable" in capsys.readouterr().err


def test_zero_flux_amplitude_is_no_flux(tmp_path):
    # amplitude 0 is the zero profile, so auto mode has no norm to select from
    # and the run is the one without flux, byte for byte
    zero = tmp_path / "zero"
    none = tmp_path / "none"
    zero.mkdir()
    none.mkdir()
    scn = scenario_with(zero, QUICK, {
        "flux.profile": "constant", "flux.amplitude": 0, "hopf.mode": "auto",
    })
    ref = scenario_with(none, QUICK, {"flux.profile": "none"})
    assert main(["check", str(scn)]) == 0
    assert main(["run", str(scn), "--out", str(zero / "out")]) == 0
    assert main(["run", str(ref), "--out", str(none / "out")]) == 0
    for name in ("timeseries.csv", "certificates.json"):
        assert (zero / "out" / name).read_bytes() == (none / "out" / name).read_bytes(), name
    bad = scenario_with(tmp_path, QUICK, {
        "flux.profile": "pulsed", "flux.amplitude": 0, "flux.beta": 1.5,
    })
    assert main(["check", str(bad)]) == 1
    assert main(["run", str(bad), "--out", str(tmp_path / "bad")]) == 1


@pytest.mark.parametrize("key, value", [
    ("physics.nu", "nan"),
    ("time.dt", "inf"),
    ("forcing.vector", "1.0, 2.0"),
    ("forcing.vector", "1, 2, 3, 4"),
    ("forcing.vector", "1.0, nan, 0.0"),
])
def test_check_rejects_the_numbers_run_fails_on(tmp_path, capsys, key, value):
    scn = scenario_with(tmp_path, QUICK, {key: value})
    out = tmp_path / "out"
    assert main(["check", str(scn)]) == 1
    assert main(["run", str(scn), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: ") for line in err)
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_check_fails_on_incompatible_theta_bounds(tmp_path):
    text = set_key(QUICK.read_text(), "audit.theta_star", 3.0)
    bad = tmp_path / "theta.scn"
    bad.write_text(text)
    # theta_star > theta_star_upper is a config-level error
    assert main(["check", str(bad)]) == 1


def test_snapshots_written(tmp_path):
    out = tmp_path / "snap"
    rc = main(["run", str(QUICK), "--out", str(out), "--snapshots", "10"])
    assert rc == 0
    man = json.loads((out / "snapshots" / "manifest.json").read_text())
    assert man["fields"] == ["w", "vartheta", "v", "theta"]
    assert len(man["snapshots"]) == 5  # samples 0,10,20,30,40
    first = man["snapshots"][0]["files"]
    for f in first.values():
        assert (out / "snapshots" / f).exists()


def test_snapshots_with_flux(tmp_path):
    # each v snapshot is w + s(t) delta_1, the lifting evaluated at its time
    text = QUICK.read_text()
    for key, value in (("flux.profile", "pulsed"), ("flux.amplitude", 0.6),
                       ("flux.beta", 0.5), ("flux.period", 0.5), ("hopf.mode", "manual"),
                       ("hopf.eps", 0.5), ("hopf.rho", 0.5)):
        text = set_key(text, key, value)
    scn = tmp_path / "pulsed.scn"
    scn.write_text(text)
    out = tmp_path / "snap"
    assert main(["run", str(scn), "--out", str(out), "--snapshots", "10"]) == 0
    solver = GalerkinSolver(load_scenario(scn))
    delta_1 = solver.delta_provider.lifting[2].values
    scale = float(np.max(np.abs(delta_1)))
    assert scale > 0.0
    man = json.loads((out / "snapshots" / "manifest.json").read_text())
    assert len(man["snapshots"]) == 5
    for snap in man["snapshots"]:
        files = {k: np.load(out / "snapshots" / f) for k, f in snap["files"].items()}
        expected = files["w"] + solver.profile.s(snap["time"]) * delta_1
        assert np.max(np.abs(files["v"] - expected)) <= 1e-13 * scale, snap["index"]


def test_plots_written(tmp_path):
    out = tmp_path / "plots"
    rc = main(["run", str(QUICK), "--out", str(out), "--plots"])
    assert rc == 0
    svg = (out / "plots" / "energy.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_sweep_empty_values_usage_error(tmp_path):
    rc = main(["sweep", str(QUICK), "--axis", "galerkin.m", "--values", "",
               "--out", str(tmp_path)])
    assert rc == 1


def test_sweep_unknown_axis(tmp_path):
    rc = main(["sweep", str(QUICK), "--axis", "bogus.key", "--values", "1",
               "--out", str(tmp_path)])
    assert rc == 1


def test_sweep_runs_and_flags_bad_values(tmp_path):
    out = tmp_path / "sw"
    rc = main([
        "sweep", str(QUICK), "--axis", "galerkin.m", "--values", "6,8,0",
        "--out", str(out),
    ])
    assert rc == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert rows[0].startswith("value,status")
    assert len(rows) == 4
    assert "skipped" in rows[3]  # m = 0 is rejected, flagged not run
    assert (out / "X_vs_t.svg").exists()

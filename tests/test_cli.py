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

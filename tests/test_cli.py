import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles
from ductflow import audit as audit_mod
from ductflow import cli
from ductflow import solver as solver_mod
from ductflow.cli import main
from ductflow.errors import NumericalAbort, ScenarioError
from ductflow.domain import DomainSpec
from ductflow.hopf import profile_by_name
from ductflow.scenario import (
    KEY_MAP,
    bundled_scenario_path,
    load_scenario,
    parse_scenario_text,
    set_key,
)
from ductflow.solver import GalerkinSolver, ScenarioConfig
from ductflow.svg import polyline_chart

QUICK = bundled_scenario_path("quick-decay")
PULSED = bundled_scenario_path("pulsed-flux")


def d_w13_total(solver, ts):
    """The ledger's sum of the W^1_3 cap norms of the data at the times ts."""
    zeros = np.zeros((ts.size, solver.config.m)), np.zeros((ts.size, solver.tb.m))
    return solver._ledger(solver.drive(ts), *zeros)["d_w13_total"]


def test_bundled_scenarios_parse():
    for name in ("free-decay", "heat-relax", "pulsed-flux", "forced-warm", "quick-decay"):
        cfg = load_scenario(bundled_scenario_path(name))
        cfg.validate()


def test_cli_import_loads_no_scipy(tmp_path):
    # the runtime needs numpy alone, so scipy stays off every run's import
    # path, and the manifest's digest maps no OpenSSL (hashlib's _hashlib)
    # into a run; a fresh process, because the test files themselves import
    # scipy and hashlib. The digest is that of the file's bytes, so a CRLF
    # copy of a scenario parses alike but is hashed as it is on disk.
    crlf = tmp_path / "crlf.scn"
    crlf.write_bytes(QUICK.read_bytes().replace(b"\n", b"\r\n"))
    runs = {QUICK: tmp_path / "lf", crlf: tmp_path / "crlf"}
    code = "\n".join([
        "import json, sys, ductflow.cli",
        *(f"assert ductflow.cli.main(['run', {str(scn)!r}, '--out', {str(out)!r}]) == 0"
          for scn, out in runs.items()),
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib'))))",
    ])
    loaded = json.loads(_run_limited(["-c", code]).stdout.splitlines()[-1])
    assert loaded == []
    digests = {json.loads((out / "run_manifest.json").read_text())["scenario_sha256"] for out in runs.values()}
    assert digests == {hashlib.sha256(scn.read_bytes()).hexdigest() for scn in runs}
    assert len(digests) == 2


def test_manifest_hashes_the_bytes_the_run_parsed(tmp_path, monkeypatch):
    # the file is edited while the run computes; the manifest names the
    # scenario the run used, not the file as it is when the manifest is written
    scn = tmp_path / "quick.scn"
    original = QUICK.read_bytes()
    scn.write_bytes(original)
    execute = cli.execute

    def edit_then_execute(config):
        scn.write_bytes(original.replace(b"time.windows = 2", b"time.windows = 3"))
        return execute(config)

    monkeypatch.setattr(cli, "execute", edit_then_execute)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 0
    assert scn.read_bytes() != original
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["scenario_sha256"] == hashlib.sha256(original).hexdigest()


def test_a_byte_order_mark_is_read_past_and_hashed(tmp_path, capsys):
    # an editor may save the file with a UTF-8 byte-order mark; it parses
    # as the plain file does, and the manifest hashes the bytes as on disk
    bom = tmp_path / "bom.scn"
    bom.write_bytes(b"\xef\xbb\xbf" + QUICK.read_bytes())
    assert main(["check", str(bom)]) == 0
    outs = {scn: tmp_path / scn.stem for scn in (QUICK, bom)}
    for scn, out in outs.items():
        assert main(["run", str(scn), "--out", str(out)]) == 0
    assert "config error" not in capsys.readouterr().err
    for name in ("timeseries.csv", "certificates.json"):
        assert (outs[bom] / name).read_bytes() == (outs[QUICK] / name).read_bytes()
    manifest = json.loads((outs[bom] / "run_manifest.json").read_text())
    assert manifest["scenario_sha256"] == hashlib.sha256(bom.read_bytes()).hexdigest()


@pytest.mark.parametrize("data, offset", [(b"\xff\xfe# bad", 0), (b"\xef\xbb\xbf# ok\n\xe9t\xe9\n", 8)])
def test_a_scenario_that_is_not_utf8_is_one_config_error(tmp_path, capsys, data, offset):
    # the offset counts the bytes of the file, a byte-order mark included
    scn = tmp_path / "bad.scn"
    scn.write_bytes(data)
    out = tmp_path / "out"
    for argv in (["check"], ["run", "--out", str(out)],
                 ["sweep", "--axis", "galerkin.m", "--values", "4", "--out", str(out)]):
        assert main([argv[0], str(scn), *argv[1:]]) == 1
        assert capsys.readouterr().err == (
            f"config error: scenario file {scn} is not UTF-8: byte {offset} cannot be decoded\n")
    assert not out.exists()


def test_run_builds_one_solver_and_steps_one_trajectory(monkeypatch):
    calls = {"__init__": 0, "run_windows": 0}
    for name in calls:
        def counted(self, *args, _fn=getattr(GalerkinSolver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(GalerkinSolver, name, counted)
    cfg = ScenarioConfig(
        N1=8, N2=8, N3=16, m=6, flux_profile="pulsed", flux_amplitude=0.6, flux_period=0.2,
        hopf_eps=0.5, hopf_rho=0.5, T=0.1, n_windows=2, dt=5e-3,
    )
    cli.execute(cfg)
    assert calls == {"__init__": 1, "run_windows": 1}


def test_parse_error_reports_line_number():
    text = "domain.L1 = 1.0\nbogus.key = 3\n"
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario_text(text)
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario_text("domain.N1 = not-a-number\n")
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario_text("domain.L1 = 1\ndomain.L2 = 1\ndomain.L1 = 2\n")


@pytest.mark.parametrize("key", sorted(KEY_MAP))
def test_every_key_parses_to_the_type_of_its_default(key):
    # the value type of a key is that of its field's default; the default,
    # written as a scenario file would, parses back to that type (a float
    # written without a point stays a float), and a value that is not of
    # that type is rejected naming its line
    default = {f.name: f.default for f in dataclasses.fields(ScenarioConfig)}[KEY_MAP[key]]
    kind = type(default)
    if kind is tuple:
        text = ",".join(f"{x:g}" for x in default)
    elif kind is float:
        text = f"{default:g}"
    else:
        text = str(default)
    value = getattr(parse_scenario_text(f"{key} = {text}\n"), KEY_MAP[key])
    assert type(value) is kind and value == default
    malformed = f"# a comment\n\n{key} = not-a-number\n"
    if kind is str:
        # any text is a string: a name outside the field's choices is
        # rejected by parsing, naming the key
        with pytest.raises(ScenarioError, match=f"^{re.escape(key)} must be one of "):
            parse_scenario_text(malformed)
    else:
        with pytest.raises(ScenarioError, match="^line 3: cannot parse"):
            parse_scenario_text(malformed)


def test_every_field_declares_one_key_of_its_own():
    # KEY_MAP is derived from the fields, so a key two fields declared
    # would silently map to one of them
    keys = [f.metadata.get("key") for f in dataclasses.fields(ScenarioConfig)]
    assert all(isinstance(key, str) and re.fullmatch(r"[a-z]+\.\w+", key) for key in keys)
    assert len(set(keys)) == len(keys) == len(KEY_MAP)


FLOAT_KEYS = sorted(f.metadata["key"] for f in dataclasses.fields(ScenarioConfig) if type(f.default) is float)


@pytest.mark.parametrize("text, message", [
    *((f"{key} = nan", f"{key} must be finite, got nan") for key in FLOAT_KEYS),
    ("forcing.vector = 1, nan, 0", "forcing.vector must be three finite numbers, got (1.0, nan, 0.0)"),
    ("galerkin.m = 0", "galerkin.m must be >= 1, got 0"),
    ("time.windows = 0", "time.windows must be >= 1, got 0"),
    ("physics.gamma = 0", "physics.gamma must be positive, got 0.0"),
    ("physics.nu = 0\nphysics.kappa = -1", "physics.nu must be positive, got 0.0"),
    ("physics.kappa = -1\nphysics.gamma = -1", "physics.kappa must be positive, got -1.0"),
    ("domain.N1 = 3", "domain.N1 must be even and >= 4, got 3"),
    ("domain.a = 0", "domain.a must be positive, got 0.0"),
    ("time.dt = 0.3", "time.T must be an integer multiple of time.dt, got time.T / time.dt = 1.6666666666666667"),
    ("audit.mu = 1", "audit.mu must lie in (2/3, 1), got 1.0"),
    ("audit.theta_star = 3", "audit.theta_star must lie in (0, audit.theta_star_upper = 2.0), got 3.0"),
    ("init.v = modes\ninit.v_nmodes = 0", "init.v_nmodes must be >= 1 when init.v = modes, got 0"),
])
def test_validate_names_the_key_and_the_value(text, message):
    # a range error starts with the scenario key the user wrote, not the
    # field's name, and states the value; a rule over two keys names both
    with pytest.raises(ScenarioError) as info:
        parse_scenario_text(text + "\n")
    assert str(info.value) == message


def test_readme_key_table_lists_every_key_and_its_accepted_values():
    # the table under "Scenario files" is the third description of the
    # keys; `domain.L1 .L2 .a` stands for three keys
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Scenario files\n", 1)[1].split("\n## ", 1)[0]
    choices = {f.metadata["key"]: f.metadata["choices"] for f in dataclasses.fields(ScenarioConfig)}
    listed = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        cell, meaning = line[2:].split(" | ", 1)
        keys = []
        for group in re.findall(r"`([^`]+)`", cell):
            first, *rest = group.split()
            keys += [first, *(first.split(".")[0] + suffix for suffix in rest)]
        for key in keys:
            if choices.get(key):
                assert len(keys) == 1, line
                assert set(re.findall(r"`([\w-]+)`", meaning)) == set(choices[key]), key
        listed += keys
    assert sorted(listed) == sorted(KEY_MAP)


def test_readme_certificate_table_lists_every_certificate_once():
    # the table under "Audited inequalities" has one row `| E<n> | `name` |`
    # per non-advisory certificate of a run; an advisory one is named in
    # the text of its row
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Audited inequalities\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (E\d+) \| `([\w-]+)` \|", section, flags=re.M)
    solver = GalerkinSolver(ScenarioConfig(N1=8, N2=8, N3=16, m=6, T=0.1, n_windows=1, dt=5e-3))
    certs = audit_mod.audit_run(solver.run_windows(), solver).certificates
    assert len(set(rows)) == len(rows)
    assert sorted(rows) == sorted((c.eq_id, c.name) for c in certs if not c.advisory)
    advisory = [c.name for c in certs if c.advisory]
    assert advisory and all(f"`{name}`" in section for name in advisory)


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


def test_certificates_name_the_exact_rates(tmp_path):
    # the decay rates are read off the assembled forms (audit.calibrate), so
    # the constants line calls them exact: nothing is fitted
    out = tmp_path / "out"
    assert main(["run", str(QUICK), "--out", str(out)]) == 0
    cal = json.loads((out / "certificates.json").read_text())["constants"]
    lines = (out / "certificates.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("constants:")] == [
        f"constants: c1={cal['c1']!r} c2={cal['c2']!r} (exact r_w={cal['r_w']!r} "
        f"r_theta={cal['r_theta']!r} M65={cal['M_65']!r} M3={cal['M_3']!r}; seed: {cal['seed']})"
    ]


@pytest.mark.parametrize("theta", ["zero", "constant"])
def test_large_flux_ends_in_certificates(tmp_path, theta):
    # at flux amplitude 4, E6's exp(int ||d1||_L3^6) is beyond the float
    # range. With theta0 = 0 its term is 0 and the bound finite; with a
    # constant theta0 the bound is inf, and the certificate says so
    text = set_key(PULSED.read_text(), "flux.amplitude", 4.0)
    scn = tmp_path / "large.scn"
    scn.write_text(set_key(set_key(text, "init.theta", theta), "init.theta_mean", 1.5))
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out), "--strict"]) in (0, 3)
    assert (out / "certificates.txt").is_file()
    certs = json.loads((out / "certificates.json").read_text())["certificates"]
    e6 = next(c for c in certs if c["eq_id"] == "E6")
    if theta == "zero":
        assert e6["details"]["rhs"] < math.inf and e6["note"] == ""
        assert "log10_bound" not in e6["details"]
    else:
        assert e6["details"]["rhs"] == math.inf and e6["note"] == "bound exceeds the float range"
        assert e6["details"]["log10_bound"] > math.log10(sys.float_info.max)
    # only an infinite bound carries the key
    assert all(("log10_bound" in c["details"]) == (c["note"] == "bound exceeds the float range")
               for c in certs)


def test_energy_balance_at_an_infinite_budget_says_so(tmp_path):
    # at flux amplitude 120, psi(sup ||d~||) times the data norms overflows
    # at most samples, so F is inf there: E1 holds vacuously and carries the
    # float-range note, its tolerance comes from the finite samples, and the
    # audit's products raise no overflow warning
    text = PULSED.read_text()
    for key, value in (("flux.amplitude", 120), ("time.T", 0.05), ("time.windows", 2)):
        text = set_key(text, key, value)
    scn = tmp_path / "huge.scn"
    scn.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(scn), "--out", str(out)]) == 0
    audit_file = Path(audit_mod.__file__).resolve()
    assert [w for w in caught if Path(w.filename).resolve() == audit_file] == []
    X, F = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1, usecols=(1, 3)).T
    finite = F[np.isfinite(F)]
    assert 0 < finite.size < F.size
    certs = json.loads((out / "certificates.json").read_text())["certificates"]
    e1 = next(c for c in certs if c["eq_id"] == "E1")
    assert e1["status"] == "PASS" and e1["note"] == "bound exceeds the float range"
    assert e1["details"]["log10_bound"] > math.log10(sys.float_info.max)
    assert math.isfinite(e1["margin"])
    assert e1["details"]["tolerance"] == 1e-9 * max(1.0, float(np.max(np.abs(X))), float(np.max(finite)))


def test_sweep_keeps_every_row_at_large_flux(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", str(PULSED), "--axis", "flux.amplitude", "--values", "0.6,4",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["0.6", "ok"], ["4", "ok"]]


def test_sweep_reads_a_utf8_scenario_in_an_ascii_locale(tmp_path):
    # scenario files are UTF-8 whatever the locale: run and check decoded
    # the base file so, while sweep read it a second time in the locale's
    # encoding and, under C, failed on a comment's non-ASCII byte
    scn = tmp_path / "theta.scn"
    scn.write_bytes("# \u03b8 = \u03b8_star at t = 0\n".encode() + QUICK.read_bytes())
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    out = tmp_path / "sw"
    proc = _run_limited(["-m", "ductflow.cli", "sweep", str(scn), "--axis", "galerkin.m",
                         "--values", "4", "--out", str(out)], check=False, extra_env=ascii_locale)
    assert proc.returncode == 0, proc.stderr
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["4", "ok"]]


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


def test_check_passes_bundled(capsys):
    # the three decisions a run makes, then the temperature-bounds line;
    # parsing rejects a bad mu or temperature hypothesis before check runs
    for scn in (QUICK, bundled_scenario_path("pulsed-flux")):
        assert main(["check", str(scn)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "[PASS] flux-compatibility", "[PASS] galerkin-modes", "[PASS] cutoff-regime",
            "[INFO] temperature-bounds applicability",
        ]


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
    sup = float(np.max(d_w13_total(solver, ts)))
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
    ts = np.linspace(0.0, cfg.n_windows * cfg.T, 2001)
    *norms, peak = d_w13_total(solver, np.append(ts, cfg.flux_period / 4.0))
    assert all(norm <= peak * (1 + 1e-15) for norm in norms)
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


def test_auto_mode_end_to_end_on_a_resolved_layer(tmp_path, capsys):
    # the resolved auto-mode case at N3 = 32: a constant cap at amplitude
    # 0.08 picks rho ~ 0.23, so x3 nodes lie in the layer and E10 and E11
    # pass with E11's weighted norm positive; check names the parameters
    # the run uses. At amplitude 0.3 the layer is unresolved (both FAIL)
    scn = scenario_with(tmp_path, bundled_scenario_path("forced-warm"), {
        "hopf.mode": "auto", "flux.amplitude": 0.08, "time.T": 0.05,
    })
    params = GalerkinSolver(load_scenario(scn)).hopf_params
    assert main(["check", str(scn)]) == 0
    assert f"[PASS] cutoff-regime: auto eps={params.eps} rho={params.rho} " in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out), "--strict"]) == 0
    certs = {c["eq_id"]: c for c in json.loads((out / "certificates.json").read_text())["certificates"]}
    assert certs["E10"]["status"] == certs["E11"]["status"] == "PASS"
    assert certs["E11"]["details"]["lhs"] > 0.0


def test_library_value_error_is_one_line(tmp_path, monkeypatch, capsys):
    def execute(config):
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
    {"flux.beta": 1.5},
    {"flux.amplitude": -0.6},
    {"flux.period": 0},
])
def test_check_reports_library_value_error_in_one_line(tmp_path, capsys, keys):
    # the profile builder's rule, named by its key and value as parsing
    # names every other range rule; `run` stops on the same line
    rule = {
        "flux.beta": "must lie in [0, 1) for a pulsed profile",
        "flux.amplitude": "must be nonnegative",
        "flux.period": "must be positive for a pulsed profile",
    }
    (key, value), = keys.items()
    scn = scenario_with(tmp_path, bundled_scenario_path("pulsed-flux"), keys)
    for args in (["check", str(scn)], ["run", str(scn), "--out", str(tmp_path / "out")]):
        assert main(args) == 1
        assert capsys.readouterr().err == f"config error: {key} {rule[key]}, got {float(value)}\n"


@pytest.mark.parametrize("mean, applicable, status", [(0.0, "no", "SKIP"), (1.5, "yes", "PASS")])
def test_check_reports_the_temperature_bounds_decision_of_run(tmp_path, capsys, mean, applicable, status):
    # a bump of amplitude 0.3 about the mean lies inside [theta_star,
    # theta_star_upper] = [1, 2] at mean 1.5 and outside at mean 0
    scn = scenario_with(tmp_path, QUICK, {
        "init.theta": "bump", "init.theta_mean": mean, "init.theta_amplitude": 0.3,
    })
    assert main(["check", str(scn)]) == 0
    assert f"[INFO] temperature-bounds applicability: {applicable}" in capsys.readouterr().out
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 0
    assert f"[{status}] E4 temperature-bounds" in capsys.readouterr().out


def test_check_rejects_the_mode_count_run_rejects(tmp_path, capsys):
    scn = scenario_with(tmp_path, QUICK, {"galerkin.m": 5000})
    assert main(["check", str(scn)]) == 1
    assert "[FAIL] galerkin-modes: requested m = 5000" in capsys.readouterr().out
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert "only 625 are resolvable" in capsys.readouterr().err


def test_check_rejects_the_negative_flux_run_rejects(tmp_path, monkeypatch, capsys):
    # `check` and `run` validate the flux data with one function, so data
    # that are compatible but negative fail both, with the same message
    negative = dataclasses.replace(
        profile_by_name("constant", DomainSpec(L1=1.0, L2=1.0, a=1.0), amplitude=0.1),
        g=lambda x1, x2: np.full(np.broadcast(x1, x2).shape, -0.1),
    )
    monkeypatch.setattr(cli, "profile_of", lambda config: negative)
    monkeypatch.setattr(solver_mod, "profile_of", lambda config: negative)
    scn = bundled_scenario_path("pulsed-flux")
    assert main(["check", str(scn)]) == 1
    assert "[FAIL] flux-compatibility: flux d1 negative\n" in capsys.readouterr().out
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "input error: flux d1 negative\n"


def test_check_and_run_reject_cap_totals_beyond_the_float_range(tmp_path, capsys):
    # at amplitude 1e308 the cap totals of the data overflow and the
    # compatibility residual is nan, which no comparison with 1e-12 rejects;
    # both commands must end in the same message and without numpy warnings,
    # which Tier-1 turns into errors
    scn = scenario_with(tmp_path, PULSED, {"flux.amplitude": 1e308})
    message = "flux data too large: its cap totals are not finite"
    assert main(["check", str(scn)]) == 1
    assert f"[FAIL] flux-compatibility: {message}\n" in capsys.readouterr().out
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("profile, amplitude, norm, eps", [
    ("constant", 1e60, r"2e\+60", r"6\.25e-62"),
    ("constant", 1e300, "inf", "0"),
    ("parabolic-cap", 1e308, "inf", "0"),
])
def test_auto_mode_rejects_a_flux_norm_too_large_by_its_value(tmp_path, capsys, profile, amplitude, norm, eps):
    # forced-warm in auto mode at huge flux: the W^1_3 norm of the data is
    # 2e60 at amplitude 1e60, where rho = eps^6 underflows, and inf at 1e300
    # and, through the parabola's gradient, at 1e308. check's regime line and
    # run name that norm and its value, not the eps or rho derived from it,
    # and no numpy warning is raised. At 1e308 the cap totals overflow too,
    # so run stops at the data
    scn = scenario_with(tmp_path, bundled_scenario_path("forced-warm"),
                        {"flux.profile": profile, "flux.amplitude": amplitude, "hopf.mode": "auto"})
    message = rf"flux extension norm {norm} too large for auto-selection: rho = eps\^6 underflows to 0 at eps = {eps}"
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", str(scn)]) == 1
        printed = capsys.readouterr().out
        assert main(["run", str(scn), "--out", str(out)]) == 1
        err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert re.search(rf"^\[FAIL\] cutoff-regime: {message}$", printed, re.M), printed
    if amplitude < 1e308:
        assert "[PASS] flux-compatibility" in printed
        assert re.fullmatch(rf"config error \(cutoff regime\): {message}\n", err), err
    else:
        assert err == "input error: flux data too large: its cap totals are not finite\n"


def test_non_finite_initial_state_is_a_numerical_abort(tmp_path):
    # at amplitude 1e306 the data pass, but the projection P of the lifting
    # overflows, so w0 = -s(0) P is not finite: the run aborts at t = 0 as
    # it does on a non-finite stepped state, with a dump of no coefficients
    scn = scenario_with(tmp_path, PULSED, {"flux.amplitude": 1e306})
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 2
    dump = json.loads((out / "abort_dump.json").read_text())
    assert dump == {"error": "non-finite state at t = 0", "t": 0.0, "c": None, "dcoef": None}


@pytest.mark.parametrize("amplitude, t", [(1e306, "0"), (1e300, "0.0025")])
def test_overflowing_run_aborts_without_numpy_warnings(tmp_path, amplitude, t):
    # the lifting (1e306) or the first step (1e300) overflows; the finiteness
    # check of the first or the stepped rows reports the non-finite state in
    # one line, and none of the ~20 numpy warnings the overflow raises
    # precedes it. A fresh process, so that the default warning filters
    # print what a user would see
    scn = scenario_with(tmp_path, PULSED, {"flux.amplitude": amplitude, "time.windows": 1})
    proc = _run_limited(["-m", "ductflow.cli", "run", str(scn), "--out", str(tmp_path / "out")],
                        check=False)
    assert proc.returncode == 2
    assert f"numerical abort: non-finite state at t = {t} (" in proc.stderr
    assert "encountered in" not in proc.stderr, proc.stderr
    # the stepping condition is the program's own warning, and stays
    assert ("exceeds the advective stability estimate" in proc.stderr) == (amplitude == 1e300)


@pytest.mark.parametrize("keys, outcome", [
    # ||theta||^2 is inf at t = 0 (E6's theta0_l1**2 once raised OverflowError)
    ({"init.theta": "constant", "init.theta_mean": 1e154}, "0"),
    # finite coefficients, but X is inf after the first step (E1 once passed
    # with margin nan)
    ({"forcing.kind": "shear", "forcing.amplitude": 1e200, "time.T": 0.002}, "0.002"),
    # every energy finite, but E3's integral of Y and E6's and E8's bounds
    # are beyond the float range
    ({"domain.L1": 10, "domain.L2": 10, "domain.a": 5, "init.theta": "constant",
      "init.theta_mean": 3e152}, ("temperature-energy", "aggregate-energy")),
    # theta_hi^2 is beyond the float range (E6 once raised OverflowError)
    ({"audit.theta_star_upper": 1e200}, ()),
], ids=["theta-energy-inf", "forced-energy-inf", "bounds-beyond-float", "theta-hi-beyond-float"])
def test_large_temperature_data_abort_or_certify_without_numpy_warnings(tmp_path, keys, outcome):
    # an energy beyond the float range is a numerical abort at its sample
    # (outcome: its time), with its coefficients in the dump; otherwise the
    # run completes, and the bounds beyond it (outcome: their certificates)
    # hold vacuously. A fresh process, so that the default warning filters
    # print what a user would see
    scn = scenario_with(tmp_path, QUICK, {
        "galerkin.m": 4, "time.dt": 0.002, "time.windows": 1, "time.T": 0.01, **keys,
    })
    out = tmp_path / "out"
    proc = _run_limited(["-m", "ductflow.cli", "run", str(scn), "--out", str(out)], check=False)
    aborts = isinstance(outcome, str)
    assert proc.returncode == (2 if aborts else 0), proc.stderr
    assert "encountered in" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    if aborts:
        assert f"numerical abort: non-finite energy at t = {outcome} (" in proc.stderr
        dump = json.loads((out / "abort_dump.json").read_text())
        assert dump["t"] == float(outcome) and np.all(np.isfinite(dump["c"] + dump["dcoef"]))
        return
    certs = {c["name"]: c for c in json.loads((out / "certificates.json").read_text())["certificates"]}
    for name in outcome:
        assert certs[name]["note"] == "bound exceeds the float range" and certs[name]["status"] == "PASS"
        assert math.isfinite(certs[name]["details"]["log10_bound"])
    assert certs["window-absorption"]["status"] == "PASS"
    assert not any(c["status"] == "PASS" and math.isnan(c["margin"]) for c in certs.values())


@pytest.mark.parametrize("c_cal", [0, -1])
@pytest.mark.parametrize("mode", ["auto", "manual"])
def test_either_mode_rejects_a_nonpositive_calibration_constant(tmp_path, capsys, mode, c_cal):
    scn = scenario_with(tmp_path, QUICK, {
        "galerkin.m": 6, "flux.profile": "constant", "flux.amplitude": 0.6,
        "hopf.mode": mode, "hopf.c_cal": c_cal,
    })
    assert main(["check", str(scn)]) == 1
    fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(fail) == 1 and fail[0].startswith("[FAIL] cutoff-regime: c_cal must be positive")
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error (cutoff regime): c_cal")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


def test_check_and_run_reject_overlapping_cap_layers(tmp_path, capsys):
    # pick_hopf_params rejects rho >= a before build_b is reached: the
    # bundled pulsed-flux run (manual mode, hopf.rho = 0.5) on a short duct
    scn = scenario_with(tmp_path, PULSED, {"domain.a": 0.4})
    message = "rho = 0.5 >= a = 0.4: cap neighborhoods overlap"
    assert main(["check", str(scn)]) == 1
    fail = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert fail == [f"[FAIL] cutoff-regime: {message}"]
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error (cutoff regime): {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("keys, message", [
    ({"flux.profile": "constant", "flux.amplitude": 0.6, "hopf.mode": "auto", "hopf.c_cal": 0},
     "config error (cutoff regime): c_cal must be positive"),
    ({"galerkin.m": 5000}, "input error: requested m = 5000"),
])
def test_rejected_run_leaves_no_output_directory(tmp_path, capsys, keys, message):
    # --out is made before any compute; a run rejected with exit 1 removes
    # what it made if it is still empty, and leaves an existing --out alone
    scn = scenario_with(tmp_path, QUICK, keys)
    out = tmp_path / "new" / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["run", str(scn), "--out", str(kept), "--snapshots", "1"]) == 1
    assert kept.is_dir() and not any(kept.iterdir())


def test_out_naming_a_file_fails_before_any_compute(tmp_path, monkeypatch, capsys):
    def execute(config):
        raise AssertionError("the pipeline ran although --out is unusable")

    monkeypatch.setattr(cli, "execute", execute)
    taken = tmp_path / "taken"
    taken.write_text("a regular file\n")
    for argv in (
        ["run", str(QUICK), "--out", str(taken)],
        ["sweep", str(QUICK), "--axis", "galerkin.m", "--values", "6", "--out", str(taken)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err
    assert taken.read_text() == "a regular file\n"


def test_negative_snapshot_cadence_fails_before_any_compute(tmp_path, monkeypatch, capsys):
    # a CADENCE below 0 is a usage error (exit 1, not argparse's exit 2, which
    # means a numerical abort here); 0 means no snapshots
    def execute(*args, **kwargs):
        raise AssertionError("the pipeline ran although --snapshots is negative")

    monkeypatch.setattr(cli, "execute", execute)
    out = tmp_path / "out"
    assert main(["run", str(QUICK), "--out", str(out), "--snapshots", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_aborted_run_writes_the_dump_and_no_snapshots(tmp_path, monkeypatch):
    # snapshots are written from the stored trajectory after the run, so a
    # run that aborts leaves its diagnostics and no partial snapshots/
    calls = []

    def step(self, x, drive, out, E_prev=None, _orig=GalerkinSolver.step):
        m = self.config.m
        calls.append(dict(t=len(calls) * self.config.dt, c=x[:m].copy(), dcoef=x[m:].copy()))
        if len(calls) == 5:
            raise NumericalAbort("injected", **calls[-1])
        return _orig(self, x, drive, out, E_prev)

    monkeypatch.setattr(GalerkinSolver, "step", step)
    out = tmp_path / "out"
    assert main(["run", str(QUICK), "--out", str(out), "--snapshots", "1"]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["abort_dump.json"]
    dump = json.loads((out / "abort_dump.json").read_text())
    assert dump["t"] == calls[-1]["t"]
    assert dump["c"] == calls[-1]["c"].tolist() and dump["dcoef"] == calls[-1]["dcoef"].tolist()


def test_mid_window_abort_names_the_first_non_finite_state(tmp_path, monkeypatch, capsys):
    # the run loop checks a window's rows once it is stepped; a state that
    # turns non-finite at the 4th of 10 steps must still be named by its own
    # time, with the finite state before it in the exception and the dump,
    # not by the window's last row
    scn = scenario_with(tmp_path, QUICK, {"time.T": 0.05})
    reference = GalerkinSolver(load_scenario(scn)).run_windows()
    assert reference.config.steps_per_window == 10
    calls = []

    def explicit(self, *args, _orig=GalerkinSolver._explicit, **kw):
        calls.append(None)
        E = _orig(self, *args, **kw)
        return np.full_like(E, np.inf) if len(calls) >= 4 else E

    monkeypatch.setattr(GalerkinSolver, "_explicit", explicit)
    message = f"non-finite state at t = {reference.times[4]:.6g}"
    with pytest.raises(NumericalAbort) as info:
        GalerkinSolver(load_scenario(scn)).run_windows()
    assert str(info.value) == message and info.value.t == reference.times[3]
    assert np.array_equal(info.value.c, reference.coeffs_w[3])
    assert np.array_equal(info.value.dcoef, reference.coeffs_th[3])
    calls.clear()
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 2
    assert f"numerical abort: {message} (" in capsys.readouterr().err
    dump = json.loads((out / "abort_dump.json").read_text())
    assert dump == {"error": message, "t": reference.times[3], "c": reference.coeffs_w[3].tolist(),
                    "dcoef": reference.coeffs_th[3].tolist()}
    assert dump["t"] != reference.times[10] and dump["c"] != reference.coeffs_w[10].tolist()


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
    ("physics.gamma", "0"),
    ("physics.gamma", "-1"),
    ("audit.mu", "0.6"),
    ("audit.mu", "1"),
    ("audit.theta_star", "2"),  # equal to theta_star_upper
    ("time.dt", "inf"),
    ("forcing.vector", "1.0, 2.0"),
    ("forcing.vector", "1, 2, 3, 4"),
    ("forcing.vector", "1.0, nan, 0.0"),
    ("init.v_nmodes", "0"),
    ("init.v_nmodes", "-2"),
    ("audit.c_recon", "0"),
    ("audit.c_recon", "-1"),
    ("audit.c_budget", "0"),
    ("audit.c_budget", "-1"),
    ("audit.c_theta", "0"),
    ("audit.c_theta", "-1"),
    ("audit.tol_overshoot", "-1"),
    ("time.T", "1e-13"),    # T / dt rounds to 0 steps
    ("time.dt", "1e-310"),  # T / dt overflows to inf
    ("omega.kind", "quadratic"),
    ("forcing.kind", "swirl"),
    ("flux.profile", "swirl"),
    ("hopf.mode", "semi"),
    ("init.v", "random"),
    ("init.theta", "ramp"),
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
    delta_1 = oracles.lifting(solver)[1].values
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


def _run_limited(args, timeout=120.0, check=True, extra_env=None):
    """Python with args in a fresh process on this checkout's src/, one BLAS
    thread, 1 GiB of address space and a timeout: a loop that does not end
    fails the test instead of stalling the suite or filling the memory.
    With check, a nonzero exit fails the test too; extra_env adds to or
    replaces variables of this process's environment."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **(extra_env or {}))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, check=check, preexec_fn=limit)


def test_chart_of_a_series_constant_up_to_rounding_is_flat(tmp_path):
    # forced-warm's theta extremes span [1.4999999999999996, 1.5]; padded by
    # 5% of that span, every y label read 1.5 and the line jumped from the
    # frame's edge to its middle
    path = tmp_path / "flat.svg"
    polyline_chart({"theta": ([0.0, 1.0], [1.4999999999999996, 1.5])}, path)
    svg = path.read_text()
    labels = re.findall(r'text-anchor="end" font-size="11">([^<]*)<', svg)
    assert len(set(labels)) == len(labels) > 1, labels
    (points,) = re.findall(r'points="([^"]*)"', svg)
    assert len({point.split(",")[1] for point in points.split()}) == 1, points


def test_ticks_of_a_range_below_the_float_spacing_are_few():
    # the padded range of a constant 1.5: its tick step is below half the
    # float spacing at 1.5, where a running sum of steps never passes hi
    code = "from ductflow.svg import _ticks; print(len(_ticks(1.4999999999999996, 1.5)))"
    assert 0 < int(_run_limited(["-c", code], timeout=60.0).stdout) <= 6


def test_plots_of_a_flat_temperature_are_written(tmp_path):
    # forced-warm keeps theta at 1.5 to the last bits, the range above
    out = tmp_path / "fw"
    _run_limited(["-m", "ductflow.cli", "run", str(bundled_scenario_path("forced-warm")),
                  "--out", str(out), "--plots"])
    for name in ("energy.svg", "temperature_bounds.svg"):
        assert (out / "plots" / name).read_text().endswith("</svg>\n"), name


@pytest.mark.parametrize("argv", [
    ["run"],
    ["bogus"],
    ["run", str(QUICK), "--snapshots", "abc"],
    ["sweep", str(QUICK), "--values", "1"],
])
def test_argparse_errors_are_usage_errors(argv, capsys):
    # argparse's own errors end as the hand-written ones do, in exit 1 and
    # one usage-error line: its exit 2 is a numerical abort's code here
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_sweep_empty_values_usage_error(tmp_path):
    rc = main(["sweep", str(QUICK), "--axis", "galerkin.m", "--values", "",
               "--out", str(tmp_path)])
    assert rc == 1


def test_sweep_unknown_axis(tmp_path):
    rc = main(["sweep", str(QUICK), "--axis", "bogus.key", "--values", "1",
               "--out", str(tmp_path)])
    assert rc == 1


def test_sweep_rejects_a_vector_axis(tmp_path, capsys):
    # --values is split at commas: 0,0,1 would be three one-number vectors,
    # each skipped, and the sweep would exit 0 having run nothing
    out = tmp_path / "sw"
    assert main(["sweep", str(QUICK), "--axis", "forcing.vector", "--values", "0,0,1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: axis 'forcing.vector' holds a vector") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_missing_base_file_is_one_config_error(tmp_path, capsys):
    scn = tmp_path / "nope.scn"
    assert main(["sweep", str(scn), "--axis", "physics.nu", "--values", "1"]) == 1
    assert capsys.readouterr().err == f"config error: scenario file not found: {scn}\n"


def test_sweep_summary_quotes_a_field_holding_a_comma(tmp_path):
    # the skipped status quotes the library's message, which holds a comma
    out = tmp_path / "sw"
    assert main(["sweep", str(QUICK), "--axis", "physics.nu", "--values=-1,0.5", "--out", str(out)]) == 0
    with open(out / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7, 7, 7]
    assert rows[1][:2] == ["-1", "skipped (physics.nu must be positive, got -1.0)"]
    assert rows[2][:2] == ["0.5", "ok"]


def test_sweep_skips_a_step_count_run_cannot_use(tmp_path, capsys):
    # T / dt = inf is a config error of its value, not a traceback that
    # ends the sweep before its summary is written
    out = tmp_path / "sw"
    assert main(["sweep", str(QUICK), "--axis", "time.dt", "--values", "0.005,1e-310", "--out", str(out)]) == 0
    with open(out / "sweep_summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:2] for row in rows[1:]] == [
        ["0.005", "ok"], ["1e-310", "skipped (time.T must be at least one step time.dt, got time.T / time.dt = inf)"]]
    assert "[SKIP] time.dt=1e-310: " in capsys.readouterr().out


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

import numpy as np
import pytest

from ductflow.audit import (
    audit_run,
    companion_config,
    default_psi,
    is_free_decay,
    ledger_to_json_obj,
    ledger_to_text,
    run_calibration,
    time_derivative,
)
from ductflow.solver import GalerkinSolver, ScenarioConfig


def small_config(**kw) -> ScenarioConfig:
    base = dict(
        N1=8, N2=8, N3=16, m=6, T=0.1, n_windows=2, dt=5e-3,
        nu=1.0, kappa_heat=1.0, gamma=1.0, c_recon=4.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def decay_ledger():
    cfg = small_config(init_v="modes", init_v_amplitude=0.6)
    solver = GalerkinSolver(cfg)
    run = solver.run_windows()
    return audit_run(run, solver), run, solver


def test_time_derivative_linear_series():
    t = np.linspace(0.0, 1.0, 11)
    series = 3.0 * t + 1.0
    d = time_derivative(series, 0.1, np.array([0, 5, 10]))
    assert np.max(np.abs(d - 3.0)) < 1e-12


def test_default_psi_monotone():
    vals = [default_psi(s) for s in np.linspace(0.0, 5.0, 50)]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_free_decay_detection():
    assert is_free_decay(small_config())
    assert not is_free_decay(small_config(flux_profile="constant", flux_amplitude=1.0))
    assert not is_free_decay(small_config(forcing_kind="shear", forcing_amplitude=0.1))
    assert not is_free_decay(small_config(forcing_kind="constant", forcing_vector=(0.0, 0.0, 0.1)))
    # forcing that is identically zero is free decay whatever its kind
    assert is_free_decay(small_config(forcing_kind="constant", forcing_vector=(0.0, -0.0, 0.0)))
    assert is_free_decay(small_config(forcing_kind="shear", forcing_amplitude=0.0))


def test_companion_seeds_when_scenario_is_cold():
    comp = companion_config(small_config(flux_profile="pulsed", flux_amplitude=0.5))
    assert comp.flux_profile == "none"
    assert comp.init_v == "modes" and comp.init_v_amplitude > 0
    assert comp.init_theta_mean == 0.0  # mean-zero seed keeps the fit honest


def test_companion_keeps_scenario_data():
    cfg = small_config(init_theta="bump", init_theta_mean=1.5, init_theta_amplitude=0.3)
    comp = companion_config(cfg)
    assert comp.init_theta == "bump"
    assert comp.init_theta_mean == 1.5


def test_free_decay_certificates_all_pass(decay_ledger):
    ledger, run, _ = decay_ledger
    assert ledger.failed() == []
    cert = ledger.by_name("energy-balance")
    assert cert.passed
    assert cert.details["violations_off_joint"] == 0
    assert ledger.by_name("dissipation-monotone").applicable
    assert ledger.by_name("dissipation-monotone").passed


def test_calibration_positive_on_velocity_decay(decay_ledger):
    ledger, _, _ = decay_ledger
    cal = ledger.calibration
    assert cal.r_w is not None and cal.r_w > 0
    assert cal.c2 > 0
    assert cal.c1 == 1.0  # no heat-coupled forcing, recipe inactive


def test_recurrence_bound_free_decay(decay_ledger):
    ledger, run, _ = decay_ledger
    rec = ledger.by_name("window-recurrence")
    assert rec.passed
    # A1 = 0 on free decay, so the bound is the pure geometric decay
    assert rec.details["A1"] == 0.0


def test_flux_compat_certificate(decay_ledger):
    ledger, _, _ = decay_ledger
    assert ledger.by_name("flux-compatibility").passed


def test_temperature_bounds_skip_on_cold_run(decay_ledger):
    ledger, _, _ = decay_ledger
    cert = ledger.by_name("temperature-bounds")
    assert not cert.applicable  # theta0 = 0 violates theta_star = 1 hypothesis
    assert cert.status == "SKIP"


def test_reconstruction_equality_without_flux(decay_ledger):
    ledger, _, _ = decay_ledger
    tri = ledger.by_name("reconstruction-triangle-2x")
    lit = ledger.by_name("reconstruction-triangle-literal")
    assert tri.passed
    # delta = 0: the literal triangle holds with equality
    assert lit.passed
    assert abs(lit.details["v_V_sq"] - lit.details["w_V_sq"]) < 1e-12


def test_heat_relax_scenario_certificates():
    cfg = small_config(
        init_theta="bump", init_theta_mean=1.5, init_theta_amplitude=0.45,
        theta_star=1.0, theta_star_upper=2.0, T=0.1, n_windows=2,
    )
    solver = GalerkinSolver(cfg)
    run = solver.run_windows()
    ledger = audit_run(run, solver)
    assert ledger.failed() == []
    bounds = ledger.by_name("temperature-bounds")
    assert bounds.applicable and bounds.passed
    assert ledger.by_name("temperature-energy").passed
    assert ledger.by_name("mean-budget").passed


def pulsed_config(**kw) -> ScenarioConfig:
    base = dict(
        flux_profile="pulsed", flux_amplitude=0.6, flux_beta=0.5, flux_period=0.2,
        hopf_mode="manual", hopf_eps=0.5, hopf_rho=0.5,
        T=0.1, n_windows=2, dt=5e-3,
    )
    base.update(kw)
    return small_config(**base)


def test_pulsed_scenario_certificates():
    cfg = pulsed_config()
    solver = GalerkinSolver(cfg)
    run = solver.run_windows()
    cal_run, seed = run_calibration(cfg)
    ledger = audit_run(run, solver, cal_run, seed)
    names = [c.name for c in ledger.certificates]
    assert "weighted-hessian" in names and "layer-bound" in names
    assert ledger.by_name("weighted-hessian").applicable
    assert ledger.failed() == [], [c.name for c in ledger.failed()]
    assert ledger.calibration.c2 > 0
    assert ledger.calibration.seed == "standard mean-zero seed"


def test_companion_reuses_the_run_system(monkeypatch):
    cfg = pulsed_config()
    solver = GalerkinSolver(cfg)
    fresh_run, fresh_seed = run_calibration(cfg)

    def no_build(self):
        raise AssertionError("the companion built a system of its own")

    with monkeypatch.context() as mp:
        mp.setattr(GalerkinSolver, "_build_system", no_build)
        cal_run, seed = run_calibration(cfg, solver)
    assert seed == fresh_seed
    assert set(cal_run.series) == set(fresh_run.series)
    for key, values in fresh_run.series.items():
        assert np.array_equal(cal_run.series[key], values), key
    assert np.array_equal(cal_run.coeffs_w, fresh_run.coeffs_w)
    assert np.array_equal(cal_run.coeffs_th, fresh_run.coeffs_th)

    comp = GalerkinSolver(companion_config(cfg), reuse=solver)
    assert comp.vb is solver.vb and comp.tb is solver.tb and comp.forms is solver.forms
    with pytest.raises(ValueError, match="m differ"):
        GalerkinSolver(pulsed_config(m=12), reuse=GalerkinSolver(pulsed_config(m=16)))


def test_report_text_and_json(decay_ledger):
    ledger, _, _ = decay_ledger
    text = ledger_to_text(ledger, "demo")
    assert "energy audit report" in text
    assert "E1" in text and "E13" in text
    obj = ledger_to_json_obj(ledger)
    assert obj["constants"]["c2"] == ledger.calibration.c2
    assert len(obj["certificates"]) == len(ledger.certificates)
    # deterministic serialization
    import json

    assert json.dumps(obj, sort_keys=True) == json.dumps(obj, sort_keys=True)

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh

from ductflow.audit import (
    BEYOND_FLOAT_NOTE,
    _inequality,
    _mk_energy_cert,
    _mk_reconstruction_certs,
    _mk_recurrence_certs,
    _mk_weighted_certs,
    _psi_product,
    audit_run,
    calibrate,
    exp_product,
    is_free_decay,
    ledger_to_json_obj,
    ledger_to_text,
    time_derivative,
)
from ductflow.scenario import bundled_scenario_path, load_scenario
from ductflow.solver import GalerkinSolver, RunResult, ScenarioConfig


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
    vals = [_psi_product(s)[0] for s in np.linspace(0.0, 5.0, 50)]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_exp_product_is_taken_in_log_space():
    # an ordinary product keeps the bits of the plain expression
    for exponent, c, x in ((0.3, 1.0, 2.5), (12.0, 4.0, 0.37), (700.0, 1.0, 1e-5)):
        value, log10 = exp_product(exponent, c, x)
        assert value == c * math.exp(exponent) * x
        assert abs(log10 - math.log10(value)) <= 1e-14 * abs(log10)
    # beyond the float range: inf, with the log10 of the true product
    value, log10 = exp_product(2000.0, 3.0, 0.5)
    assert value == math.inf
    assert abs(log10 - (2000.0 + math.log(1.5)) / math.log(10.0)) <= 1e-14 * log10
    # exp(exponent) alone is beyond the range, the product is not
    value, _ = exp_product(720.0, 1e-10)
    assert math.isclose(value, math.exp(720.0 + math.log(1e-10)), rel_tol=1e-13)
    # a zero factor gives 0 whatever the exponential, not 0 * inf
    assert exp_product(5000.0, 2.0, 0.0) == (0.0, -math.inf)
    assert _psi_product(0.0)[0] == 0.0 and _psi_product(800.0)[0] == math.inf


def test_free_decay_detection():
    def free(**kw):
        return is_free_decay(GalerkinSolver(small_config(**kw)))

    assert free()
    assert not free(flux_profile="constant", flux_amplitude=1.0)
    assert not free(forcing_kind="shear", forcing_amplitude=0.1)
    assert not free(forcing_kind="constant", forcing_vector=(0.0, 0.0, 0.1))
    # forcing that is identically zero is free decay whatever its kind
    assert free(forcing_kind="constant", forcing_vector=(0.0, -0.0, 0.0))
    assert free(forcing_kind="shear", forcing_amplitude=0.0)


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
    # the temperature mean does not decay, so no decay constant is certified
    assert ledger.calibration.r_theta == 0.0 and ledger.calibration.c2 == 0.0
    for name in ("window-recurrence", "window-absorption"):
        assert "degenerate" in ledger.by_name(name).note


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
    ledger = audit_run(run, solver)
    names = [c.name for c in ledger.certificates]
    assert "weighted-hessian" in names and "layer-bound" in names
    assert ledger.by_name("weighted-hessian").applicable
    assert ledger.failed() == [], [c.name for c in ledger.failed()]
    assert ledger.calibration.c2 > 0
    assert ledger.calibration.seed == "exact rates of the assembled forms"


def test_weighted_certificates_state_one_formula_each():
    # E10 and E11 print the same inequality when they are skipped for want
    # of flux and when they are checked
    certs = [_mk_weighted_certs(GalerkinSolver(cfg), cfg) for cfg in (small_config(), pulsed_config())]
    assert [[c.applicable for c in row] for row in certs] == [[False, False], [True, True]]
    assert [c.formula for c in certs[0]] == [c.formula for c in certs[1]]
    assert all("L_{3,mu}" in c.formula and "L_{p,mu}" not in c.formula for c in certs[0])


def test_bounds_beyond_the_float_range_say_so():
    # E8's psi(sup ||d~||) and E9's exp(sup ||d~|| / c) at data whose
    # W^1_3 norm is 3000: both bounds are inf, noted, with their log10s;
    # at the run's own data both are floats and carry neither
    cfg = pulsed_config()
    run = GalerkinSolver(cfg).run_windows()
    for cert in _mk_reconstruction_certs(run, cfg):
        assert cert.note == "" and "log10_bound" not in cert.details
    big = dataclasses.replace(run, series={**run.series, "d_w13_total": np.full(run.times.size, 3000.0)})
    certs = {cert.eq_id + cert.name: cert for cert in _mk_reconstruction_certs(big, cfg)}
    lift, agg = certs["E9lifting-energy"], certs["E8aggregate-energy"]
    c, t, s = cfg.c_recon, run.times, run.series
    layer = 3000.0 / c + math.log(3000.0**4 * np.trapezoid(s["d_l2_sq_sum"], t))
    psi = 3000.0 + math.log((1.0 + 3000.0**2) * 3000.0**4)
    psi += math.log(np.trapezoid(s["omega_f_65sq"] + s["d_w13_sq_sum"] + s["ddt_w165_sq_sum"], t))
    for cert, log_bound in ((lift, layer), (agg, psi)):
        assert cert.passed and cert.note == "bound exceeds the float range"
        assert math.isclose(cert.details["log10_bound"], (math.log(c) + log_bound) / math.log(10.0),
                            rel_tol=1e-12)


def test_recurrence_bounds_beyond_the_float_range_say_so():
    # a sample with F = inf makes A1 and A2 inf: with c2 > 0, E2 and E3 hold
    # vacuously and carry the float-range note; a degenerate c2 keeps its
    # own note, and a finite F none
    cfg = small_config()
    spw = cfg.steps_per_window
    times = np.arange(cfg.n_windows * spw + 1) * cfg.dt
    run = RunResult(cfg, times, {}, None, None)
    ones = np.ones(times.size)
    beyond = ones.copy()
    beyond[spw + 3] = math.inf
    degenerate = "decay constant degenerate; recurrence bound is vacuous"
    for F, c2, note in ((ones, 1.0, ""), (beyond, 1.0, BEYOND_FLOAT_NOTE), (beyond, 0.0, degenerate)):
        certs, A1, A2 = _mk_recurrence_certs(times, ones, ones, F, c2, run)
        assert [cert.note for cert in certs] == [note, note]
        assert all(cert.passed for cert in certs)
        assert math.isinf(A1) == (F is beyond)
        assert math.isinf(A2) == (F is beyond or c2 == 0.0)


def test_energy_balance_tolerance_is_per_sample():
    # F = 1e300 at one sample and 1 elsewhere: the balance misses F by 0.5
    # at another sample, off every joint, which a tolerance taken from the
    # largest F over the run would forgive; the reported tolerance is the
    # largest finite one
    times = np.linspace(0.0, 1.0, 101)
    zeros, F, fric = np.zeros(times.size), np.ones(times.size), np.zeros(times.size)
    F[10], fric[50] = 1e300, 1.5
    joints = np.array([0, 50 + 25, 100])
    cert = _mk_energy_cert(zeros, zeros, F, -math.inf, fric, 1.0, 0.01, joints, times)
    assert not cert.passed
    assert (cert.details["violations"], cert.details["violations_off_joint"]) == (1, 1)
    assert cert.details["tolerance"] == 1e-9 * 1e300
    # an inf F makes its sample vacuous and leaves the tolerance of the rest
    F[10] = math.inf
    cert = _mk_energy_cert(zeros, zeros, F, 400.0, fric, 1.0, 0.01, joints, times)
    assert not cert.passed and cert.details["tolerance"] == 1e-9


def test_energy_balance_with_a_nan_gap_does_not_pass():
    # where F and the left-hand side are both inf the gap is nan, which is
    # a violation: no margin of nan passes
    times = np.linspace(0.0, 1.0, 101)
    zeros, F, fric = np.zeros(times.size), np.ones(times.size), np.zeros(times.size)
    F[60] = fric[60] = math.inf
    with np.errstate(invalid="ignore"):
        cert = _mk_energy_cert(zeros, zeros, F, 400.0, fric, 1.0, 0.01, np.array([0, 100]), times)
    assert math.isnan(cert.margin) and not cert.passed
    assert cert.details["violations_off_joint"] == 1


def dissipation_forms(solver):
    """(2 (nu diag(rayleigh) + K_fric), I + diag(rayleigh / 2)): the velocity
    dissipation and the H1 Gram matrix in the coefficients."""
    rayleigh = solver.vb.rayleigh
    stiff = 2.0 * (np.diag(solver.config.nu * rayleigh) + solver.forms.K_fric)
    return stiff, np.diag(1.0 + 0.5 * rayleigh)


def dissipation_ratio(solver, c):
    """(-d|c|^2/dt) / ||w||_H1^2 at w = sum c_i psi_i; transport is skew."""
    stiff, gram = dissipation_forms(solver)
    return (c @ stiff @ c) / (c @ gram @ c)


@pytest.mark.parametrize("box", [{}, dict(L1=0.3, L2=1.7, a=0.45, nu=0.7, gamma=2.5)])
def test_velocity_rate_is_the_infimum_of_the_dissipation_ratio(box):
    # off the unit box K_fric is not diagonal, so the smallest ratio of the
    # diagonals overestimates the rate and fails the eigenvector check
    cfg = ScenarioConfig(m=32, init_v="modes", init_v_amplitude=0.5,
                         T=2e-3, n_windows=1, dt=2e-3, **box)
    solver = GalerkinSolver(cfg)
    r_w = calibrate(solver.run_windows(), solver, cfg).r_w
    rng = np.random.default_rng(11)
    for c in rng.standard_normal((20, cfg.m)):
        assert dissipation_ratio(solver, c) >= r_w * (1.0 - 1e-12)
    _, vecs = eigh(*dissipation_forms(solver))
    assert dissipation_ratio(solver, vecs[:, 0]) == pytest.approx(r_w, rel=1e-12)


def test_audited_velocity_rate_never_exceeds_the_exact_rate():
    # a time-difference fit on this run read r_w = 4.0137 against 3.9857
    cfg = ScenarioConfig(
        m=32, init_v="modes", init_v_amplitude=0.6, init_theta="front",
        init_theta_mean=1.5, init_theta_amplitude=0.4, T=0.25, n_windows=2, dt=2.5e-3,
    )
    solver = GalerkinSolver(cfg)
    ledger = audit_run(solver.run_windows(), solver)
    exact = eigh(*dissipation_forms(solver), eigvals_only=True)[0]
    assert ledger.calibration.r_w <= exact * (1.0 + 1e-12)


def test_mean_free_temperature_decays_at_the_first_eigenvalue():
    # m = 8 reaches the (1, 0, 1) mode that carries the bump
    cfg = small_config(m=8, init_theta="bump", init_theta_amplitude=0.5, kappa_heat=0.5)
    solver = GalerkinSolver(cfg)
    cal = calibrate(solver.run_windows(), solver, cfg)
    lam1 = np.pi**2 / 4.0  # cos(pi (x3 + a) / 2a) on the unit box
    assert cal.r_theta == pytest.approx(2.0 * 0.5 * lam1 / (1.0 + lam1), rel=1e-14)
    assert cal.r_w is None  # no velocity in this run
    assert cal.c2 == 0.5 * cal.r_theta


def test_rounding_noise_is_no_temperature():
    # at m = 6 the (1, 0, 1) mode that carries the bump is not in the basis,
    # so every temperature coefficient is rounding noise of the projection;
    # the sector rule must not read it as a temperature mean (rate 0)
    cfg = small_config(m=6, init_theta="bump", init_theta_mean=0.0, init_theta_amplitude=0.4,
                       init_v="modes", init_v_amplitude=0.5)
    solver = GalerkinSolver(cfg)
    run = solver.run_windows()
    assert 0.0 < np.max(np.abs(run.coeffs_th)) < 1e-15
    cal = calibrate(run, solver, cfg)
    assert cal.r_theta is None
    assert cal.c2 == 0.5 * cal.r_w == pytest.approx(2.08618, rel=1e-5)


def test_rounding_noise_at_large_scale_is_no_decay():
    # quick-decay at m = 4, whose temperature modes miss the (1, 0, 1)
    # carrier of the bump: every temperature coefficient is rounding noise
    # of projecting a bump of amplitude 3e100, yet its energy is far above
    # E1's tolerance scale and does not decay at the velocity's rate. The
    # noise counts as a temperature and, as it has a mean, gives c2 = 0
    base = load_scenario(bundled_scenario_path("quick-decay"))
    cfg = dataclasses.replace(base, m=4, N1=10, N2=10, N3=10, dt=0.002, T=0.01, n_windows=1,
                              init_theta="bump", init_theta_mean=0.0, init_theta_amplitude=3e100)
    solver = GalerkinSolver(cfg)
    ledger = audit_run(solver.run_windows(), solver)
    assert ledger.calibration.r_theta == 0.0 and ledger.calibration.c2 == 0.0
    certs = {c.eq_id: c for c in ledger.certificates}
    for eq_id in ("E1", "E2", "E3"):
        assert certs[eq_id].passed, (eq_id, certs[eq_id].margin)
    for eq_id in ("E2", "E3"):
        assert "decay constant degenerate" in certs[eq_id].note


def test_a_run_without_energy_has_no_rates():
    cfg = small_config()
    solver = GalerkinSolver(cfg)
    cal = calibrate(solver.run_windows(), solver, cfg)
    assert cal.r_w is None and cal.r_theta is None and cal.c2 == 0.0


def test_report_text_and_json(decay_ledger):
    ledger, _, _ = decay_ledger
    text = ledger_to_text(ledger, "demo")
    assert "energy audit report" in text
    assert "E1" in text and "E13" in text
    obj = ledger_to_json_obj(ledger)
    assert obj["constants"]["c2"] == ledger.calibration.c2
    assert len(obj["certificates"]) == len(ledger.certificates)


def certificate_values(text: str) -> list:
    """One {key: value text} dict per certificate of a text report."""
    blocks = []
    for line in text.splitlines():
        if line.startswith("["):
            blocks.append({})
        elif blocks and (m := re.fullmatch(r" {7}(\w+) = (.*)", line)):
            blocks[-1][m.group(1)] = m.group(2)
    return blocks


@pytest.mark.parametrize("make_config", [
    lambda: small_config(init_v="modes", init_v_amplitude=0.6),
    pulsed_config,
], ids=["free-decay", "flux"])
def test_every_report_number_is_the_json_number(make_config):
    # a numpy scalar must print as its float, whichever numpy renders it
    cfg = make_config()
    solver = GalerkinSolver(cfg)
    ledger = audit_run(solver.run_windows(), solver)
    certs = json.loads(json.dumps(ledger_to_json_obj(ledger), sort_keys=True))["certificates"]
    blocks = certificate_values(ledger_to_text(ledger))
    assert len(blocks) == len(certs)
    for block, cert in zip(blocks, certs):
        expected = {"margin": cert["margin"], **cert["details"]}
        assert block.keys() == expected.keys(), cert["name"]
        for key, raw in block.items():
            got, want = float(raw), expected[key]
            assert got == want or (math.isnan(got) and math.isnan(want)), (cert["name"], key, raw)


@pytest.mark.parametrize("lhs, rhs, tol, passed", [
    (np.array([0.1, 0.3, 0.2]), 0.5, 0.0, True),            # series against a scalar
    (1.0, 2.5, 0.0, True),                                   # scalar against a scalar
    (np.array([0.0, 1.0]), np.array([5.0, 0.75]), 0.25, True),   # margin == -tol
    (1.0, 0.75, 0.25, True),
    (1.0, np.nextafter(0.75, 0.0), 0.25, False),             # just below -tol
    (np.array([0.3, 0.7]), 0.6, 0.0, False),
    (np.array([1.0, 2e300]), math.inf, 0.0, True),           # no bound: margin inf
])
def test_inequality_margin_and_verdict(lhs, rhs, tol, passed):
    cert = _inequality("probe", "E0", "lhs <= rhs", lhs, rhs, tol, details={"k": 1}, note="n")
    sides = np.broadcast_arrays(lhs, rhs)
    assert type(cert.margin) is float
    assert cert.margin == min(float(r) - float(l) for l, r in zip(*(a.ravel() for a in sides)))
    assert cert.passed is passed
    assert (cert.details, cert.note, cert.applicable, cert.advisory) == ({"k": 1}, "n", True, False)

"""Acceptance suite: one test per acceptance criterion, with the stated
tolerances pinned. Each test prints a single pass line; a failure raises
before the line is printed."""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

import oracles
from ductflow.cli import execute, main
from ductflow.domain import DomainSpec, build_domain
from ductflow import spectral
from ductflow.hopf import (
    HopfParams,
    build_b,
    cap_norms,
    hopf_eta,
    hopf_eta_prime,
    profile_by_name,
    sample_cap_shape,
    validate_profile,
)
from ductflow.poisson import (
    certify_layer_bound,
    certify_weighted_hessian,
    delta_field,
    solve_neumann,
    weighted_norm,
)
from ductflow.basis import build_velocity_basis
from ductflow.errors import SolvabilityError
from ductflow.scenario import bundled_scenario_path, load_scenario
from ductflow.solver import GalerkinSolver, ScenarioConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from output_digest import golden_record, json_floats, judged_diff  # noqa: E402

DESK = dict(N1=16, N2=16, N3=32)
GOLDEN = Path(__file__).parent / "golden" / "bundled.json"
PARAMS = HopfParams(eps=0.5, rho=0.5)
BUNDLED = ("free-decay", "heat-relax", "pulsed-flux", "forced-warm")


def _ok(label):
    print(f"ACCEPT {label}: PASS")


@pytest.fixture(scope="session")
def bundle():
    """Run every bundled scenario once; store pipelines and wall times."""
    out = {}
    for name in BUNDLED:
        cfg = load_scenario(bundled_scenario_path(name))
        t0 = time.perf_counter()
        out[name] = (execute(cfg), time.perf_counter() - t0)
    return out


def desk_grid():
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, **DESK)
    return build_domain(spec)


def three_profiles(spec):
    return [
        profile_by_name("constant", spec, amplitude=0.6),
        profile_by_name("parabolic-cap", spec, amplitude=0.6),
        profile_by_name("pulsed", spec, amplitude=0.6, beta=0.5, period=0.5),
    ]


# -- 1 ------------------------------------------------------------------------

def test_criterion_01_hopf_function_exactness():
    t0 = time.perf_counter()
    p = PARAMS
    rng = np.random.default_rng(1)
    sigma = np.concatenate([
        rng.uniform(0.0, p.r, 2500),
        np.exp(rng.uniform(np.log(p.r), np.log(p.rho), 2500)),
        rng.uniform(p.rho, 3.0, 2500),
        rng.uniform(0.0, 3.0, 2500),
    ])
    got = hopf_eta(sigma, p)
    # independent oracle: plain scalar branch logic (scalar and vector libm
    # may differ in the last ulp, hence the 1e-15 allowance)
    ref = np.array([
        1.0 if s <= p.r else (-p.eps * math.log(s / p.rho) if s <= p.rho else 0.0)
        for s in sigma
    ])
    assert np.max(np.abs(got - ref)) <= 1e-15

    for kink in (p.r, p.rho):
        below = hopf_eta(np.nextafter(kink, 0.0), p)
        above = hopf_eta(np.nextafter(kink, np.inf), p)
        assert abs(float(below) - float(above)) <= 1e-14

    pos = sigma[sigma > 0]
    slopes = hopf_eta_prime(pos, p)
    assert np.all(np.abs(slopes) <= p.eps / pos + 1e-15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok("01 hopf-function-exactness")


# -- 2, 3 ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def extension_setups():
    grid = desk_grid()
    setups = []
    for prof in three_profiles(grid.spec):
        ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
        sol = solve_neumann(ext.div_b, grid)
        setups.append((prof, ext, sol, grid))
    return setups


def test_criterion_02_extension_correctness(extension_setups):
    t0 = time.perf_counter()
    for prof, ext, sol, grid in extension_setups:
        cfg = ScenarioConfig(
            **DESK, m=8,
            flux_profile=prof.name, flux_amplitude=0.6, flux_beta=0.5, flux_period=0.5,
            hopf_mode="manual", hopf_eps=PARAMS.eps, hopf_rho=PARAMS.rho,
            init_v="modes", init_v_amplitude=0.3,
            T=0.1, n_windows=1, dt=5e-3,
        )
        solver = GalerkinSolver(cfg)
        c = solver.initial_state()[: cfg.m]
        delta, _ = oracles.scaled_lifting(solver, 0.0)
        cap_err, side_err = 0.0, 0.0
        for patch, face in zip(solver.grid.patches, delta.faces):
            psi = np.array([oracles.velocity_mode_on_face(md, solver.grid, patch) for md in solver.vb.modes])
            vals = np.einsum("i,icxy->cxy", c, psi)
            vals = vals + face.values
            vn = np.einsum("c,cxy->xy", oracles.outward_normal(solver.grid, patch), vals)
            X, Y = patch.meshgrid()
            if patch.axis == 2:
                sign = 2 * patch.side - 1
                cap_err = max(cap_err, float(np.max(np.abs(vn - sign * prof.s(0.0) * prof.g(X, Y)))))
            else:
                side_err = max(side_err, float(np.max(np.abs(vn))))
        assert cap_err <= 1e-8, prof.name
        assert side_err <= 1e-10, prof.name
        assert validate_profile(sample_cap_shape(prof, solver.grid), prof.s_sup(0.0)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _ok("02 extension-correctness")


def test_criterion_03_divergence_free_correction(extension_setups):
    for prof, ext, sol, grid in extension_setups:
        delta = delta_field(ext, sol, grid)
        g = delta.grad
        div = g[0, 0] + g[1, 1] + g[2, 2]
        div_l2 = math.sqrt(grid.integrate(div**2))
        b_h1 = math.sqrt(
            grid.integrate(ext.alpha**2)
            + grid.integrate(np.sum(ext.grad_alpha**2, axis=0))
        )
        assert div_l2 <= 1e-10 * b_h1, prof.name
    _ok("03 divergence-free-correction")


# -- 4 ------------------------------------------------------------------------

def test_criterion_04_neumann_solver():
    grid = desk_grid()
    sp = grid.spec
    X1, X2, X3 = grid.meshgrid()
    for k in ((0, 0, 1), (1, 0, 0), (2, 1, 3)):
        lam = (
            (k[0] * np.pi / sp.L1) ** 2
            + (k[1] * np.pi / sp.L2) ** 2
            + (k[2] * np.pi / (2 * sp.a)) ** 2
        )
        mode = (
            np.cos(k[0] * np.pi * X1 / sp.L1)
            * np.cos(k[1] * np.pi * X2 / sp.L2)
            * np.cos(k[2] * np.pi * (X3 + sp.a) / (2 * sp.a))
        )
        sol = solve_neumann(-lam * mode, grid)
        phi = spectral.synth(sol.coeffs, grid.axes, [(0, 0, 0)])[0]
        err = np.max(np.abs(phi - (-mode)))
        assert err <= 1e-12 * np.max(np.abs(mode))
    with pytest.raises(SolvabilityError):
        solve_neumann(np.ones(grid.shape), grid)
    _ok("04 neumann-solver")


# -- 5 ------------------------------------------------------------------------

def test_criterion_05_weighted_hessian_certificate():
    t0 = time.perf_counter()
    for prof_name in ("constant", "parabolic-cap", "pulsed"):
        for mu in (0.7, 0.8, 0.9):
            ratios = []
            for n in ((8, 8, 32), (16, 16, 64)):
                spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=n[0], N2=n[1], N3=n[2])
                grid = build_domain(spec)
                prof = profile_by_name(
                    prof_name, spec, amplitude=0.6, beta=0.5, period=0.5
                )
                ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
                sol = solve_neumann(ext.div_b, grid)
                ratios.append(certify_weighted_hessian(weighted_norm([ext.div_b], grid, 3, mu), sol, p=3, mu=mu))
            assert all(math.isfinite(r) for r in ratios)
            assert abs(ratios[1] - ratios[0]) <= 0.10 * ratios[0], (prof_name, mu)
    # mu = 2/3 rejected with the divergence reason
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, **DESK)
    grid = build_domain(spec)
    prof = profile_by_name("constant", spec, amplitude=1.0)
    shape = sample_cap_shape(prof, grid)
    ext = build_b(shape, PARAMS, grid)
    with pytest.raises(ValueError, match="not finite"):
        certify_layer_bound(cap_norms(shape, grid), PARAMS, ext, grid, mu=2.0 / 3.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    _ok("05 weighted-hessian-certificate")


# -- 6 ------------------------------------------------------------------------

def test_criterion_06_basis_integrity():
    grid = desk_grid()
    vb = build_velocity_basis(grid, 32)
    samples, g = oracles.family_fields(vb.factors)
    div = g[:, 0, 0] + g[:, 1, 1] + g[:, 2, 2]
    assert np.max(np.abs(div)) <= 1e-12
    for patch in grid.patches:
        vals = np.array([oracles.velocity_mode_on_face(md, grid, patch) for md in vb.modes])
        assert np.max(np.abs(np.einsum("c,icxy->ixy", oracles.outward_normal(grid, patch), vals))) <= 1e-12
    psi = samples.reshape(32, 3, -1)
    gram = grid.cell_volume * np.einsum("iag,jag->ij", psi, psi)
    assert np.max(np.abs(gram - np.eye(32))) <= 1e-10
    from ductflow.basis import AssembledForms, build_temperature_basis

    tb = build_temperature_basis(grid, 32)
    forms = AssembledForms(grid, vb, tb, nu=1.0, gamma=1.0)
    assert np.linalg.eigvalsh(np.diag(forms.nu * vb.rayleigh) + forms.K_fric).min() > 0.0
    _ok("06 basis-integrity")


# -- 7 ------------------------------------------------------------------------

def test_criterion_07_galerkin_oracle_equivalence():
    cfg = ScenarioConfig(
        N1=8, N2=8, N3=16, m=6,
        flux_profile="pulsed", flux_amplitude=0.6, flux_beta=0.4, flux_period=0.5,
        forcing_kind="shear", forcing_amplitude=0.3,
        omega_kind="linear", omega0=1.0, omega1=0.2,
        init_theta="bump", init_theta_mean=1.5, init_theta_amplitude=0.4,
        init_v="modes", init_v_amplitude=0.4,
        T=0.1, n_windows=1, dt=5e-3,
    )
    solver = GalerkinSolver(cfg)
    x, t = solver.initial_state(), 0.03
    c, dcoef = x[: cfg.m], x[cfg.m :]
    delta, delta_t = oracles.scaled_lifting(solver, t)
    fast, fast_th = solver.rhs_terms(x, solver.drive(t))
    slow = oracles.slow_rhs_velocity(
        c, dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
        nu=cfg.nu, gamma=cfg.gamma, omega_fn=solver.omega,
        f_values=solver.f_values, delta=delta, delta_t=delta_t,
    )
    for key in ("conv_www", "conv_wdelta", "conv_deltaw", "visc", "fric",
                "bdry", "F_vol", "F_form", "f_omega", "total"):
        scale = max(1.0, float(np.max(np.abs(slow[key]))))
        assert np.max(np.abs(fast[key] - slow[key])) <= 1e-8 * scale, key
    slow_th = oracles.slow_rhs_temperature(
        c, dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
        kappa_heat=cfg.kappa_heat, delta=delta,
    )
    for key in ("diff", "adv", "total"):
        scale = max(1.0, float(np.max(np.abs(slow_th[key]))))
        assert np.max(np.abs(fast_th[key] - slow_th[key])) <= 1e-8 * scale, key
    # one full step stays finite and consistent between restarts
    stepped, _ = oracles.step_state(solver, x, t)
    assert np.all(np.isfinite(stepped))
    _ok("07 galerkin-oracle-equivalence")


# -- 8 ------------------------------------------------------------------------

def test_criterion_08_dissipation_monotonicity(bundle):
    res, _ = bundle["free-decay"]
    X = res.ledger.X
    assert np.all(np.diff(X) <= 1e-12 * X[0])
    c2 = res.ledger.calibration.c2
    assert c2 > 0
    rayleigh = res.solver.vb.rayleigh
    L = np.diag(res.run.config.nu * rayleigh) + res.solver.forms.K_fric
    G = np.diag(1.0 + 0.5 * rayleigh)
    rho_star = eigh(2.0 * L, G, eigvals_only=True)[0]
    fit_raw = 2.0 * c2  # calibration halves the fitted worst-case ratio
    assert rho_star / 2.0 <= fit_raw <= 2.0 * rho_star, (fit_raw, rho_star)
    _ok("08 dissipation-monotonicity")


# -- 9 ------------------------------------------------------------------------

def test_criterion_09_energy_inequality_certificate(bundle):
    for name in BUNDLED:
        res, _ = bundle[name]
        cert = res.ledger.by_name("energy-balance")
        assert cert.passed, name
        assert cert.details["pass_fraction"] >= 0.99, name
        assert cert.details["violations_off_joint"] == 0, name
        assert cert.details["max_violation"] < 1e-6, name
    _ok("09 energy-inequality-certificate")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_window_recurrence(bundle):
    res, elapsed = bundle["pulsed-flux"]
    assert res.run.config.n_windows == 8
    cert = res.ledger.by_name("window-recurrence")
    assert cert.passed
    assert cert.margin >= 0.0
    assert res.ledger.calibration.c2 > 0  # bound is non-vacuous here
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _ok("10 window-recurrence")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_temperature_max_principle(bundle):
    cfg = ScenarioConfig(
        **DESK, m=16, T=0.1, n_windows=1, dt=5e-3,
        init_theta="constant", init_theta_mean=1.0,
    )
    run = GalerkinSolver(cfg).run_windows()
    assert np.max(np.abs(run.series["th_min"] - 1.0)) <= 1e-10
    assert np.max(np.abs(run.series["th_max"] - 1.0)) <= 1e-10

    res, _ = bundle["heat-relax"]
    cert = res.ledger.by_name("temperature-bounds")
    assert cert.applicable and cert.passed
    gap = res.run.config.theta_star_upper - res.run.config.theta_star
    over16 = cert.details["max_overshoot"]
    assert over16 <= 0.01 * gap

    cfg32 = load_scenario(bundled_scenario_path("heat-relax"))
    from dataclasses import replace

    run32 = GalerkinSolver(replace(cfg32, m=32)).run_windows()
    over32 = max(
        float(np.max(run32.series["th_max"] - cfg32.theta_star_upper)),
        float(np.max(cfg32.theta_star - run32.series["th_min"])),
        0.0,
    )
    assert over32 < over16
    _ok("11 temperature-max-principle")


# -- 12 -----------------------------------------------------------------------

def test_criterion_12_temperature_energy_certificate(bundle):
    for name in BUNDLED:
        res, _ = bundle[name]
        assert res.run.config.c_theta == 1.0
        assert res.ledger.by_name("temperature-energy").passed, name
        assert res.ledger.by_name("mean-budget").passed, name
    _ok("12 temperature-energy-certificate")


# -- 13 -----------------------------------------------------------------------

def test_criterion_13_reconstruction_certificates(bundle):
    for name in BUNDLED:
        res, _ = bundle[name]
        assert res.ledger.by_name("reconstruction-triangle-2x").passed, name
        literal = res.ledger.by_name("reconstruction-triangle-literal")
        print(f"  [{name}] literal triangle variant: {literal.status}")
        assert res.ledger.by_name("aggregate-energy").passed, name
        assert res.ledger.by_name("lifting-energy").passed, name
    _ok("13 reconstruction-certificates")


# -- 14 -----------------------------------------------------------------------

def test_criterion_14_determinism(tmp_path):
    quick = bundled_scenario_path("quick-decay")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(quick), "--out", str(out1)]) == 0
    assert main(["run", str(quick), "--out", str(out2)]) == 0
    for name in ("timeseries.csv", "certificates.txt", "certificates.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _ok("14 determinism")


# -- golden results -------------------------------------------------------------

def test_bundled_results_match_the_golden_file(bundle):
    """Every bundled scenario reproduces the golden file, written by
    `tools/output_digest.py --write-golden`: equal statuses and sample
    indices, and every float equal to 1e-10 by judged_diff (absolute for the
    roundoff quantities in output_digest.ABSOLUTE)."""
    golden = json.loads(GOLDEN.read_text())
    results = {name: res for name, (res, _) in bundle.items()}
    results["quick-decay"] = execute(load_scenario(bundled_scenario_path("quick-decay")))
    assert sorted(golden) == sorted(results)
    for name, res in results.items():
        got, want = golden_record(res), golden[name]
        statuses = [{c["name"]: c["status"] for c in doc["certificates.json"]["certificates"]}
                    for doc in (want, got)]
        assert statuses[0] == statuses[1], name
        assert want["timeseries.csv"]["sample"] == got["timeseries.csv"]["sample"], name
        for file in want:
            floats = [json_floats(doc[file]) for doc in (want, got)]
            assert floats[0].keys() == floats[1].keys(), (name, file)
            for path, a in floats[0].items():
                key, b = f"{file} {path}", floats[1][path]
                assert judged_diff(key, a, b) <= 1e-10, (name, key, a, b)

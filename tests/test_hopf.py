import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductflow.cli import main
from ductflow.domain import BoundaryPatch, DomainSpec, build_domain
from ductflow.errors import RegimeError
from ductflow.scenario import bundled_scenario_path, set_key
from ductflow.solver import GalerkinSolver, ScenarioConfig
from ductflow.hopf import (
    HopfParams,
    build_b,
    cap_norms,
    compatibility_residual,
    hopf_eta,
    hopf_eta_prime,
    profile_by_name,
    sample_cap_shape,
    select_params,
    validate_profile,
)


PARAMS = HopfParams(eps=0.5, rho=0.5)


def unit_grid(n=(8, 8, 32)):
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=n[0], N2=n[1], N3=n[2])
    grid = build_domain(spec)
    return grid


# --- cutoff ---------------------------------------------------------------

def test_eta_inner_branch_is_one():
    assert hopf_eta(PARAMS.r / 2.0, PARAMS) == 1.0


def test_eta_vanishes_at_rho():
    assert abs(hopf_eta(PARAMS.rho, PARAMS)) < 1e-15
    assert hopf_eta(2.0 * PARAMS.rho, PARAMS) == 0.0


def test_eta_midlog_value():
    sigma = PARAMS.rho * math.exp(-1.0 / (2.0 * PARAMS.eps))
    assert abs(hopf_eta(sigma, PARAMS) - 0.5) < 1e-14


def test_eta_prime_branches():
    mid = math.sqrt(PARAMS.r * PARAMS.rho)  # geometric midpoint of the log branch
    assert abs(hopf_eta_prime(mid, PARAMS) + PARAMS.eps / mid) < 1e-15
    assert hopf_eta_prime(PARAMS.r / 2.0, PARAMS) == 0.0
    assert hopf_eta_prime(2.0 * PARAMS.rho, PARAMS) == 0.0


def test_eta_prime_at_the_kinks_is_the_log_branch_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hopf_eta_prime(PARAMS.r, PARAMS) == -PARAMS.eps / PARAMS.r
        assert hopf_eta_prime(PARAMS.rho, PARAMS) == -PARAMS.eps / PARAMS.rho


def test_eta_prime_is_total_on_nonnegative_sigma():
    # like eta: 0 at sigma = 0 (the inner branch), the log-branch value at
    # both kinks, and negative distances refused
    assert hopf_eta_prime(0.0, PARAMS) == 0.0
    kinks = hopf_eta_prime(np.array([0.0, PARAMS.r, PARAMS.rho]), PARAMS)
    assert kinks.tolist() == [0.0, -PARAMS.eps / PARAMS.r, -PARAMS.eps / PARAMS.rho]
    with pytest.raises(ValueError, match="nonnegative"):
        hopf_eta_prime(-1e-12, PARAMS)
    # r underflows to 0 for a tiny eps: the cap itself still has slope 0
    assert hopf_eta_prime(0.0, HopfParams(eps=1e-3, rho=0.5)) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 10.0))
def test_eta_range_and_slope_bound(sigma):
    v = hopf_eta(sigma, PARAMS)
    assert 0.0 <= v <= 1.0
    s = hopf_eta_prime(sigma, PARAMS)
    assert abs(s) <= PARAMS.eps / sigma + 1e-15


def test_eta_nonincreasing():
    sig = np.linspace(1e-6, 1.0, 5000)
    vals = hopf_eta(sig, PARAMS)
    assert np.all(np.diff(vals) <= 1e-15)


# --- parameter selection ---------------------------------------------------

def test_select_params_arithmetic():
    p = select_params(nu=0.8, d_tilde_norm=1.0, c_cal=1.0)
    assert abs(p.eps - 0.1) < 1e-15
    assert abs(p.rho - 1e-6) < 1e-20


def test_select_params_regime_boundary():
    with pytest.raises(RegimeError):
        select_params(nu=8.0, d_tilde_norm=1.0, c_cal=1.0)


def test_select_params_certificate_equality():
    for nu, norm_, c in [(0.8, 1.0, 1.0), (1.0, 2.0, 0.7), (0.3, 0.9, 2.0)]:
        p = select_params(nu, norm_, c)
        lhs = c * (p.eps + p.rho ** (1 / 6)) * norm_
        assert math.isclose(lhs, nu / 4.0, rel_tol=1e-12)


def test_select_params_rejects_zero_norm():
    with pytest.raises(RegimeError):
        select_params(1.0, 0.0)


def test_select_params_rejects_zero_calibration_constant():
    with pytest.raises(RegimeError, match="c_cal must be positive"):
        select_params(nu=1, d_tilde_norm=1, c_cal=0)


# --- profiles and extension ------------------------------------------------

def test_extension_slab_norm_matches_cap_norm():
    # on x3 slabs inside the inner branch of the bottom cutoff (sigma_lo <= r)
    # the lifting is the inflow data itself, so slab norms equal cap norms
    grid = unit_grid()
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=0.7)
    ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
    slabs = np.where(grid.x3 + grid.spec.a <= PARAMS.r)[0]
    assert slabs.size > 0
    cap = grid.caps[0]
    X, Y = cap.meshgrid()
    d1 = prof.s(0.0) * prof.g(X, Y)
    ref = math.sqrt(cap.integrate(d1**2))
    for k in slabs:
        assert np.array_equal(ext.alpha[:, :, k], d1)
        slab = math.sqrt(cap.integrate(ext.alpha[:, :, k] ** 2))
        assert abs(slab - ref) < 1e-12


def test_parabolic_w13_norm_closed_form():
    # g = 16 x(1-x) y(1-y) on the unit cap:
    #   int g^3          = (64 B(4,4))^2      = (16/35)^2
    #   int |dx g|^3     = 16^3 * (1/4) * B(4,4) = 4096/560  (same for dy)
    # so ||d||_{W^1_3}^3 = A^3 (256/1225 + 2 * 4096/560). Midpoint cap
    # quadrature is second order on polynomials, so check the value at the
    # expected accuracy and that refinement contracts the error ~4x.
    A = 0.7
    expected = (A**3 * (256.0 / 1225.0 + 2.0 * 4096.0 / 560.0)) ** (1.0 / 3.0)
    errs = []
    for n in (16, 32, 64):
        spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=n, N2=n, N3=8)
        grid = build_domain(spec)
        prof = profile_by_name("parabolic-cap", spec, amplitude=A)
        fn = cap_norms(sample_cap_shape(prof, grid), grid)
        errs.append(abs(fn.w13_cap[0] - expected))
        assert abs(fn.w13_inf_total - 2.0 * fn.w13_cap[0]) < 1e-12
    assert errs[-1] < 5e-4 * expected
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def validated(prof, grid, horizon):
    """validate_profile of the profile's cap shape sampled on grid, over [0, horizon]."""
    return validate_profile(sample_cap_shape(prof, grid), prof.s_sup(horizon))


def test_compatibility_residuals():
    grid = unit_grid()
    assert validated(profile_by_name("constant", grid.spec, amplitude=2.0), grid, 0.0) == 0.0
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=1.0)
    assert validated(prof, grid, 0.0) < 1e-15
    # constructed violation: scale one cap by 1.1
    assert compatibility_residual((1.0, 1.1), 1.0) > 0.01
    # zero totals (the none profile) give exact zeros, not a division by 0
    assert compatibility_residual((0.0, 0.0), 1.5) == 0.0
    assert np.array_equal(compatibility_residual((0.0, 0.0), np.array([0.0, 1.0, -2.0])), np.zeros(3))


def test_compatibility_residual_of_an_array_of_time_factors():
    # one residual per time factor, each the scalar residual at that s
    s = np.array([0.0, 0.5, 1.0, 3.0, -2.0])
    got = compatibility_residual((2.0, 1.5), s)
    assert got.shape == s.shape
    for value, s_i in zip(got, s):
        assert value == compatibility_residual((2.0, 1.5), float(s_i))
    assert got[0] == 0.0 and got[3] == 1.5 / 6.0 and got[4] == 1.0 / 4.0


def test_validate_profile_reads_the_cap_totals(monkeypatch):
    # compatible data at every time: the worst residual is 0.0; with the
    # upper cap's total raised by 10 % the same data are rejected, with the
    # residual at the peak s = 1.5: 0.15 times the lower cap's total 0.3611
    grid = unit_grid()
    prof = profile_by_name("pulsed", grid.spec, amplitude=0.8, beta=0.5, period=0.4)
    assert validated(prof, grid, 1.0) == 0.0
    integrate = BoundaryPatch.integrate

    def skewed(self, values):
        return integrate(self, values) * (1.1 if (self.axis, self.side) == (2, 1) else 1.0)

    monkeypatch.setattr(BoundaryPatch, "integrate", skewed)
    with pytest.raises(ValueError, match=r"^flux compatibility violated: residual 5\.417e-02$"):
        validated(prof, grid, 1.0)


def test_validate_profile_is_the_worst_over_the_horizon(monkeypatch):
    # the residual does not decrease in |s|, to the bit, so its value at
    # s_sup(H) is the worst over [0, H]: at least every sampled one, for H
    # below and above P/4, where s peaks, also where the totals differ by
    # a skew of 1e-13, a few hundred ulps of I
    grid = unit_grid()
    prof = profile_by_name("pulsed", grid.spec, amplitude=0.8, beta=0.5, period=0.4)
    integrate = BoundaryPatch.integrate

    def skewed(self, values):
        return integrate(self, values) * (1.0 + (1e-13 if (self.axis, self.side) == (2, 1) else 0.0))

    monkeypatch.setattr(BoundaryPatch, "integrate", skewed)
    totals = [patch.integrate(prof.g(*patch.meshgrid())) for patch in grid.caps]
    assert totals[0] != totals[1]
    for horizon in (0.05, 0.1, 0.7):
        s_sup = prof.s_sup(horizon)
        got = validated(prof, grid, horizon)
        assert got == compatibility_residual(totals, s_sup) > 0.0
        sampled = compatibility_residual(totals, np.array([prof.s(t) for t in np.linspace(0.0, horizon, 10_001)]))
        assert got >= np.max(sampled)
        assert got <= np.max(sampled) * (1.0 + 1e-2)


def test_validate_profile_rejects_a_negative_shape():
    grid = unit_grid()
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=0.8)
    negative = dataclasses.replace(prof, g=lambda x1, x2: -prof.g(x1, x2))
    with pytest.raises(ValueError, match=r"^flux d1 negative$"):
        validated(negative, grid, 1.0)


def test_profile_registry():
    grid = unit_grid()
    for name in ("none", "constant", "parabolic-cap", "pulsed"):
        prof = profile_by_name(name, grid.spec, amplitude=0.5, beta=0.3, period=1.0)
        assert prof.name == name
    with pytest.raises(ValueError):
        profile_by_name("bogus", grid.spec)


def test_every_profile_has_one_time_factor(tmp_path, capsys):
    # s = 1 + beta sin(2 pi t / P): for pulsed, s_sup(H) is the largest s
    # over [0, H] on either side of its peak at P/4 = 0.1; the steady
    # profiles are the same rule at beta = 0, exactly 1 with derivative 0
    # whatever beta and period they are given, so check accepts them too
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0)
    prof = profile_by_name("pulsed", spec, amplitude=0.8, beta=0.5, period=0.4)
    for H in (0.02, 0.07, 0.1, 0.3, 0.8):
        largest = max(prof.s(t) for t in np.linspace(0.0, H, round(H * 1e4) + 1))
        assert largest <= prof.s_sup(H) <= largest + 1e-9, H
    times = np.linspace(0.0, 3.0, 61)   # the cosine is negative on half of them
    for name in ("none", "constant", "parabolic-cap"):
        prof = profile_by_name(name, spec, amplitude=0.5, beta=2.0, period=0.0)
        assert all(prof.s(t) == 1.0 and prof.s_t(t) == 0.0 for t in times), name
        assert all(prof.s_sup(H) == 1.0 for H in (0.0, 0.1, 0.3, 5.0)), name
    text = bundled_scenario_path("forced-warm").read_text()
    scn = tmp_path / "steady.scn"
    scn.write_text(set_key(set_key(text, "flux.beta", 2), "flux.period", 0))
    assert main(["check", str(scn)]) == 0
    assert "[PASS] flux-compatibility" in capsys.readouterr().out


def test_pulsed_never_vanishes_and_dt_analytic():
    grid = unit_grid()
    prof = profile_by_name("pulsed", grid.spec, amplitude=1.0, beta=0.5, period=2.0)
    cap = grid.caps[0]
    X, Y = cap.meshgrid()
    for t in np.linspace(0, 4, 17):
        vals = prof.s(t) * prof.g(X, Y)
        assert np.all(vals >= 0.0)
        assert np.max(vals) > 0.0
    # centered difference agrees with the analytic time derivative
    t0, dt = 0.37, 1e-6
    fd = (prof.s(t0 + dt) * prof.g(X, Y) - prof.s(t0 - dt) * prof.g(X, Y)) / (2 * dt)
    assert np.max(np.abs(fd - prof.s_t(t0) * prof.g(X, Y))) < 1e-7


def test_pulsed_dt_norm_is_analytic():
    # d_t = A s'(t) g with g = 16 x(1-x) y(1-y): the W^1_{6/5} cap norm of
    # the time derivative is |A s'(t)| times that of g, with no difference
    # quotient in time; the audit's column sums its square over both caps
    grid = unit_grid()
    A, beta, period = 0.6, 0.5, 0.5
    solver = GalerkinSolver(ScenarioConfig(
        N1=8, N2=8, N3=32, m=4, flux_profile="pulsed",
        flux_amplitude=A, flux_beta=beta, flux_period=period,
    ))
    cap = grid.caps[0]
    X, Y = cap.meshgrid()
    g = 16.0 * X * (1 - X) * Y * (1 - Y)
    g_x = 16.0 * (1 - 2 * X) * Y * (1 - Y)
    g_y = 16.0 * X * (1 - X) * (1 - 2 * Y)
    p = 6.0 / 5.0
    shape = sum(cap.integrate(np.abs(f) ** p) for f in (g, g_x, g_y)) ** (1.0 / p)
    ts = np.array([0.0, 0.07, 0.31])
    got = solver._ledger(solver.drive(ts), np.zeros((3, 4)), np.zeros((3, solver.tb.m)))["ddt_w165_sq_sum"]
    for t, value in zip(ts, got):
        s_t = beta * 2.0 * math.pi / period * math.cos(2.0 * math.pi * t / period)
        expected = 2.0 * (A * s_t * shape) ** 2
        assert abs(value - expected) <= 1e-13 * expected, t


# --- the lifting -----------------------------------------------------------

def test_b_vanishes_in_the_core():
    grid = unit_grid()
    ext = build_b(sample_cap_shape(profile_by_name("parabolic-cap", grid.spec, amplitude=1.0), grid), PARAMS, grid)
    core = np.abs(grid.x3) < grid.spec.a - PARAMS.rho
    assert np.max(np.abs(ext.alpha[:, :, core])) == 0.0


def test_b_reproduces_cap_traces():
    grid = unit_grid()
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=0.9)
    faces = build_b(sample_cap_shape(prof, grid), PARAMS, grid).faces
    for patch, alpha in zip(grid.caps, faces[4:]):
        X, Y = patch.meshgrid()
        d = prof.s(0.0) * prof.g(X, Y)
        # b.n = n_3 alpha must match n_3 d_i exactly
        assert np.max(np.abs(alpha - d)) < 1e-12


def test_b_on_the_side_walls_matches_the_closed_form():
    # b = g eta e3, eta the sum of the two cap cutoffs, on a box whose two
    # horizontal axes differ
    spec = DomainSpec(L1=1.0, L2=1.5, a=1.0, N1=8, N2=10, N3=32)
    grid = build_domain(spec)
    prof = profile_by_name("parabolic-cap", spec, amplitude=1.0)
    faces = build_b(sample_cap_shape(prof, grid), PARAMS, grid).faces
    for patch, alpha in zip(grid.patches, faces):
        if patch.axis == 2:
            continue
        u, x3 = patch.meshgrid()
        wall = np.full(u.shape, patch.coord)
        x1, x2 = (wall, u) if patch.axis == 0 else (u, wall)
        eta = hopf_eta(x3 + spec.a, PARAMS) + hopf_eta(spec.a - x3, PARAMS)
        ref = prof.g(x1, x2) * eta
        assert alpha.shape == ref.shape, (patch.axis, patch.side)
        assert np.max(np.abs(alpha - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), (patch.axis, patch.side)


def test_div_b_integrates_to_zero_for_compatible_flux():
    grid = unit_grid((8, 8, 64))
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=1.0)
    ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
    total = grid.integrate(ext.div_b)
    # quadrature of the layer profile, not exact: tolerance reflects N3 = 64
    assert abs(total) < 5e-3
    # the analytic x3 antiderivative of div b is alpha itself, whose net cap
    # difference vanishes for compatible data; check the exact identity
    lo, hi = grid.caps
    alpha_lo, alpha_hi = ext.faces[4], ext.faces[5]
    assert abs(lo.integrate(alpha_lo)) > 0.1
    assert abs(hi.integrate(alpha_hi) - lo.integrate(alpha_lo)) < 1e-15


def test_b_support_in_cap_layers():
    grid = unit_grid()
    ext = build_b(sample_cap_shape(profile_by_name("constant", grid.spec, amplitude=1.0), grid), PARAMS, grid)
    from ductflow.domain import dist_to_caps

    dist = dist_to_caps(grid.x3, grid.spec)
    outside = dist > PARAMS.rho
    assert np.max(np.abs(ext.alpha[:, :, outside])) == 0.0


def test_build_b_rejects_fat_layers():
    spec = DomainSpec(L1=1.0, L2=1.0, a=0.4, N1=8, N2=8, N3=16)
    grid = build_domain(spec)
    shape = sample_cap_shape(profile_by_name("constant", grid.spec, amplitude=1.0), grid)
    with pytest.raises(RegimeError):
        build_b(shape, HopfParams(eps=0.5, rho=0.5), grid)

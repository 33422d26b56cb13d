import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductflow.domain import DomainSpec, PatchKind, build_domain
from ductflow.errors import RegimeError
from ductflow.hopf import (
    HopfParams,
    KinkWarning,
    build_b,
    b_on_face,
    check_compatibility,
    constant_profile,
    flux_norms,
    hopf_eta,
    hopf_eta_prime,
    parabolic_profile,
    profile_by_name,
    pulsed_profile,
    select_params,
)


PARAMS = HopfParams(eps=0.5, rho=0.5)


def unit_grid(n=(8, 8, 32)):
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=n[0], N2=n[1], N3=n[2])
    _, grid = build_domain(spec)
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


def test_eta_prime_kink_flagged():
    with pytest.warns(KinkWarning):
        v = hopf_eta_prime(PARAMS.rho, PARAMS)
    assert abs(v + PARAMS.eps / PARAMS.rho) < 1e-15


@settings(max_examples=50, deadline=None)
@given(st.floats(1e-6, 10.0))
def test_eta_range_and_slope_bound(sigma):
    v = hopf_eta(sigma, PARAMS)
    assert 0.0 <= v <= 1.0
    s = hopf_eta_prime(sigma, PARAMS, warn_on_kink=False)
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


# --- profiles and extension ------------------------------------------------

def test_extension_slab_norm_matches_cap_norm():
    # on x3 slabs inside the inner branch of the bottom cutoff (sigma_lo <= r)
    # the lifting is the inflow data itself, so slab norms equal cap norms
    grid = unit_grid()
    prof = parabolic_profile(0.7, grid.spec)
    ext = build_b(prof, PARAMS, grid, 0.0)
    slabs = np.where(grid.x3 + grid.spec.a <= PARAMS.r)[0]
    assert slabs.size > 0
    cap = grid.patch(PatchKind.CAP_LO)
    X, Y = cap.meshgrid()
    d1 = prof.d1(X, Y, 0.0)
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
        _, grid = build_domain(spec)
        prof = parabolic_profile(A, spec)
        fn = flux_norms(prof, grid, 0.0)
        errs.append(abs(fn.w13_cap[0] - expected))
        assert abs(fn.w13_inf_total - 2.0 * fn.w13_cap[0]) < 1e-12
    assert errs[-1] < 5e-4 * expected
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def test_compatibility_residuals():
    grid = unit_grid()
    assert check_compatibility(constant_profile(2.0), grid, 0.0) == 0.0
    prof = parabolic_profile(1.0, grid.spec)
    assert check_compatibility(prof, grid, 0.0) < 1e-15
    # constructed violation: scale one cap by 1.1
    broken = parabolic_profile(1.0, grid.spec)
    object.__setattr__(broken, "d2", lambda x1, x2, t: 1.1 * prof.d1(x1, x2, t))
    res = check_compatibility(broken, grid, 0.0)
    assert res > 0.01


def test_profile_registry():
    grid = unit_grid()
    for name in ("none", "constant", "parabolic-cap", "pulsed"):
        prof = profile_by_name(name, grid.spec, amplitude=0.5, beta=0.3, period=1.0)
        assert prof.name == name
    with pytest.raises(ValueError):
        profile_by_name("bogus", grid.spec)


def test_pulsed_never_vanishes_and_dt_analytic():
    grid = unit_grid()
    prof = pulsed_profile(1.0, 0.5, 2.0, grid.spec)
    cap = grid.patch(PatchKind.CAP_LO)
    X, Y = cap.meshgrid()
    for t in np.linspace(0, 4, 17):
        vals = prof.d1(X, Y, t)
        assert np.all(vals >= 0.0)
        assert np.max(vals) > 0.0
    # centered difference agrees with the analytic time derivative
    t0, dt = 0.37, 1e-6
    fd = (prof.d1(X, Y, t0 + dt) - prof.d1(X, Y, t0 - dt)) / (2 * dt)
    assert np.max(np.abs(fd - prof.d1_t(X, Y, t0))) < 1e-7


# --- the lifting -----------------------------------------------------------

def test_b_vanishes_in_the_core():
    grid = unit_grid()
    ext = build_b(parabolic_profile(1.0, grid.spec), PARAMS, grid, 0.0)
    core = np.abs(grid.x3) < grid.spec.a - PARAMS.rho
    assert np.max(np.abs(ext.alpha[:, :, core])) == 0.0


def test_b_reproduces_cap_traces():
    grid = unit_grid()
    prof = parabolic_profile(0.9, grid.spec)
    for kind, i, sign in ((PatchKind.CAP_LO, 1, -1.0), (PatchKind.CAP_HI, 2, 1.0)):
        patch = grid.patch(kind)
        alpha, _ = b_on_face(prof, PARAMS, grid, patch, 0.0)
        X, Y = patch.meshgrid()
        d = prof.cap_fn(i)(X, Y, 0.0)
        # b.n = sign * alpha must match sign * d_i exactly
        assert np.max(np.abs(alpha - d)) < 1e-12


def test_div_b_integrates_to_zero_for_compatible_flux():
    grid = unit_grid((8, 8, 64))
    prof = parabolic_profile(1.0, grid.spec)
    ext = build_b(prof, PARAMS, grid, 0.0)
    total = grid.integrate(ext.div_b)
    # quadrature of the layer profile, not exact: tolerance reflects N3 = 64
    assert abs(total) < 5e-3
    # the analytic x3 antiderivative of div b is alpha itself, whose net cap
    # difference vanishes for compatible data; check the exact identity
    lo = grid.patch(PatchKind.CAP_LO)
    X, Y = lo.meshgrid()
    assert (
        abs(lo.integrate(prof.d2(X, Y, 0.0)) - lo.integrate(prof.d1(X, Y, 0.0)))
        < 1e-15
    )


def test_b_support_in_cap_layers():
    grid = unit_grid()
    ext = build_b(constant_profile(1.0), PARAMS, grid, 0.0)
    from ductflow.domain import dist_to_caps

    dist = dist_to_caps(grid.x3, grid.spec)
    outside = dist > PARAMS.rho
    assert np.max(np.abs(ext.alpha[:, :, outside])) == 0.0


def test_build_b_rejects_fat_layers():
    spec = DomainSpec(L1=1.0, L2=1.0, a=0.4, N1=8, N2=8, N3=16)
    _, grid = build_domain(spec)
    with pytest.raises(RegimeError):
        build_b(constant_profile(1.0), HopfParams(eps=0.5, rho=0.5), grid, 0.0)

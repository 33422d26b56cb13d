import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ductflow.audit import _v_norm_sq
from ductflow.domain import DomainSpec, build_domain
from ductflow.poisson import weighted_norm


def unit_grid(n=(8, 8, 16)):
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=n[0], N2=n[1], N3=n[2])
    grid = build_domain(spec)
    return grid


def test_constant_weighted_l2_closed_form():
    # weight = dist to caps; p mu = 1 makes the x3 integral 2 * int_0^1 y dy = 1
    grid = unit_grid()
    val = weighted_norm([np.ones(grid.shape)], grid, p=2, mu=0.5)
    assert abs(val - 1.0) < 1e-13


def test_weighted_lp_dominated_by_max_weight():
    grid = unit_grid()
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    plain = grid.integrate(np.abs(f) ** 3) ** (1.0 / 3.0)
    for mu in (0.25, 0.5, 0.9):
        w = weighted_norm([f], grid, p=3, mu=mu)
        assert w <= grid.spec.a**mu * plain + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    mu_lo=st.floats(0.05, 0.45),
    dmu=st.floats(0.05, 0.5),
    p=st.sampled_from([2.0, 3.0]),
)
def test_weighted_monotone_in_mu_for_boundary_supported_bump(mu_lo, dmu, p):
    # Bump supported where the weight is < 1, so a larger exponent shrinks
    # the weight pointwise and with it the norm.
    grid = unit_grid()
    _, _, X3 = grid.meshgrid()
    bump = np.exp(-60.0 * (X3 + 0.7) ** 2)
    lo = weighted_norm([bump], grid, p=p, mu=mu_lo)
    hi = weighted_norm([bump], grid, p=p, mu=min(0.99, mu_lo + dmu))
    assert hi <= lo * (1.0 + 1e-12)


def test_invalid_norm_parameters():
    grid = unit_grid()
    with pytest.raises(ValueError):
        weighted_norm([np.ones(grid.shape)], grid, p=2, mu=1.5)


def test_energy_norm_decaying_mode_oracle():
    # u(t) = exp(-lam t) cos(pi (x3+1)/2): analytic time integral of
    # exp(-2 lam t) gives V = 1 + sqrt(pi^2/4 * (1 - e^(-2 lam T)) / (2 lam)).
    # The audit's V-norm is fed the series it sees in a run: sup of l2sq and
    # the trapezoid integral of gradsq.
    grid = unit_grid()
    _, _, X3 = grid.meshgrid()
    mode = np.cos(np.pi * (X3 + 1.0) / 2.0)
    mode_d3 = -(np.pi / 2.0) * np.sin(np.pi * (X3 + 1.0) / 2.0)
    mode_l2sq = grid.integrate(mode**2)
    mode_gradsq = grid.integrate(mode_d3**2)
    lam, T, nt = 1.0, 1.0, 2001
    times = np.linspace(0.0, T, nt)
    decay = np.exp(-2.0 * lam * times)
    l2sq = mode_l2sq * decay
    gradsq = mode_gradsq * decay
    expected = 1.0 + math.sqrt(
        (math.pi**2 / 4.0) * (1.0 - math.exp(-2.0 * lam * T)) / (2.0 * lam)
    )
    got = math.sqrt(_v_norm_sq(float(np.max(l2sq)), float(np.trapezoid(gradsq, times))))
    assert abs(got - expected) < 5e-7 * expected

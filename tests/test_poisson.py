import math

import numpy as np
import pytest

from ductflow.domain import DomainSpec, PatchKind, build_domain
from ductflow.errors import SolvabilityError
from ductflow.hopf import HopfParams, build_b, constant_profile, parabolic_profile
from ductflow.poisson import (
    certify_layer_bound,
    certify_weighted_hessian,
    delta_field,
    grad_on_face,
    layer_factor,
    solve_neumann,
)

PARAMS = HopfParams(eps=0.5, rho=0.5)


def unit_grid(n=(8, 8, 32), a=1.0):
    spec = DomainSpec(L1=1.0, L2=1.0, a=a, N1=n[0], N2=n[1], N3=n[2])
    _, grid = build_domain(spec)
    return grid


def cos_mode(grid, k):
    X1, X2, X3 = grid.meshgrid()
    sp = grid.spec
    return (
        np.cos(k[0] * np.pi * X1 / sp.L1)
        * np.cos(k[1] * np.pi * X2 / sp.L2)
        * np.cos(k[2] * np.pi * (X3 + sp.a) / (2 * sp.a))
    )


def eigenvalue(grid, k):
    sp = grid.spec
    return (
        (k[0] * np.pi / sp.L1) ** 2
        + (k[1] * np.pi / sp.L2) ** 2
        + (k[2] * np.pi / (2 * sp.a)) ** 2
    )


def test_zero_data_gives_zero_solution():
    grid = unit_grid()
    sol = solve_neumann(np.zeros(grid.shape), grid)
    assert np.max(np.abs(sol.phi.values)) == 0.0
    assert sol.residual == 0.0


@pytest.mark.parametrize("k", [(0, 0, 1), (1, 0, 0), (2, 1, 3)])
def test_manufactured_eigenmode_recovered(k):
    # Delta(phi) = -g with g = c * mode: phi = (c / lambda) * mode
    grid = unit_grid()
    lam = eigenvalue(grid, k)
    c = -lam  # matches phi = -mode
    g = c * cos_mode(grid, k)
    sol = solve_neumann(g, grid)
    expected = (c / lam) * cos_mode(grid, k)
    err = np.max(np.abs(sol.phi.values - expected))
    assert err <= 1e-12 * np.max(np.abs(expected))
    assert abs(grid.integrate(sol.phi.values)) < 1e-12
    assert sol.residual < 1e-10 * lam


def test_nonzero_mean_rejected():
    grid = unit_grid()
    with pytest.raises(SolvabilityError):
        solve_neumann(np.ones(grid.shape), grid)


def test_linearity():
    grid = unit_grid()
    f = cos_mode(grid, (1, 0, 2))
    g = cos_mode(grid, (0, 2, 1))
    a, b = 0.7, -1.3
    s1 = solve_neumann(f, grid)
    s2 = solve_neumann(g, grid)
    s3 = solve_neumann(a * f + b * g, grid)
    err = np.max(np.abs(s3.phi.values - a * s1.phi.values - b * s2.phi.values))
    assert err < 1e-12


def test_neumann_trace_vanishes_on_every_face():
    grid = unit_grid()
    ext = build_b(parabolic_profile(1.0, grid.spec), PARAMS, grid, 0.0)
    sol = solve_neumann(ext.div_b, grid)
    for patch in grid.patches:
        g = grad_on_face(sol, grid, patch)
        normal_deriv = np.tensordot(patch.normal, g, axes=([0], [0]))
        assert np.max(np.abs(normal_deriv)) < 1e-12


def test_div_delta_vanishes_at_nodes():
    # The solve uses the cosine interpolant of div b, so the discrete
    # divergence of delta = b + grad(phi) is zero at every node.
    grid = unit_grid()
    prof = parabolic_profile(1.0, grid.spec)
    ext = build_b(prof, PARAMS, grid, 0.0)
    sol = solve_neumann(ext.div_b, grid)
    delta = delta_field(ext, sol, grid)
    g = delta.require_grad()
    div = g[0, 0] + g[1, 1] + g[2, 2]
    div_l2 = math.sqrt(grid.integrate(div**2))
    b_h1 = math.sqrt(
        grid.integrate(ext.alpha**2) + grid.integrate(np.sum(ext.grad_alpha**2, axis=0))
    )
    assert div_l2 <= 1e-10 * b_h1


def test_delta_carries_the_flux():
    grid = unit_grid()
    prof = parabolic_profile(0.8, grid.spec)
    ext = build_b(prof, PARAMS, grid, 0.0)
    sol = solve_neumann(ext.div_b, grid)
    # normal trace of grad(phi) vanishes, so delta.n = b.n = data on caps
    for kind, side in ((PatchKind.CAP_LO, 0), (PatchKind.CAP_HI, 1)):
        patch = grid.patch(kind)
        g = grad_on_face(sol, grid, patch)
        assert np.max(np.abs(g[2])) < 1e-12


def test_weighted_hessian_single_mode_ratio_is_amplitude_invariant():
    grid = unit_grid()
    k = (0, 0, 2)
    g1 = 1.0 * cos_mode(grid, k)
    g2 = 17.0 * cos_mode(grid, k)
    r1 = certify_weighted_hessian(g1, solve_neumann(g1, grid), p=2, mu=0.5)
    r2 = certify_weighted_hessian(g2, solve_neumann(g2, grid), p=2, mu=0.5)
    assert abs(r1 - r2) < 1e-12
    # pure-x3 mode: the only Hessian entry equals the Laplacian, ratio 1
    assert abs(r1 - 1.0) < 1e-12


def test_weighted_hessian_counts_each_second_derivative_once():
    # g = cos(pi x1) cos(pi (x3+1)/2), phi = g / lam: the nonzero Hessian
    # entries are d11, d33 and d13 = d31, and the numerator sums each
    # distinct entry once.
    grid = unit_grid()
    lam = eigenvalue(grid, (1, 0, 1))
    X1, _, X3 = grid.meshgrid()
    c1, s1 = np.cos(np.pi * X1), np.sin(np.pi * X1)
    c3, s3 = np.cos(np.pi * (X3 + 1.0) / 2.0), np.sin(np.pi * (X3 + 1.0) / 2.0)
    g = c1 * c3
    d11 = -(np.pi**2) * g / lam
    d33 = -((np.pi / 2.0) ** 2) * g / lam
    d13 = (np.pi * np.pi / 2.0) * s1 * s3 / lam
    p, mu = 3, 0.8
    weight = np.minimum(X3 + 1.0, 1.0 - X3) ** (p * mu)
    numer = grid.integrate((np.abs(d11) ** p + np.abs(d33) ** p + np.abs(d13) ** p) * weight)
    denom = grid.integrate(np.abs(g) ** p * weight)
    expected = (numer / denom) ** (1.0 / p)
    got = certify_weighted_hessian(g, solve_neumann(g, grid), p=p, mu=mu)
    assert got == pytest.approx(expected, rel=1e-12)


def test_weighted_hessian_parameter_validation():
    grid = unit_grid()
    g = cos_mode(grid, (0, 0, 1))
    sol = solve_neumann(g, grid)
    with pytest.raises(ValueError):
        certify_weighted_hessian(g, sol, p=1.5, mu=0.5)
    with pytest.raises(ValueError):
        certify_weighted_hessian(g, sol, p=2, mu=1.2)
    with pytest.raises(ValueError):
        certify_weighted_hessian(np.zeros(grid.shape), solve_neumann(np.zeros(grid.shape), grid), p=2, mu=0.5)


def test_layer_bound_mu_validation():
    grid = unit_grid()
    prof = constant_profile(1.0)
    ext = build_b(prof, PARAMS, grid, 0.0)
    with pytest.raises(ValueError, match="not finite"):
        certify_layer_bound(prof, PARAMS, ext, grid, mu=2.0 / 3.0)


def test_layer_bound_zero_flux():
    grid = unit_grid()
    prof = constant_profile(0.0)
    ext = build_b(prof, PARAMS, grid, 0.0)
    lhs, rhs = certify_layer_bound(prof, PARAMS, ext, grid, mu=0.8)
    assert lhs == 0.0 and rhs == 0.0


def test_layer_bound_constant_flux_closed_form():
    # For d_i = A constant and the constant-in-x3 extension,
    # lhs^3 = 2 A^3 |cap| eps^3 int_r^rho s^(3 mu - 3) ds exactly.
    mu = 0.8
    A = 1.3
    prof = constant_profile(A)
    expected_lhs = (2.0 * A**3 * 1.0 * layer_factor(PARAMS, mu)) ** (1.0 / 3.0)
    vals = []
    for n3 in (64, 128, 256):
        grid = unit_grid(n=(4, 4, n3))
        ext = build_b(prof, PARAMS, grid, 0.0)
        lhs, rhs = certify_layer_bound(prof, PARAMS, ext, grid, mu=mu)
        vals.append(lhs)
        assert rhs == pytest.approx(
            PARAMS.eps * PARAMS.rho ** (mu - 2.0 / 3.0) * 2.0 * A, rel=1e-12
        )
    errs = [abs(v - expected_lhs) for v in vals]
    assert errs[-1] < 2e-2 * expected_lhs
    assert errs[0] > errs[-1]  # refinement moves toward the closed form

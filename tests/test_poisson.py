import math

import numpy as np
import pytest

import oracles
from ductflow import spectral
from ductflow.domain import DomainSpec, build_domain
from ductflow.errors import SolvabilityError
from ductflow.hopf import (
    HopfParams,
    build_b,
    cap_norms,
    profile_by_name,
    sample_cap_shape,
)
from ductflow.poisson import (
    certify_layer_bound,
    certify_weighted_hessian,
    delta_field,
    solve_neumann,
    weighted_norm,
)

PARAMS = HopfParams(eps=0.5, rho=0.5)


def unit_grid(n=(8, 8, 32), a=1.0):
    spec = DomainSpec(L1=1.0, L2=1.0, a=a, N1=n[0], N2=n[1], N3=n[2])
    grid = build_domain(spec)
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
    assert np.max(np.abs(spectral.synth(sol.coeffs, grid.axes, [(0, 0, 0)])[0])) == 0.0
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
    phi = spectral.synth(sol.coeffs, grid.axes, [(0, 0, 0)])[0]
    err = np.max(np.abs(phi - expected))
    assert err <= 1e-12 * np.max(np.abs(expected))
    assert abs(grid.integrate(phi)) < 1e-12
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
    phi = [spectral.synth(s.coeffs, grid.axes, [(0, 0, 0)])[0] for s in (s1, s2, s3)]
    err = np.max(np.abs(phi[2] - a * phi[0] - b * phi[1]))
    assert err < 1e-12


def test_neumann_trace_vanishes_on_every_face():
    grid = unit_grid()
    ext = build_b(sample_cap_shape(profile_by_name("parabolic-cap", grid.spec, amplitude=1.0), grid), PARAMS, grid)
    delta = delta_field(ext, solve_neumann(ext.div_b, grid), grid)
    # delta = b + grad(phi) with b = alpha e3: n.delta - n3 alpha = n.grad(phi)
    for patch, alpha, face in zip(grid.patches, ext.faces, delta.faces):
        n = oracles.outward_normal(grid, patch)
        normal = np.tensordot(n, face, axes=([0], [0]))
        assert np.max(np.abs(normal - n[2] * alpha)) < 1e-12


def test_normal_derivatives_of_phi_are_exactly_zero_on_every_face():
    # The Neumann condition as the faces of delta carry it, which trace_gap
    # relies on: on each face, n.grad(phi) is 0.0, not roundoff. b = alpha
    # e3 adds alpha into row 2; it is taken back out, which is exact. The
    # two Hessian entries that pair the normal axis with an in-plane axis,
    # which the cap stress leaves out, are 0.0 in the face synthesis too.
    grid = unit_grid(n=(8, 10, 32))
    prof = profile_by_name("pulsed", grid.spec, amplitude=0.9, beta=0.5, period=0.2)
    ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
    sol = solve_neumann(ext.div_b, grid)
    delta = delta_field(ext, sol, grid)
    for patch, alpha, face in zip(grid.patches, ext.faces, delta.faces):
        face_id = (patch.axis, patch.side)
        grad_phi = face.copy()
        grad_phi[2] -= alpha
        assert np.max(np.abs(grad_phi)) > 0.0, face_id
        assert np.all(grad_phi[patch.axis] == 0.0), face_id
        mixed = [tuple(int(a in (patch.axis, p)) for a in range(3)) for p in patch.plane_axes]
        assert np.all(spectral.synth(sol.coeffs, grid.axes, mixed, face_id) == 0.0), face_id


def test_div_delta_vanishes_at_nodes():
    # The solve uses the cosine interpolant of div b, so the discrete
    # divergence of delta = b + grad(phi) is zero at every node.
    grid = unit_grid()
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=1.0)
    ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
    sol = solve_neumann(ext.div_b, grid)
    delta = delta_field(ext, sol, grid)
    g = delta.grad
    div = g[0, 0] + g[1, 1] + g[2, 2]
    div_l2 = math.sqrt(grid.integrate(div**2))
    b_h1 = math.sqrt(
        grid.integrate(ext.alpha**2) + grid.integrate(np.sum(ext.grad_alpha**2, axis=0))
    )
    assert div_l2 <= 1e-10 * b_h1


def test_delta_carries_the_flux():
    grid = unit_grid()
    prof = profile_by_name("parabolic-cap", grid.spec, amplitude=0.8)
    ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
    delta = delta_field(ext, solve_neumann(ext.div_b, grid), grid)
    # normal trace of grad(phi) vanishes, so delta_3 = b_3 = g on both caps
    for patch, face in zip(grid.caps, delta.faces[4:]):
        g = prof.g(*patch.meshgrid())
        assert np.max(np.abs(face[2] - g)) < 1e-12


def test_face_gradients_of_delta_match_trig_sums_and_the_closed_form():
    # grad delta on a cap is the Hessian of phi there plus grad alpha in
    # row 2, evaluated by the oracle without the package's synthesis or its
    # cutoff (oracles.lifting_face_gradient). Its cap stress
    # e3.D(delta).e_c = d_3 delta_c + d_c delta_3 must match the in-cap
    # gradient (g1, g2) of the cap shape, which the forms read in its place;
    # d_3 delta_c, which the stress leaves out, must vanish there. The two
    # horizontal axes differ.
    spec = DomainSpec(L1=1.0, L2=1.5, a=1.0, N1=8, N2=10, N3=32)
    grid = build_domain(spec)
    prof = profile_by_name("parabolic-cap", spec, amplitude=0.9)
    ext = build_b(sample_cap_shape(prof, grid), PARAMS, grid)
    sol = solve_neumann(ext.div_b, grid)
    for patch in grid.caps:
        face_id = (patch.axis, patch.side)
        grad = oracles.lifting_face_gradient(sol.coeffs, prof, PARAMS, grid, patch)
        X, Y = patch.meshgrid()
        stress = np.stack([prof.g1(X, Y), prof.g2(X, Y)])
        expected = np.stack([grad[2, c] + grad[c, 2] for c in patch.plane_axes])
        assert stress.shape == expected.shape, face_id
        scale = float(np.max(np.abs(expected)))
        assert scale > 0.0 and np.max(np.abs(stress - expected)) <= 1e-12 * scale, face_id
        assert np.max(np.abs(grad[list(patch.plane_axes), 2])) <= 1e-12 * scale, face_id


def test_weighted_hessian_single_mode_ratio_is_amplitude_invariant():
    grid = unit_grid()
    k = (0, 0, 2)
    g1 = 1.0 * cos_mode(grid, k)
    g2 = 17.0 * cos_mode(grid, k)
    r1 = certify_weighted_hessian(weighted_norm([g1], grid, 2, 0.5), solve_neumann(g1, grid), p=2, mu=0.5)
    r2 = certify_weighted_hessian(weighted_norm([g2], grid, 2, 0.5), solve_neumann(g2, grid), p=2, mu=0.5)
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
    got = certify_weighted_hessian(weighted_norm([g], grid, p, mu), solve_neumann(g, grid), p=p, mu=mu)
    assert got == pytest.approx(expected, rel=1e-12)


def test_weighted_hessian_parameter_validation():
    grid = unit_grid()
    g = cos_mode(grid, (0, 0, 1))
    sol, norm = solve_neumann(g, grid), weighted_norm([g], grid, 2, 0.5)
    with pytest.raises(ValueError):
        certify_weighted_hessian(norm, sol, p=1.5, mu=0.5)
    with pytest.raises(ValueError):
        certify_weighted_hessian(norm, sol, p=2, mu=1.2)
    with pytest.raises(ValueError):
        certify_weighted_hessian(0.0, solve_neumann(np.zeros(grid.shape), grid), p=2, mu=0.5)


def test_layer_bound_mu_validation():
    grid = unit_grid()
    prof = profile_by_name("constant", grid.spec, amplitude=1.0)
    shape = sample_cap_shape(prof, grid)
    ext = build_b(shape, PARAMS, grid)
    with pytest.raises(ValueError, match="not finite"):
        certify_layer_bound(cap_norms(shape, grid), PARAMS, ext, grid, mu=2.0 / 3.0)


def test_layer_bound_zero_flux():
    grid = unit_grid()
    prof = profile_by_name("constant", grid.spec, amplitude=0.0)
    shape = sample_cap_shape(prof, grid)
    ext = build_b(shape, PARAMS, grid)
    lhs, rhs = certify_layer_bound(cap_norms(shape, grid), PARAMS, ext, grid, mu=0.8)
    assert lhs == 0.0 and rhs == 0.0


def test_layer_bound_constant_flux_closed_form():
    # For d_i = A constant and the constant-in-x3 extension,
    # lhs^3 = 2 A^3 |cap| eps^3 int_r^rho s^(3 mu - 3) ds exactly.
    mu = 0.8
    A = 1.3
    expo = 3.0 * mu - 2.0
    layer = PARAMS.eps**3 * (PARAMS.rho**expo - PARAMS.r**expo) / expo
    expected_lhs = (2.0 * A**3 * 1.0 * layer) ** (1.0 / 3.0)
    vals = []
    for n3 in (64, 128, 256):
        grid = unit_grid(n=(4, 4, n3))
        prof = profile_by_name("constant", grid.spec, amplitude=A)
        shape = sample_cap_shape(prof, grid)
        ext = build_b(shape, PARAMS, grid)
        lhs, rhs = certify_layer_bound(cap_norms(shape, grid), PARAMS, ext, grid, mu=mu)
        vals.append(lhs)
        assert rhs == pytest.approx(
            PARAMS.eps * PARAMS.rho ** (mu - 2.0 / 3.0) * 2.0 * A, rel=1e-12
        )
    errs = [abs(v - expected_lhs) for v in vals]
    assert errs[-1] < 2e-2 * expected_lhs
    assert errs[0] > errs[-1]  # refinement moves toward the closed form

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from ductflow import basis
from ductflow.basis import (
    AssembledForms,
    DeltaEval,
    build_temperature_basis,
    build_velocity_basis,
    dealias_cap,
    temperature_modes,
    velocity_modes,
)
from ductflow.domain import DomainSpec, build_domain
from ductflow.errors import AliasingError


def unit_grid(n=(12, 12, 16)):
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=n[0], N2=n[1], N3=n[2])
    grid = build_domain(spec)
    return grid


@pytest.fixture(scope="module")
def grid():
    return unit_grid()


@pytest.fixture(scope="module")
def vb(grid):
    return build_velocity_basis(grid, 16)


@pytest.fixture(scope="module")
def tb(grid):
    return build_temperature_basis(grid, 16)


@pytest.fixture(scope="module")
def forms(grid, vb, tb):
    return AssembledForms(grid, vb, tb, nu=1.0, gamma=1.0)


def test_sampled_divergence_vanishes(vb, grid):
    _, g = oracles.family_fields(vb.factors)
    div = g[:, 0, 0] + g[:, 1, 1] + g[:, 2, 2]
    assert np.max(np.abs(div)) <= 1e-12


def test_normal_trace_vanishes_on_all_faces(vb, grid):
    # each component's face trace from its factor tables, whose face axis
    # takes the end value as a one-node table
    for patch in grid.patches:
        vals = np.stack([oracles.outer(vb.factors.on_face(c, patch)) for c in range(3)], axis=1)
        vals = vals.squeeze(axis=2 + patch.axis)
        normal_comp = np.einsum("c,icxy->ixy", oracles.outward_normal(grid, patch), vals)
        assert np.max(np.abs(normal_comp)) <= 1e-12


def test_gram_matrix_is_identity(vb, grid):
    m = vb.m
    psi = oracles.family_fields(vb.factors)[0].reshape(m, 3, -1)
    gram = grid.cell_volume * np.einsum("iag,jag->ij", psi, psi)
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-10


def test_gram_identity_up_to_32(grid):
    vb = build_velocity_basis(grid, 32)
    m = vb.m
    psi = oracles.family_fields(vb.factors)[0].reshape(m, 3, -1)
    gram = grid.cell_volume * np.einsum("iag,jag->ij", psi, psi)
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-10


def test_mode_count_guard(grid):
    with pytest.raises(AliasingError):
        build_velocity_basis(grid, 10**6)


@functools.lru_cache(maxsize=None)
def _exhaustive(lengths, kcap):
    return (
        oracles.exhaustive_velocity_modes(lengths, kcap),
        oracles.exhaustive_temperature_modes(lengths, kcap),
    )


@pytest.mark.parametrize("kcap", [(10, 10, 21), (7, 7, 10), (3, 3, 5)])
@pytest.mark.parametrize("lengths", [(1, 1, 2), (1, 2, 2), (3, 0.5, 1), (0.3, 1.7, 0.9)])
def test_shortlist_matches_exhaustive_enumeration(lengths, kcap):
    """The shortlisted first m modes are the exhaustive first m, floats included;
    L1 = L2 makes degenerate shells that several m cut through."""
    every_v, every_t = _exhaustive(lengths, kcap)
    # the stored spectra are the closed forms: 2 |kappa|^2 is the Stokes
    # energy of each normalized mode, and |kappa|^2 its own Python sum
    for md in every_v:
        assert abs(oracles.stokes_energy(lengths, md) - md.rayleigh) <= 1e-12 * md.rayleigh, md
    for md in every_t:
        assert abs(oracles.laplace_eigenvalue(lengths, md.k) - md.eigenvalue) <= 1e-14 * md.eigenvalue, md
    for m in (1, 4, 6, 12, 16, 24, 32, 64, 200):
        if m <= len(every_v):
            assert velocity_modes(lengths, kcap, m) == every_v[:m], m
        else:
            with pytest.raises(AliasingError, match=f"only {len(every_v)} are resolvable"):
                velocity_modes(lengths, kcap, m)
        if m <= len(every_t):
            assert temperature_modes(lengths, kcap, m) == every_t[:m], m
        else:
            with pytest.raises(AliasingError, match=f"only {len(every_t)} are resolvable"):
                temperature_modes(lengths, kcap, m)


def test_ordering_deterministic(grid):
    a = build_velocity_basis(grid, 12)
    b = build_velocity_basis(grid, 12)
    assert [md.k for md in a.modes] == [md.k for md in b.modes]
    assert np.array_equal(oracles.family_fields(a.factors)[0], oracles.family_fields(b.factors)[0])
    rq = [round(md.rayleigh, 9) for md in a.modes]
    assert rq == sorted(rq)


def test_mode_samples_match_formula_oracle(vb, grid):
    samples, grads = oracles.family_fields(vb.factors)
    for idx in (0, 3, vb.m - 1):
        vals, grad = oracles.velocity_mode_fields(vb.modes[idx], grid)
        assert np.max(np.abs(vals - samples[idx])) < 1e-12
        assert np.max(np.abs(grad - grads[idx])) < 1e-11


def test_temperature_constant_mode(tb, grid):
    md = tb.modes[0]
    assert md.k == (0, 0, 0)
    expected = 1.0 / np.sqrt(grid.spec.volume)
    assert np.max(np.abs(oracles.family_fields(tb.factors)[0][0, 0] - expected)) < 1e-14
    assert tb.eigenvalues[0] == 0.0


def test_temperature_orthonormal(tb, grid):
    mt = tb.m
    phi = oracles.family_fields(tb.factors)[0].reshape(mt, -1)
    gram = grid.cell_volume * phi @ phi.T
    assert np.max(np.abs(gram - np.eye(mt))) <= 1e-10


@pytest.fixture(scope="module")
def quadrature(grid, vb, tb):
    """The module forms by grid quadrature of the formula fields."""
    return oracles.forms_by_quadrature(vb.modes, tb.modes, grid, nu=1.0, gamma=1.0, kappa_heat=1.0)


def test_K_theta_is_diagonal_eigenvalues(quadrature, tb):
    # the heat operator the steppers read is diag(eigenvalues): quadrature
    # of grad phi_i . grad phi_j puts the closed-form box Neumann
    # eigenvalues on the diagonal and zeros off it
    expected = np.diag(tb.eigenvalues)
    assert np.max(np.abs(quadrature["K_theta"] - expected)) < 1e-10


def test_K_visc_diagonal_matches_closed_form_rayleigh(quadrature, vb):
    # modes are L2-normalized, so K_visc[i, i] = nu * int |D(psi_i)|^2
    # equals the closed-form Rayleigh quotient used for ordering
    diag = np.diag(quadrature["K_visc"])
    expected = np.array([md.rayleigh for md in vb.modes])
    assert np.array_equal(vb.rayleigh, expected)
    assert np.max(np.abs(diag - expected)) < 1e-9 * max(1.0, expected.max())


def test_K_visc_matches_quadrature_oracle(forms, vb, grid):
    # the viscous operator the steppers read, nu diag(rayleigh), against
    # the symmetric-gradient inner products of the formula fields
    K_visc = np.diag(forms.nu * vb.rayleigh)
    for i, j in [(0, 0), (0, 1), (2, 5)]:
        _, gi = oracles.velocity_mode_fields(vb.modes[i], grid)
        _, gj = oracles.velocity_mode_fields(vb.modes[j], grid)
        val = oracles.integrate(
            grid, np.sum(oracles.sym(gi) * oracles.sym(gj), axis=(0, 1))
        )
        assert abs(K_visc[i, j] - val) < 1e-9 * max(1.0, abs(val))


def test_matrices_symmetric_and_psd(forms):
    # friction is the one assembled m x m form; the others are diagonal spectra
    K = forms.K_fric
    assert np.array_equal(K, K.T)   # each Gram product is symmetric to the bit
    eig = np.linalg.eigvalsh(0.5 * (K + K.T))
    assert eig.min() > -1e-10


def test_korn_coercivity(forms, vb):
    eig = np.linalg.eigvalsh(np.diag(forms.nu * vb.rayleigh) + forms.K_fric)
    assert eig.min() > 0.0


def test_zero_gamma_kills_friction(grid, vb, tb):
    f0 = AssembledForms(grid, vb, tb, nu=1.0, gamma=0.0)
    assert np.max(np.abs(f0.K_fric)) == 0.0


@pytest.fixture(scope="module")
def transport(forms, quadrature):
    """(kernel T_vel, kernel T_th, oracle T_vel, oracle T_th) of the module forms."""
    return (*oracles.kernel_tensors(forms), quadrature["T_vel"], quadrature["T_th"])


def close_to(got, expected, tol=1e-12):
    return np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))


def test_transport_skew_symmetry(transport):
    # <w.grad psi_j, psi_l> is skew in (j, l) for any divergence-free w
    # with vanishing normal trace; exact at quadrature level here.
    T_vel, _, ref, _ = transport
    a = np.random.default_rng(5).standard_normal(T_vel.shape[0])
    S = np.einsum("i,ijl->jl", a, T_vel)
    assert close_to(S, np.einsum("i,ijl->jl", a, ref))
    scale = max(1.0, np.max(np.abs(S)))
    assert np.max(np.abs(S + S.T)) <= 1e-8 * scale


def test_temperature_advection_conserves_mean(transport):
    # constant temperature mode never receives advective input
    _, T_th, _, ref = transport
    assert close_to(T_th, ref)
    assert np.max(np.abs(T_th[:, :, 0])) <= 1e-12


def test_temperature_advection_skew(transport):
    _, T_th, _, ref = transport
    a = np.random.default_rng(6).standard_normal(T_th.shape[0])
    S = np.einsum("i,ijl->jl", a, T_th)
    assert close_to(S, np.einsum("i,ijl->jl", a, ref))
    scale = max(1.0, np.max(np.abs(S)))
    assert np.max(np.abs(S + S.T)) <= 1e-8 * scale


@pytest.fixture(scope="module")
def forms32(grid):
    return AssembledForms(grid, build_velocity_basis(grid, 32), build_temperature_basis(grid, 32), nu=1.0, gamma=1.0)


def test_transport_writes_into_out(forms32):
    # a step passes its stacked explicit vector as out: the two results are
    # views of it, with the bits of a call that allocates its own
    rng = np.random.default_rng(34)
    a, b, d = rng.standard_normal(32), rng.standard_normal(32), rng.standard_normal(32)
    buf = np.full(64, np.nan)
    conv, adv = forms32.transport(a, b, d, out=buf)
    assert conv.base is buf and adv.base is buf
    ref = forms32.transport(a, b, d)
    assert np.array_equal(buf, np.concatenate(ref))
    assert np.array_equal(conv, ref[0]) and np.array_equal(adv, ref[1])


def test_transport_tables_one_per_field_family(forms32):
    # psi_c, the weighted d_a psi_c, phi and the weighted d_a phi, each its
    # own contiguous table; no table of psi_c and d_a psi_c together
    P = forms32._theta_table.shape[1]
    tables = {name: getattr(forms32, name) for name in
              ("_w_table", "_grad_w_table", "_theta_table", "_grad_theta_table")}
    assert {name: t.shape for name, t in tables.items()} == {
        "_w_table": (32, 3 * P), "_grad_w_table": (32, 9 * P),
        "_theta_table": (32, P), "_grad_theta_table": (32, 3 * P),
    }
    assert all(t.flags.c_contiguous for t in tables.values())
    arrays = [v for v in vars(forms32).values() if isinstance(v, np.ndarray)]
    assert all(v.shape != (32, 12 * P) for v in arrays)


def test_dealias_guard():
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=4, N2=4, N3=4)
    small = build_domain(spec)
    assert dealias_cap(4) == 2
    vb = build_velocity_basis(small, 4)
    tb = build_temperature_basis(small, 4)
    # caps were respected, so assembly passes the aliasing check
    AssembledForms(small, vb, tb, nu=1.0, gamma=1.0)


def test_gram_deviation_stops_the_build(grid, monkeypatch):
    real = basis.velocity_modes

    def stretched(lengths, kcap, m):
        modes = real(lengths, kcap, m)
        modes[0] = dataclasses.replace(modes[0], coef=tuple(x * (1 + 1e-9) for x in modes[0].coef))
        return modes

    monkeypatch.setattr(basis, "velocity_modes", stretched)
    with pytest.raises(RuntimeError, match="Gram"):
        build_velocity_basis(grid, 8)


def test_nonzero_normal_trace_stops_the_build(grid, monkeypatch):
    # w.n = 0 on every face rests on exact zeros at the ends of each
    # component's own axis; one tiny nonzero end value of one mode, put in
    # through the factor rule, is refused
    real = basis.FactorTables.factor

    def leaky(tables, c, a, d=None, side=None):
        f = real(tables, c, a, d, side)
        if len(tables.sin_axes) == 3 and (c, a, side) == (2, 2, 1):  # the velocity family
            f = f.copy()
            f[3, 0] = 1e-300
        return f

    monkeypatch.setattr(basis.FactorTables, "factor", leaky)
    with pytest.raises(RuntimeError, match="normal trace"):
        build_velocity_basis(grid, 8)
    build_temperature_basis(grid, 8)  # the cosine family has no such check


@pytest.mark.parametrize("box, shape, m", [
    ((3.0, 0.5, 0.5), (16, 8, 16), 24),
    ((0.3, 1.7, 0.45), (12, 16, 20), 32),
    ((1.3, 0.8, 0.7), (12, 16, 20), 64),
])
def test_every_form_and_face_trace_matches_quadrature_oracle(box, shape, m):
    spec = DomainSpec(L1=box[0], L2=box[1], a=box[2], N1=shape[0], N2=shape[1], N3=shape[2])
    grid = build_domain(spec)
    vb, tb = build_velocity_basis(grid, m), build_temperature_basis(grid, m)
    if m == 64:
        # the temperature band exceeds the velocity band on axes 1 and 2, so
        # the transport grid needs the larger of the two bands on every axis
        assert vb.k_max == (4, 2, 4) and tb.k_max == (4, 3, 5)
    forms = AssembledForms(grid, vb, tb, nu=0.7, gamma=1.3)
    ref = oracles.forms_by_quadrature(vb.modes, tb.modes, grid, nu=0.7, gamma=1.3, kappa_heat=0.9)
    # the viscous, gradient and heat operators are the closed-form spectra
    # of the bases; only friction and transport are computed from the modes
    ours = dict(zip(("T_vel", "T_th"), oracles.kernel_tensors(forms)))
    ours.update(K_visc=np.diag(0.7 * vb.rayleigh), G_grad_w=np.diag(0.5 * vb.rayleigh),
                K_theta=np.diag(0.9 * tb.eigenvalues), K_fric=forms.K_fric)
    assert ours.keys() == ref.keys()
    for name, expected in ref.items():
        got = ours[name]
        assert got.shape == expected.shape, name
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), name

    # the boundary functional and the inflow coupling (the face projection
    # that GalerkinSolver.couplings applies to g) against the same quadrature
    # over the formula face traces, for arbitrary face data. The oracle
    # takes the full face gradient, arbitrary on the walls, where the
    # stresses of B and F_bdry cancel; on a cap d_3 delta_c = d_3 d_c phi is
    # 0 for the tangential c (the Neumann condition), so the cap stress
    # e3.D(delta).e_c is d_c delta_3, which the forms take as cap_grad
    rng = np.random.default_rng(sum(shape))
    faces, oracle_faces, cap_grad = [], [], []
    for p in grid.patches:
        plane = tuple(x.size for x in p.nodes)
        values, grad = rng.standard_normal((3, *plane)), rng.standard_normal((3, 3, *plane))
        if p.axis == 2:
            grad[[0, 1], 2] = 0.0
            cap_grad.append(grad[2, [0, 1]])
        faces.append(values)
        oracle_faces.append(SimpleNamespace(values=values, grad=grad))
    delta = DeltaEval(np.zeros((15, *grid.shape)), faces=faces)
    got = forms.boundary_functionals(delta, cap_grad)
    B, F_bdry = oracles.boundary_functionals_by_quadrature(vb.modes, grid, oracle_faces, nu=0.7, gamma=1.3)
    expected = B + F_bdry
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), "B + F_bdry"
    lo = grid.caps[0]
    cap_data = rng.standard_normal(tuple(x.size for x in lo.nodes))
    got = tb.factors.project_face(0, lo, cap_data)
    expected = np.array([lo.integrate(cap_data * oracles.temperature_mode_on_face(md, grid, lo)) for md in tb.modes])
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), "inflow"

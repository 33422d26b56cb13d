import itertools

import numpy as np

from ductflow import spectral
from ductflow.basis import build_temperature_basis, build_velocity_basis
from ductflow.domain import DomainSpec, build_domain
from ductflow.poisson import solve_neumann


def _grid(n=(8, 8, 8), L1=1.0, L2=2.0, a=1.5):
    spec = DomainSpec(L1=L1, L2=L2, a=a, N1=n[0], N2=n[1], N3=n[2])
    grid = build_domain(spec)
    return grid


def test_cosine_analysis_roundtrip_exact():
    grid = _grid()
    axes = grid.axes
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(grid.shape)
    coeffs = spectral.cos_analyze(vals, axes)
    back = spectral.synth(coeffs, axes, [(0, 0, 0)])[0]
    assert np.max(np.abs(back - vals)) < 1e-12


def test_single_mode_coefficients():
    grid = _grid()
    axes = grid.axes
    X1, X2, X3 = grid.meshgrid()
    sp = grid.spec
    f = 2.5 * (
        np.cos(2 * np.pi * X1 / sp.L1)
        * np.cos(3 * np.pi * X2 / sp.L2)
        * np.cos(1 * np.pi * (X3 + sp.a) / (2 * sp.a))
    )
    coeffs = spectral.cos_analyze(f, axes)
    expected = np.zeros(grid.shape)
    expected[2, 3, 1] = 2.5
    assert np.max(np.abs(coeffs - expected)) < 1e-12


def test_gradient_matches_analytic_mode():
    grid = _grid()
    axes = grid.axes
    sp = grid.spec
    X1, X2, X3 = grid.meshgrid()
    k1, k3 = 2, 3
    kap1 = k1 * np.pi / sp.L1
    kap3 = k3 * np.pi / (2 * sp.a)
    f = np.cos(kap1 * X1) * np.cos(kap3 * (X3 + sp.a))
    coeffs = spectral.cos_analyze(f, axes)
    d1, d3 = spectral.synth(coeffs, axes, [(1, 0, 0), (0, 0, 1)])
    ref = -kap1 * np.sin(kap1 * X1) * np.cos(kap3 * (X3 + sp.a))
    assert np.max(np.abs(d1 - ref)) < 1e-11
    ref3 = -kap3 * np.cos(kap1 * X1) * np.sin(kap3 * (X3 + sp.a))
    assert np.max(np.abs(d3 - ref3)) < 1e-11


def test_mixed_hessian_matches_analytic_mode():
    grid = _grid()
    axes = grid.axes
    sp = grid.spec
    X1, X2, X3 = grid.meshgrid()
    kap1 = 1 * np.pi / sp.L1
    kap2 = 2 * np.pi / sp.L2
    f = np.cos(kap1 * X1) * np.cos(kap2 * X2)
    coeffs = spectral.cos_analyze(f, axes)
    h01, h11 = spectral.synth(coeffs, axes, [(1, 1, 0), (0, 2, 0)])
    ref = kap1 * kap2 * np.sin(kap1 * X1) * np.sin(kap2 * X2)
    assert np.max(np.abs(h01 - ref)) < 1e-11
    assert np.max(np.abs(h11 + kap2**2 * f)) < 1e-10


def test_face_synthesis_matches_endpoint_values():
    grid = _grid()
    axes = grid.axes
    sp = grid.spec
    X1, X2, X3 = grid.meshgrid()
    kap3 = 2 * np.pi / (2 * sp.a)
    f = np.cos(kap3 * (X3 + sp.a)) * np.cos(np.pi * X1 / sp.L1)
    coeffs = spectral.cos_analyze(f, axes)
    hi = spectral.synth(coeffs, axes, [(0, 0, 0)], face=(2, 1))[0]
    # cos(2 pi) = 1 at the top cap
    ref = np.cos(np.pi * grid.x1 / sp.L1)[:, None] * np.ones((1, grid.shape[1]))
    assert np.max(np.abs(hi - ref)) < 1e-12
    # first derivatives are sines, which vanish identically on their own faces
    face = spectral.synth(coeffs, axes, [(0, 0, 1)], face=(2, 0))[0]
    assert np.max(np.abs(face)) == 0.0


def test_synthesis_matches_explicit_trig_sums_on_the_grid_and_every_face():
    # Random coefficients on a grid with three different axes, every triple
    # of per-axis derivative orders 0, 1, 2, on the grid and on all six
    # faces, against cos(k pi s), -kappa sin(k pi s) and -kappa^2 cos(k pi s)
    # evaluated explicitly at the nodes and at s = 0 and s = 1. On a face
    # whose own axis has order 1 (a sine) the synthesis must be exactly zero.
    spec = DomainSpec(L1=1.3, L2=0.8, a=0.7, N1=6, N2=10, N3=14)
    grid = build_domain(spec)
    axes = grid.axes
    coeffs = np.random.default_rng(11).standard_normal(grid.shape)
    nodes = [(x - o) / length
             for x, o, length in zip((grid.x1, grid.x2, grid.x3), spec.origins, spec.lengths)]

    def table(s, n, length, order):
        k = np.arange(n)
        kap = k * np.pi / length
        trig = np.sin if order == 1 else np.cos
        return (1.0, -kap, -kap**2)[order] * trig(np.pi * np.outer(s, k))

    def oracle(factors):
        return np.einsum("abc,xa,yb,zc->xyz", coeffs, *factors)

    all_orders = list(itertools.product((0, 1, 2), repeat=3))
    on_grid = spectral.synth(coeffs, axes, all_orders)
    on_face = {face: spectral.synth(coeffs, axes, all_orders, face=face)
               for face in itertools.product(range(3), (0, 1))}
    for i, orders in enumerate(all_orders):
        factors = [table(s, n, L, o) for s, n, L, o in zip(nodes, grid.shape, spec.lengths, orders)]
        ref = oracle(factors)
        got = on_grid[i]
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), orders
        for (axis, side), faces in on_face.items():
            ends = list(factors)
            ends[axis] = table([float(side)], grid.shape[axis], spec.lengths[axis], orders[axis])
            ref_face = np.squeeze(oracle(ends), axis=axis)
            got = faces[i]
            assert got.shape == ref_face.shape, (orders, axis, side)
            if orders[axis] == 1:
                assert np.all(got == 0.0), (orders, axis, side)
                assert np.max(np.abs(ref_face)) <= 1e-13 * np.max(np.abs(ref))
            else:
                scale = np.max(np.abs(ref_face))
                assert np.max(np.abs(got - ref_face)) <= 1e-13 * scale, (orders, axis, side)


def test_one_grid_builds_its_axis_tables_once(monkeypatch):
    # the velocity basis, the temperature basis and the Neumann solve on one
    # grid read the same AxisTransform objects, grid.axes, built once; a
    # second grid of the same size builds its own
    build, built = spectral.AxisTransform.build, []
    monkeypatch.setattr(spectral.AxisTransform, "build",
                        staticmethod(lambda n, length: built.append(n) or build(n, length)))
    grid = _grid()
    vb = build_velocity_basis(grid, 12)
    tb = build_temperature_basis(grid, 12)
    solve_neumann(np.cos(np.pi * grid.meshgrid()[0] / grid.spec.L1), grid)
    assert len(built) == 3
    axes = grid.axes  # the tables the three read, not built again
    assert len(built) == 3 and [ax.n for ax in axes] == list(grid.shape)
    # the factor rule gathers the velocity modes' factors from these rows:
    # along axis 1 a cosine for component 0 and a sine for component 1
    k1 = vb.modes[0].k[1]
    np.testing.assert_array_equal(vb.factors.factor(0, 1)[0], axes[1].rows[0, k1])
    np.testing.assert_array_equal(vb.factors.factor(1, 1)[0], axes[1].rows[1, k1])

    other = _grid()
    build_temperature_basis(other, 12)
    assert len(built) == 6
    assert all(a is not b for a, b in zip(other.axes, axes))


def test_axis_rows_extend_the_synthesis_tables():
    # moment tables and factors read cos and sin(j pi s), j <= 2n - 2, from
    # AxisTransform.rows, and the synthesis tables of orders 0, 1 and 2 and
    # the analysis table are its first n rows: the same numbers to the bit
    # (syn[1] times -1 / kappa would round, so the rows are multiplied).
    # Beyond n the rows alias on midpoint nodes, cos((2n - j) pi s) =
    # -cos(j pi s) and sin((2n - j) pi s) = sin(j pi s)
    for n in (1, 4, 7, 16):
        ax = spectral.AxisTransform.build(n, 1.3)
        assert ax.rows.shape == (2, 2 * n - 1, n)
        cos, sin = ax.rows[0, :n].T, ax.rows[1, :n].T
        np.testing.assert_array_equal(cos, np.cos(np.pi * np.outer((np.arange(n) + 0.5) / n, np.arange(n))))
        np.testing.assert_array_equal(ax.syn[0], cos)
        np.testing.assert_array_equal(ax.syn[1], -ax.kappa * sin)
        np.testing.assert_array_equal(ax.syn[2], -ax.kappa**2 * cos)
        np.testing.assert_array_equal(ax.cos_ana, cos.T * np.r_[1.0 / n, np.full(n - 1, 2.0 / n)][:, None])
        j = np.arange(n + 1, 2 * n - 1)
        np.testing.assert_allclose(ax.rows[0, j], -ax.rows[0, 2 * n - j], rtol=0, atol=1e-13)
        np.testing.assert_allclose(ax.rows[1, j], ax.rows[1, 2 * n - j], rtol=0, atol=1e-13)

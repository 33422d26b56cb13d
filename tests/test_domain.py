import numpy as np
import pytest

from ductflow.domain import DomainSpec, build_domain, dist_to_caps


def test_interior_weight_sum_is_volume_unit_box():
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=8, N2=8, N3=16)
    grid = build_domain(spec)
    total = grid.cell_volume * np.prod(grid.shape)
    assert abs(total - 2.0) <= 1e-12 * 2.0


def test_cap_weight_sum_is_cap_area():
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=8, N2=8, N3=16)
    grid = build_domain(spec)
    cap = grid.caps[1]
    total = cap.weight * cap.nodes[0].size * cap.nodes[1].size
    assert abs(total - 1.0) <= 1e-12


def test_volume_closed_form():
    spec = DomainSpec(L1=2.0, L2=3.0, a=0.5, N1=8, N2=8, N3=8)
    grid = build_domain(spec)
    assert abs(grid.integrate(np.ones(grid.shape)) - 6.0) <= 1e-12 * 6.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L1=-1.0, L2=1.0, a=1.0),
        dict(L1=1.0, L2=1.0, a=0.0),
        dict(L1=1.0, L2=1.0, a=1.0, N1=3),
        dict(L1=1.0, L2=1.0, a=1.0, N2=7),
        dict(L1=1.0, L2=1.0, a=1.0, N3=2),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        DomainSpec(**kwargs)


def test_patch_sums_match_areas():
    spec = DomainSpec(L1=2.0, L2=3.0, a=0.5, N1=8, N2=10, N3=12)
    patches = build_domain(spec).patches
    assert len(patches) == 6
    for p in patches:
        total = p.weight * p.nodes[0].size * p.nodes[1].size
        area = np.prod([spec.lengths[a] for a in p.plane_axes])
        assert abs(total - area) <= 1e-12 * area


def test_patches_in_axis_side_order_and_caps_last():
    grid = build_domain(DomainSpec(L1=1.0, L2=2.0, a=1.5, N1=8, N2=8, N3=8))
    assert [(p.axis, p.side) for p in grid.patches] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert [(p.axis, p.side) for p in grid.caps] == [(2, 0), (2, 1)]


def test_patch_frames_orthonormal():
    # a face's frame is the unit vectors of its axis (the normal, outward
    # at side 1, the high end) and of its two plane axes (the tangents),
    # orthonormal when the three axes are distinct; the caps' tangents are
    # e1 and e2, and e3 is a tangent of every wall
    spec = DomainSpec(L1=1.0, L2=2.0, a=1.5, N1=8, N2=8, N3=8)
    patches = build_domain(spec).patches
    for p in patches:
        assert sorted((p.axis, *p.plane_axes)) == [0, 1, 2] and p.plane_axes[0] < p.plane_axes[1]
        assert p.coord == spec.origins[p.axis] + p.side * spec.lengths[p.axis]
        assert p.axis == 2 or 2 in p.plane_axes
    lo, hi = patches[4:]
    assert (lo.side, hi.side) == (0, 1) and lo.coord == -spec.a and hi.coord == spec.a
    assert lo.plane_axes == (0, 1)


def test_patch_nodes_disjoint_and_exhaustive():
    # Midpoint face nodes carry face coordinates strictly inside the face,
    # so membership is unambiguous: check each node is interior to exactly
    # its own patch rectangle.
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0, N1=4, N2=4, N3=4)
    patches = build_domain(spec).patches
    seen = set()
    for p in patches:
        g1, g2 = p.meshgrid()
        for u, v in zip(g1.ravel(), g2.ravel()):
            key = (p.axis, p.side, round(u, 12), round(v, 12))
            assert key not in seen
            seen.add(key)
    counts = sum(p.nodes[0].size * p.nodes[1].size for p in patches)
    assert len(seen) == counts


def test_dist_to_caps_values():
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0)
    assert dist_to_caps(0.0, spec) == 1.0
    assert dist_to_caps(1.0, spec) == 0.0
    assert dist_to_caps(-0.75, spec) == 0.25


def test_dist_to_caps_rejects_out_of_range():
    spec = DomainSpec(L1=1.0, L2=1.0, a=1.0)
    with pytest.raises(ValueError):
        dist_to_caps(1.5, spec)


def test_quadrature_exact_on_trig_band():
    # Midpoint quadrature integrates cos(m pi s) exactly for 0 < m < 2N;
    # check representative tensor products against closed forms.
    spec = DomainSpec(L1=1.0, L2=2.0, a=1.0, N1=8, N2=8, N3=8)
    grid = build_domain(spec)
    X1, X2, X3 = grid.meshgrid()
    s1 = X1 / spec.L1
    s2 = X2 / spec.L2
    s3 = (X3 + spec.a) / (2 * spec.a)
    for m1, m2, m3 in [(3, 2, 5), (15, 0, 1), (0, 15, 15), (8, 8, 8)]:
        f = np.cos(m1 * np.pi * s1) * np.cos(m2 * np.pi * s2) * np.cos(m3 * np.pi * s3)
        exact = np.prod([1.0 if m == 0 else 0.0 for m in (m1, m2, m3)]) * grid.spec.volume
        assert abs(grid.integrate(f) - exact) <= 1e-12 * grid.spec.volume
    # squares: int cos^2 = |axis|/2 per active axis
    f = (np.cos(3 * np.pi * s1) * np.cos(7 * np.pi * s3)) ** 2
    assert abs(grid.integrate(f) - spec.volume / 4.0) <= 1e-12 * spec.volume

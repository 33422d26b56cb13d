"""Box-cylinder geometry, boundary decomposition and tensor quadrature.

The domain is the box (0, L1) x (0, L2) x (-a, a). The four faces parallel
to the x3 axis form the lateral boundary; the two faces x3 = -a and x3 = +a
are the end caps carrying the inflow and outflow. Every module downstream
integrates on the midpoint tensor grid built here: midpoint nodes keep all
quadrature points strictly inside faces (no node ever sits on an edge, a
cap, or a cutoff kink) and integrate trigonometric polynomials below the
grid band exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import AxisTransform


@dataclass(frozen=True)
class DomainSpec:
    """Box cylinder (0, L1) x (0, L2) x (-a, a) with per-axis node counts."""

    L1: float
    L2: float
    a: float
    N1: int = 16
    N2: int = 16
    N3: int = 32

    def __post_init__(self):
        for name in ("L1", "L2", "a"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("N1", "N2", "N3"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name} must be even and >= 4, got {n}")

    @property
    def volume(self) -> float:
        return self.L1 * self.L2 * 2.0 * self.a

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.L1, self.L2, 2.0 * self.a)

    @property
    def origins(self) -> tuple[float, float, float]:
        return (0.0, 0.0, -self.a)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.N1, self.N2, self.N3)


def dist_to_caps(x3, spec: DomainSpec):
    """Distance from x3 to the nearest end cap, min(a - x3, x3 + a).

    This is the weight that powers the weighted Lebesgue norms; it vanishes
    on the caps and peaks mid-cylinder.
    """
    x3 = np.asarray(x3, dtype=float)
    if np.any(x3 < -spec.a - 1e-14) or np.any(x3 > spec.a + 1e-14):
        raise ValueError("x3 outside [-a, a]")
    return np.minimum(spec.a - x3, x3 + spec.a)


@dataclass(frozen=True)
class BoundaryPatch:
    """One flat boundary face with its frame and midpoint quadrature.

    ``axis`` is the frozen coordinate (0, 1 or 2), ``side`` 0 for the low
    face and 1 for the high face: the outward normal is (2 side - 1) e_axis.
    ``plane_axes`` are the two in-face axes in ascending order, whose unit
    vectors are the face's tangents; ``nodes`` are the corresponding 1D
    midpoint node arrays and ``weight`` the constant per-node quadrature
    weight.
    """

    axis: int
    side: int
    plane_axes: tuple[int, int]
    nodes: tuple[np.ndarray, np.ndarray]
    weight: float
    coord: float

    def meshgrid(self):
        return np.meshgrid(self.nodes[0], self.nodes[1], indexing="ij")

    def integrate(self, values) -> float:
        return float(self.weight * np.sum(values))


def _axis_nodes(origin: float, length: float, n: int) -> np.ndarray:
    h = length / n
    return origin + (np.arange(n) + 0.5) * h


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint tensor grid over the box plus per-patch boundary grids."""

    spec: DomainSpec
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    cell_volume: float
    patches: tuple[BoundaryPatch, ...] = field(repr=False)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.x1.size, self.x2.size, self.x3.size)

    def meshgrid(self):
        return np.meshgrid(self.x1, self.x2, self.x3, indexing="ij")

    @cached_property
    def axes(self) -> tuple[AxisTransform, ...]:
        """The per-axis transforms of this grid, built on first use and kept
        as long as the grid object is."""
        return tuple(AxisTransform.build(n, L) for n, L in zip(self.shape, self.spec.lengths))

    def integrate(self, values) -> float:
        return float(self.cell_volume * np.sum(values))

    def cap_weight(self) -> np.ndarray:
        """dist_to_caps sampled on the x3 axis, shaped for broadcasting."""
        return dist_to_caps(self.x3, self.spec)[None, None, :]

    @property
    def caps(self) -> tuple[BoundaryPatch, BoundaryPatch]:
        """The lower and the upper cap, the faces of axis 2: the last two
        patches in build_domain's (axis, side) order."""
        return self.patches[4:]


def build_domain(spec: DomainSpec) -> QuadratureGrid:
    """Build the interior midpoint grid with its six boundary patches, in
    (axis, side) order: (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)."""
    lengths = spec.lengths
    origins = spec.origins
    ns = spec.shape
    nodes = [_axis_nodes(origins[i], lengths[i], ns[i]) for i in range(3)]
    cell_volume = np.prod([lengths[i] / ns[i] for i in range(3)])

    patches = []
    for axis, side in np.ndindex(3, 2):
        plane = tuple(i for i in range(3) if i != axis)
        hs = [lengths[i] / ns[i] for i in plane]
        patches.append(
            BoundaryPatch(
                axis=axis,
                side=side,
                plane_axes=plane,
                nodes=(nodes[plane[0]], nodes[plane[1]]),
                weight=hs[0] * hs[1],
                coord=origins[axis] + side * lengths[axis],
            )
        )

    return QuadratureGrid(
        spec=spec,
        x1=nodes[0],
        x2=nodes[1],
        x3=nodes[2],
        cell_volume=float(cell_volume),
        patches=tuple(patches),
    )

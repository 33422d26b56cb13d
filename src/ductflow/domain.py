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
from enum import Enum

import numpy as np


class PatchKind(Enum):
    LATERAL_X1_LO = "lateral-x1-lo"
    LATERAL_X1_HI = "lateral-x1-hi"
    LATERAL_X2_LO = "lateral-x2-lo"
    LATERAL_X2_HI = "lateral-x2-hi"
    CAP_LO = "cap-lo"
    CAP_HI = "cap-hi"

    @property
    def is_cap(self) -> bool:
        return self in (PatchKind.CAP_LO, PatchKind.CAP_HI)


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
    face and 1 for the high face. ``plane_axes`` are the two in-face axes in
    ascending order; ``nodes`` are the corresponding 1D midpoint node arrays
    and ``weight`` the constant per-node quadrature weight.
    """

    kind: PatchKind
    axis: int
    side: int
    normal: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    plane_axes: tuple[int, int]
    nodes: tuple[np.ndarray, np.ndarray]
    weight: float
    area: float
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

    def integrate(self, values) -> float:
        return float(self.cell_volume * np.sum(values))

    def cap_weight(self) -> np.ndarray:
        """dist_to_caps sampled on the x3 axis, shaped for broadcasting."""
        return dist_to_caps(self.x3, self.spec)[None, None, :]

    def patch(self, kind: PatchKind) -> BoundaryPatch:
        for p in self.patches:
            if p.kind == kind:
                return p
        raise KeyError(kind)


_E = np.eye(3)

# (kind, axis, side, normal, tau1, tau2); cap tangents are e1, e2 and the
# lateral frame keeps tau2 = e3 so the vertical direction is always tangent
# to the side walls.
_PATCH_TABLE = (
    (PatchKind.LATERAL_X1_LO, 0, 0, -_E[0], _E[1], _E[2]),
    (PatchKind.LATERAL_X1_HI, 0, 1, +_E[0], _E[1], _E[2]),
    (PatchKind.LATERAL_X2_LO, 1, 0, -_E[1], _E[0], _E[2]),
    (PatchKind.LATERAL_X2_HI, 1, 1, +_E[1], _E[0], _E[2]),
    (PatchKind.CAP_LO, 2, 0, -_E[2], _E[0], _E[1]),
    (PatchKind.CAP_HI, 2, 1, +_E[2], _E[0], _E[1]),
)


def build_domain(spec: DomainSpec) -> tuple[list[BoundaryPatch], QuadratureGrid]:
    """Build the six boundary patches and the interior midpoint grid."""
    lengths = spec.lengths
    origins = spec.origins
    ns = spec.shape
    nodes = [_axis_nodes(origins[i], lengths[i], ns[i]) for i in range(3)]
    cell_volume = np.prod([lengths[i] / ns[i] for i in range(3)])

    patches = []
    for kind, axis, side, nrm, t1, t2 in _PATCH_TABLE:
        plane = tuple(i for i in range(3) if i != axis)
        hs = [lengths[i] / ns[i] for i in plane]
        area = lengths[plane[0]] * lengths[plane[1]]
        coord = origins[axis] + side * lengths[axis]
        patches.append(
            BoundaryPatch(
                kind=kind,
                axis=axis,
                side=side,
                normal=nrm.copy(),
                tau1=t1.copy(),
                tau2=t2.copy(),
                plane_axes=plane,
                nodes=(nodes[plane[0]], nodes[plane[1]]),
                weight=hs[0] * hs[1],
                area=area,
                coord=coord,
            )
        )

    grid = QuadratureGrid(
        spec=spec,
        x1=nodes[0],
        x2=nodes[1],
        x3=nodes[2],
        cell_volume=float(cell_volume),
        patches=tuple(patches),
    )
    return patches, grid

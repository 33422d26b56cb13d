"""Norm families over sampled fields.

Families
--------
LP(p)                  plain Lebesgue norm; p = inf is the grid maximum
SOBOLEV(k, p)          (sum_{|alpha| <= k} int |D^a u|^p)^(1/p)
WEIGHTED_LP(p, mu)     (int |u|^p eta^(p mu))^(1/p), eta = distance to caps
WEIGHTED_LPK(k, p, mu) same weight, derivatives of order exactly k

Conventions: vector LP norms use the pointwise Euclidean magnitude; Sobolev
style families sum over components and distinct multi-indices. Derivatives
are never taken here; they must be attached to the field by its producer.
Time norms are not here: the audit builds its V-norms from sampled series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .domain import QuadratureGrid
from .errors import MissingDerivativeError
from .fields import ScalarField, VectorField

INF = math.inf


class Family(Enum):
    LP = "lp"
    SOBOLEV = "sobolev"
    WEIGHTED_LP = "weighted-lp"
    WEIGHTED_LPK = "weighted-lpk"


@dataclass(frozen=True)
class NormSpec:
    family: Family
    p: float = 2.0
    k: int = 0
    mu: float = 0.5

    def __post_init__(self):
        if not (self.p >= 1):
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        if self.family in (Family.WEIGHTED_LP, Family.WEIGHTED_LPK):
            if not (0.0 < self.mu < 1.0):
                raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if self.k < 0 or self.k > 2:
            raise ValueError("derivative order k must be 0, 1 or 2")


def _derivative_stack(field, order: int) -> list[np.ndarray]:
    """All distinct multi-index derivatives of the given exact order."""
    if isinstance(field, ScalarField):
        if order == 0:
            return [field.values]
        if order == 1:
            return list(field.require_grad())
        hess = field.require_hess()
        return [hess[i, j] for i in range(3) for j in range(i, 3)]
    if isinstance(field, VectorField):
        if order == 0:
            return list(field.values)
        if order == 1:
            g = field.require_grad()
            return [g[c, d] for c in range(3) for d in range(3)]
        raise MissingDerivativeError("second derivatives of vector fields are not attached")
    raise TypeError(f"unsupported field type {type(field)!r}")


def _stack_through(field, k: int) -> list[np.ndarray]:
    out = []
    for order in range(k + 1):
        out.extend(_derivative_stack(field, order))
    return out


def _lp_arrays(arrays, grid: QuadratureGrid, p: float, weight=None) -> float:
    if p == INF:
        m = max(float(np.max(np.abs(a))) for a in arrays)
        return m
    acc = 0.0
    for a in arrays:
        integrand = np.abs(a) ** p
        if weight is not None:
            integrand = integrand * weight
        acc += grid.integrate(integrand)
    return acc ** (1.0 / p)


def _magnitude(field) -> np.ndarray:
    if isinstance(field, VectorField):
        return field.magnitude()
    return np.abs(field.values)


def norm(field: Union[ScalarField, VectorField], spec: NormSpec) -> float:
    """Evaluate the requested norm of a sampled field."""
    grid = field.grid

    if spec.family == Family.LP:
        return _lp_arrays([_magnitude(field)], grid, spec.p)

    if spec.family == Family.SOBOLEV:
        return _lp_arrays(_stack_through(field, spec.k), grid, spec.p)

    if spec.family == Family.WEIGHTED_LP:
        w = grid.cap_weight() ** (spec.p * spec.mu) if spec.p != INF else None
        if spec.p == INF:
            raise ValueError("weighted norms are defined for finite p")
        return _lp_arrays([_magnitude(field)], grid, spec.p, weight=w)

    if spec.family == Family.WEIGHTED_LPK:
        if spec.p == INF:
            raise ValueError("weighted norms are defined for finite p")
        w = grid.cap_weight() ** (spec.p * spec.mu)
        return _lp_arrays(_derivative_stack(field, spec.k), grid, spec.p, weight=w)

    raise ValueError(f"unhandled family {spec.family}")

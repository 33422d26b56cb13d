"""Sampled scalar and vector fields.

Fields carry nodal values on a quadrature grid plus, optionally, sampled
derivatives. Producers attach derivatives however they can compute them
best (spectrally for band-limited fields, analytically for the boundary
extension); the norm routines only consume what is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import QuadratureGrid
from .errors import MissingDerivativeError
from . import spectral


def _check_finite(arr: np.ndarray, what: str):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


@dataclass
class ScalarField:
    """Scalar samples with optional gradient grad[d] and Hessian hess[i][j]."""

    values: np.ndarray
    grid: QuadratureGrid
    grad: Optional[np.ndarray] = None      # shape (3, N1, N2, N3)
    hess: Optional[np.ndarray] = None      # shape (3, 3, N1, N2, N3)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        _check_finite(self.values, "scalar field")

    def require_grad(self) -> np.ndarray:
        if self.grad is None:
            raise MissingDerivativeError("field has no attached gradient")
        return self.grad

    def require_hess(self) -> np.ndarray:
        if self.hess is None:
            raise MissingDerivativeError("field has no attached Hessian")
        return self.hess


@dataclass
class VectorField:
    """Vector samples values[c] with optional gradient grad[c][d] = d_d u_c."""

    values: np.ndarray
    grid: QuadratureGrid
    grad: Optional[np.ndarray] = None      # shape (3, 3, N1, N2, N3)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (3, *self.grid.shape):
            raise ValueError(
                f"values shape {self.values.shape} != (3, *grid shape)"
            )
        _check_finite(self.values, "vector field")

    def require_grad(self) -> np.ndarray:
        if self.grad is None:
            raise MissingDerivativeError("field has no attached gradient")
        return self.grad

    def magnitude(self) -> np.ndarray:
        return np.sqrt(np.sum(self.values**2, axis=0))


def scalar_from_samples(values, grid, with_derivatives=True) -> ScalarField:
    """Wrap nodal samples; derivatives come from the cosine interpolant.

    Appropriate for fields that are well represented in the Neumann-natural
    cosine family (initial temperatures, manufactured test data). Fields
    with known analytic derivatives should attach those instead.
    """
    values = np.asarray(values, dtype=float)
    if not with_derivatives:
        return ScalarField(values=values, grid=grid)
    axes = spectral.axes_for(grid)
    coeffs = spectral.cos_analyze(values, axes)
    grad = np.empty((3, *grid.shape))
    for d in range(3):
        gc, par = spectral.grad_coeffs(coeffs, axes, d)
        grad[d] = spectral.synth(gc, axes, par)
    hess = np.empty((3, 3, *grid.shape))
    for i in range(3):
        for j in range(i, 3):
            hc, par = spectral.hess_coeffs(coeffs, axes, i, j)
            hess[i, j] = spectral.synth(hc, axes, par)
            hess[j, i] = hess[i, j]
    return ScalarField(values=values, grid=grid, grad=grad, hess=hess)

"""Neumann correction potential and the weighted elliptic certificates.

solve_neumann inverts the Laplacian with homogeneous Neumann data in the
all-cosine tensor family, which satisfies the boundary condition on every
face identically. The data is the cosine interpolant of the nodal samples
of -div b, so the discrete divergence of the corrected field delta = b +
grad(phi) vanishes at every quadrature node; that is the computable sense
in which delta is divergence free. phi comes back as a ScalarField with its
spectral gradient and Hessian attached, delta as a VectorField with its
gradient.

certify_weighted_hessian and certify_layer_bound turn the weighted estimates for
this problem into empirical constants: both sides of each inequality are
evaluated and the ratio is reported, never assumed. Both measure in the one
weighted norm of the audit, weighted_norm: (sum_a int |a|^p sigma^(p mu))^(1/p)
over a list of arrays, sigma the distance to the caps; for D^2 phi the list
is the six distinct second derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .domain import QuadratureGrid
from .errors import SolvabilityError
from .hopf import ExtensionB, FluxProfile, HopfParams, flux_norms


def _nodal(values, shape: tuple, what: str) -> np.ndarray:
    """Samples as a float array of the given shape, all finite (else ValueError)."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite values")
    return values


@dataclass
class ScalarField:
    """Scalar samples with gradient grad[d] and Hessian hess[i, j]."""

    values: np.ndarray
    grid: QuadratureGrid
    grad: np.ndarray      # shape (3, N1, N2, N3)
    hess: np.ndarray      # shape (3, 3, N1, N2, N3)

    def __post_init__(self):
        self.values = _nodal(self.values, self.grid.shape, "scalar field")


@dataclass
class VectorField:
    """Vector samples values[c] with gradient grad[c, d] = d_d u_c."""

    values: np.ndarray
    grid: QuadratureGrid
    grad: np.ndarray      # shape (3, 3, N1, N2, N3)

    def __post_init__(self):
        self.values = _nodal(self.values, (3, *self.grid.shape), "vector field")

    def require_grad(self) -> np.ndarray:
        return self.grad


def weighted_norm(arrays, grid: QuadratureGrid, p: float, mu: float) -> float:
    """(sum_a int |a|^p sigma^(p mu))^(1/p), sigma the distance to the caps."""
    if not (0.0 < mu < 1.0):
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    weight = grid.cap_weight() ** (p * mu)
    acc = 0.0
    for a in arrays:
        acc += grid.integrate(np.abs(a) ** p * weight)
    return acc ** (1.0 / p)


@dataclass
class NeumannSolution:
    """Zero-mean potential with spectral gradient and Hessian.

    ``residual`` is the grid L2 norm of Delta(phi) + data (zero up to
    roundoff by construction); ``spectral_tail`` is the fraction of data
    energy in the top third of the cosine spectrum, a cheap resolution
    indicator for the non-band-limited layer data.
    """

    phi: ScalarField
    coeffs: np.ndarray
    residual: float
    spectral_tail: float


def solve_neumann(div_b, grid: QuadratureGrid) -> NeumannSolution:
    """Solve Delta(phi) = -div_b, n.grad(phi) = 0 on S, zero mean.

    ``div_b`` is a nodal array. Raises SolvabilityError when the volume
    integral of the data exceeds 1e-10 of its size.
    """
    values = _nodal(div_b, grid.shape, "Neumann data")

    mean = grid.integrate(values)
    scale = math.sqrt(grid.integrate(values * values)) * math.sqrt(grid.spec.volume)
    if abs(mean) > 1e-10 * max(scale, 1e-300):
        raise SolvabilityError(
            f"Neumann data has nonzero mean {mean:.3e} (tolerance "
            "1.0e-10 relative); the problem is not solvable"
        )

    axes = spectral.axes_for(grid)
    data_hat = spectral.cos_analyze(values, axes)
    lam = spectral.neumann_eigenvalues(axes)
    phi_hat = np.zeros_like(data_hat)
    mask = lam > 0
    phi_hat[mask] = data_hat[mask] / lam[mask]

    phi_vals = spectral.synth(phi_hat, axes, (spectral.COS,) * 3)
    grad = np.empty((3, *grid.shape))
    for d in range(3):
        gc, par = spectral.grad_coeffs(phi_hat, axes, d)
        grad[d] = spectral.synth(gc, axes, par)
    hess = np.empty((3, 3, *grid.shape))
    for i in range(3):
        for j in range(i, 3):
            hc, par = spectral.hess_coeffs(phi_hat, axes, i, j)
            hess[i, j] = spectral.synth(hc, axes, par)
            hess[j, i] = hess[i, j]

    lap = hess[0, 0] + hess[1, 1] + hess[2, 2]
    residual = math.sqrt(grid.integrate((lap + values) ** 2))

    energy = np.sum(data_hat**2)
    if energy > 0:
        n1, n2, n3 = grid.shape
        tail = data_hat.copy()
        tail[: 2 * n1 // 3, : 2 * n2 // 3, : 2 * n3 // 3] = 0.0
        spectral_tail = float(np.sum(tail**2) / energy)
    else:
        spectral_tail = 0.0

    phi = ScalarField(values=phi_vals, grid=grid, grad=grad, hess=hess)
    return NeumannSolution(
        phi=phi, coeffs=phi_hat, residual=residual, spectral_tail=spectral_tail
    )


def hess_on_face(solution: NeumannSolution, grid: QuadratureGrid, patch) -> np.ndarray:
    """Hessian of phi sampled on a boundary patch (for the stress terms)."""
    axes = spectral.axes_for(grid)
    n1, n2 = (patch.nodes[0].size, patch.nodes[1].size)
    out = np.empty((3, 3, n1, n2))
    for i in range(3):
        for j in range(i, 3):
            hc, par = spectral.hess_coeffs(solution.coeffs, axes, i, j)
            out[i, j] = spectral.synth_on_face(hc, axes, par, patch.axis, patch.side)
            out[j, i] = out[i, j]
    return out


def grad_on_face(solution: NeumannSolution, grid: QuadratureGrid, patch) -> np.ndarray:
    axes = spectral.axes_for(grid)
    n1, n2 = (patch.nodes[0].size, patch.nodes[1].size)
    out = np.empty((3, n1, n2))
    for d in range(3):
        gc, par = spectral.grad_coeffs(solution.coeffs, axes, d)
        out[d] = spectral.synth_on_face(gc, axes, par, patch.axis, patch.side)
    return out


def delta_field(ext: ExtensionB, solution: NeumannSolution, grid: QuadratureGrid) -> VectorField:
    """delta = b + grad(phi) with gradient grad[c, d] = d_d delta_c.

    b = alpha e3, so alpha and grad(alpha) add into row 2.
    """
    vals = solution.phi.grad.copy()
    vals[2] += ext.alpha
    grad = solution.phi.hess.copy()
    grad[2] += ext.grad_alpha
    return VectorField(values=vals, grid=grid, grad=grad)


# ---------------------------------------------------------------------------
# Certificates


def certify_weighted_hessian(div_b, solution: NeumannSolution, p: float, mu: float) -> float:
    """Ratio of weighted Hessian norm to weighted data norm.

    The weighted elliptic estimate asserts this ratio is bounded by a
    constant; the audit records the empirical value and checks refinement
    stability, never a specific number.
    """
    if p < 2:
        raise ValueError(f"the estimate requires p >= 2, got {p}")
    if not (0.0 < mu < 1.0):
        raise ValueError(f"the estimate requires mu in (0, 1), got {mu}")
    grid = solution.phi.grid
    data = _nodal(div_b, grid.shape, "div b")
    denom = weighted_norm([data], grid, p, mu)
    if denom == 0.0:
        raise ValueError("weighted norm of div b vanishes; ratio undefined")
    hess = solution.phi.hess
    numer = weighted_norm([hess[i, j] for i in range(3) for j in range(i, 3)], grid, p, mu)
    return numer / denom


def layer_factor(params: HopfParams, mu: float) -> float:
    """Closed form of the x3 layer integral eps^3 int_r^rho s^(3mu-3) ds."""
    e3 = params.eps**3
    expo = 3.0 * mu - 2.0
    return e3 * (params.rho**expo - params.r**expo) / expo


def certify_layer_bound(
    profile: FluxProfile,
    params: HopfParams,
    ext: ExtensionB,
    grid: QuadratureGrid,
    mu: float,
) -> tuple[float, float]:
    """Left and right sides of the weighted layer bound on div b.

    lhs: the weighted L_{3,mu} norm of div b by grid quadrature.
    rhs: eps rho^(mu - 2/3) sum_i sup_x3 |d~_i|_{3, cap} plus
         rho^(mu + 1/3) sum_i sup_x3 |d~_{i,x3}|_{3, cap}, with unit
         structural constants. The second sum vanishes identically for the
         constant-in-x3 extension used here.

    mu must exceed 2/3: at mu = 2/3 the layer integral of
    sigma^(3 mu - 3) diverges at the inner radius, so the bound is void.
    """
    if mu <= 2.0 / 3.0:
        raise ValueError(
            f"mu = {mu} rejected: the estimate needs mu > 2/3, since at "
            "mu = 2/3 the layer integral of sigma^(3 mu - 3) is not finite"
        )
    lhs = weighted_norm([_nodal(ext.div_b, grid.shape, "div b")], grid, 3, mu)
    fn = flux_norms(profile, grid, 0.0)
    rhs = params.eps * params.rho ** (mu - 2.0 / 3.0) * sum(fn.l3_cap)
    # constant-in-x3 extension: d~_{i,x3} = 0, second structural term is zero
    return lhs, rhs

"""Neumann correction potential and the weighted elliptic certificates.

solve_neumann inverts the Laplacian with homogeneous Neumann data in the
all-cosine tensor family, which satisfies the boundary condition on every
face identically. The data is the cosine interpolant of the nodal samples
of -div b, so the discrete divergence of the corrected field delta = b +
grad(phi) vanishes at every quadrature node; that is the computable sense
in which delta is divergence free. The solution carries phi's cosine
coefficients and, from one synthesis, the stack of its nine distinct
derivatives on the grid: the gradient, then the six Hessian entries (i, j),
i <= j; phi's own nodal values are never needed. delta_field assembles
delta, its gradient and delta . grad(delta) on the grid, in one stack of 15
fields, from the samples of b that build_b made and that stack, and on each
face delta's values from one synthesis of grad(phi). There d_n phi and
d_n d_tau phi are exact zeros (the Neumann condition), so the cap stress
d_3 delta_c + d_c delta_3 is d_c alpha, the in-cap gradient of the cap
shape g, which the forms read of g itself: no gradient of delta is made on
a face. The result is the forms' DeltaEval.

certify_weighted_hessian and certify_layer_bound turn the weighted estimates for
this problem into empirical constants: both sides of each inequality are
evaluated and the ratio is reported, never assumed. Both measure in the one
weighted norm of the audit, weighted_norm: (sum_a int |a|^p sigma^(p mu))^(1/p)
over a list of arrays, sigma the distance to the caps; for D^2 phi the list
is the six distinct second derivatives. The weighted norm of div b, the
layer bound's left side, is the Hessian ratio's denominator too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .basis import DeltaEval
from .domain import QuadratureGrid
from .errors import SolvabilityError
from .hopf import ExtensionB, FluxNorms, HopfParams


def _nodal(values, shape: tuple, what: str) -> np.ndarray:
    """Samples as a float array of the given shape, all finite (else ValueError)."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValueError(f"{what} shape {values.shape} != {shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} contains non-finite values")
    return values


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
    """Zero-mean potential phi by its spectral derivatives on the grid.

    ``derivs`` holds each distinct first and second derivative once, in the
    order of _ORDERS: d_0 phi, d_1 phi, d_2 phi, then d_i d_j phi for the
    pairs (i, j), i <= j, of _PAIRS. ``residual`` is the grid L2 norm of
    Delta(phi) + data (zero up to roundoff by construction);
    ``spectral_tail`` is the fraction of data energy in the top third of the
    cosine spectrum, a cheap resolution indicator for the non-band-limited
    layer data. ``coeffs`` live in the per-axis transforms of the grid,
    ``grid.axes``.
    """

    grid: QuadratureGrid
    derivs: np.ndarray    # shape (9, N1, N2, N3)
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

    axes = grid.axes
    data_hat = spectral.cos_analyze(values, axes)
    lam = spectral.neumann_eigenvalues(axes)
    phi_hat = np.zeros_like(data_hat)
    mask = lam > 0
    phi_hat[mask] = data_hat[mask] / lam[mask]

    derivs = spectral.synth(phi_hat, axes, _ORDERS)

    lap = derivs[3] + derivs[6] + derivs[8]   # d_0 d_0, d_1 d_1, d_2 d_2
    residual = math.sqrt(grid.integrate((lap + values) ** 2))

    energy = np.sum(data_hat**2)
    if energy > 0:
        n1, n2, n3 = grid.shape
        tail = data_hat.copy()
        tail[: 2 * n1 // 3, : 2 * n2 // 3, : 2 * n3 // 3] = 0.0
        spectral_tail = float(np.sum(tail**2) / energy)
    else:
        spectral_tail = 0.0

    return NeumannSolution(grid, derivs, phi_hat, residual, spectral_tail)


# the nine distinct derivatives of phi as per-axis derivative orders: the
# gradient along d = 0, 1, 2, then the Hessian entries (i, j), i <= j
_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]
_ORDERS = [tuple(dirs.count(a) for a in range(3)) for dirs in [(0,), (1,), (2,), *_PAIRS]]
# the row of d_i d_j phi in that stack, for every (i, j)
_HESS_ROWS = np.array([[3, 4, 5], [4, 6, 7], [5, 7, 8]])


def delta_field(ext: ExtensionB, solution: NeumannSolution, grid: QuadratureGrid) -> DeltaEval:
    """delta = b + grad(phi) with gradient grad[c, d] = d_d delta_c and
    delta . grad(delta) in one stack on the grid, and on every boundary
    patch its values, [comp, f1, f2]."""
    delta = DeltaEval(np.empty((15, *grid.shape)), faces=[])
    values, grad = delta.values, delta.grad
    # b = alpha e3: alpha and grad(alpha) add into row 2
    values[...] = solution.derivs[:3]
    values[2] += ext.alpha
    # mode clip takes no buffered copy of out, which mode raise does
    np.take(solution.derivs, _HESS_ROWS, axis=0, out=grad, mode="clip")
    grad[2] += ext.grad_alpha
    _nodal(values, (3, *grid.shape), "lifting")
    np.einsum("ag,cag->cg", values.reshape(3, -1), grad.reshape(3, 3, -1), out=delta.advection.reshape(3, -1))
    for patch, alpha in zip(grid.patches, ext.faces):
        face = spectral.synth(solution.coeffs, grid.axes, _ORDERS[:3], (patch.axis, patch.side))
        face[2] += alpha
        delta.faces.append(face)
    return delta


# ---------------------------------------------------------------------------
# Certificates


def certify_weighted_hessian(data_norm: float, solution: NeumannSolution, p: float, mu: float) -> float:
    """Ratio of weighted Hessian norm to data_norm, the weighted data norm
    weighted_norm([div b], grid, p, mu).

    The weighted elliptic estimate asserts this ratio is bounded by a
    constant; the audit records the empirical value on the run's grid and
    asserts only that it is finite, never a specific number.
    """
    if p < 2:
        raise ValueError(f"the estimate requires p >= 2, got {p}")
    if not (0.0 < mu < 1.0):
        raise ValueError(f"the estimate requires mu in (0, 1), got {mu}")
    if data_norm == 0.0:
        raise ValueError("weighted norm of div b vanishes; ratio undefined")
    numer = weighted_norm(solution.derivs[3:], solution.grid, p, mu)
    return numer / data_norm


def certify_layer_bound(
    cap: FluxNorms,
    params: HopfParams,
    ext: ExtensionB,
    grid: QuadratureGrid,
    mu: float,
) -> tuple[float, float]:
    """Left and right sides of the weighted layer bound on div b.

    ext is the lifting of the cap shape g (hopf.build_b) and cap holds the
    cap norms of g, so both sides are read of g alone: the bound at time t
    is |s(t)| times this one.

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
    rhs = params.eps * params.rho ** (mu - 2.0 / 3.0) * sum(cap.l3_cap)
    # constant-in-x3 extension: d~_{i,x3} = 0, second structural term is zero
    return lhs, rhs

"""Half-range trigonometric transforms on midpoint grids.

Scalar fields with natural Neumann behaviour are expanded per axis in
cos(k*pi*s), s in (0, 1) the normalized coordinate; derivatives live in the
matching sine family. On N midpoint nodes the discrete cosine family
{cos(k*pi*s_j), k = 0..N-1} is an exact interpolation basis, and midpoint
sums integrate cos(m*pi*s) exactly for all 0 < m <= 2N - 1, which is what
makes Gram and stiffness integrals of band-limited fields exact.

Transforms are realized as small dense per-axis matrices; at desk-scale
resolutions this is faster to reason about than library DCT scaling
conventions and costs nothing. On the grid each axis is one plain
contraction. On a boundary face synth contracts the face axis first, with
the end values of its family, so a face costs a face and not a cube; a sine
family vanishes at both ends and gives exact zeros without any synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import QuadratureGrid

COS, SIN = "cos", "sin"


@dataclass(frozen=True)
class AxisTransform:
    """Synthesis/analysis matrices for one axis of a midpoint grid."""

    n: int
    cos_syn: np.ndarray   # [node, k] = cos(k pi s_j)
    sin_syn: np.ndarray   # [node, k] = sin(k pi s_j); column 0 is zero
    cos_ana: np.ndarray   # exact inverse of cos_syn
    kappa: np.ndarray     # k pi / length
    cos_at_lo: np.ndarray  # cos(k pi s) at s = 0
    cos_at_hi: np.ndarray  # cos(k pi s) at s = 1

    @classmethod
    def build(cls, n: int, length: float) -> "AxisTransform":
        s = (np.arange(n) + 0.5) / n
        k = np.arange(n)
        cos_syn = np.cos(np.pi * np.outer(s, k))
        sin_syn = np.sin(np.pi * np.outer(s, k))
        # Discrete orthogonality: sum_j cos(k pi s_j) cos(k' pi s_j)
        # equals n for k = k' = 0 and n/2 for k = k' >= 1.
        scale = np.full(n, 2.0 / n)
        scale[0] = 1.0 / n
        cos_ana = (cos_syn * scale[None, :]).T
        return cls(
            n=n,
            cos_syn=cos_syn,
            sin_syn=sin_syn,
            cos_ana=cos_ana,
            kappa=k * np.pi / length,
            cos_at_lo=np.ones(n),
            cos_at_hi=np.cos(np.pi * k),
        )


def axes_for(grid: QuadratureGrid) -> tuple[AxisTransform, ...]:
    lengths = grid.spec.lengths
    return tuple(
        AxisTransform.build(grid.shape[i], lengths[i]) for i in range(3)
    )


def _on_grid(m0: np.ndarray, m1: np.ndarray, m2: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Contract the three axes of arr with m0, m1, m2 (each [out, in])."""
    out = np.matmul(m1, arr @ m2.T)
    return (m0 @ out.reshape(out.shape[0], -1)).reshape(m0.shape[0], *out.shape[1:])


def cos_analyze(values: np.ndarray, axes: tuple[AxisTransform, ...]) -> np.ndarray:
    """Cosine interpolation coefficients of nodal values (exact inverse)."""
    return _on_grid(*(ax.cos_ana for ax in axes), values)


def synth(coeffs: np.ndarray, axes: tuple[AxisTransform, ...], parities, face=None) -> np.ndarray:
    """Evaluate a coefficient array with the given per-axis parities.

    On the grid, or with face = (axis, side) on that boundary face, over the
    two in-plane axes. There the face axis is contracted first, with the end
    values of its cosine family, and the in-plane matrices act on that plane;
    sine parity on the face axis gives exact zeros (sines vanish at both ends).
    """
    mats = [ax.cos_syn if par == COS else ax.sin_syn for ax, par in zip(axes, parities)]
    if face is None:
        return _on_grid(*mats, coeffs)
    axis, side = face
    m_a, m_b = (mats[i] for i in range(3) if i != axis)
    if parities[axis] == SIN:
        return np.zeros((m_a.shape[0], m_b.shape[0]))
    ax = axes[axis]
    plane = np.tensordot(coeffs, ax.cos_at_hi if side == 1 else ax.cos_at_lo, axes=([axis], [0]))
    return m_a @ plane @ m_b.T


def grad_coeffs(coeffs: np.ndarray, axes, axis: int) -> tuple[np.ndarray, tuple]:
    """Differentiate an all-cosine coefficient array along one axis.

    Returns the new coefficients and the parity triple of the result
    (sine along `axis`, cosine elsewhere).
    """
    kap = axes[axis].kappa
    shape = [1, 1, 1]
    shape[axis] = kap.size
    out = -coeffs * kap.reshape(shape)
    parities = tuple(SIN if i == axis else COS for i in range(3))
    return out, parities


def hess_coeffs(coeffs: np.ndarray, axes, i: int, j: int) -> tuple[np.ndarray, tuple]:
    """Second derivative d_i d_j of an all-cosine coefficient array."""
    ki = axes[i].kappa
    kj = axes[j].kappa
    si = [1, 1, 1]
    si[i] = ki.size
    sj = [1, 1, 1]
    sj[j] = kj.size
    if i == j:
        out = -coeffs * (ki.reshape(si) ** 2)
        parities = (COS, COS, COS)
    else:
        out = coeffs * ki.reshape(si) * kj.reshape(sj)
        parities = tuple(SIN if ax in (i, j) else COS for ax in range(3))
    return out, parities


def neumann_eigenvalues(axes: tuple[AxisTransform, ...]) -> np.ndarray:
    """-Laplacian eigenvalues of the all-cosine tensor family."""
    k1, k2, k3 = (ax.kappa for ax in axes)
    return (
        k1[:, None, None] ** 2 + k2[None, :, None] ** 2 + k3[None, None, :] ** 2
    )

"""Half-range trigonometric transforms on midpoint grids.

Scalar fields with natural Neumann behaviour are expanded per axis in
cos(k*pi*s), s in (0, 1) the normalized coordinate; a derivative of order
0, 1 or 2 along an axis is synthesized with that axis's table cos(k pi s),
-kappa sin(k pi s) or -kappa^2 cos(k pi s). On N midpoint nodes the
discrete cosine family {cos(k*pi*s_j), k = 0..N-1} is an exact
interpolation basis, and midpoint sums integrate cos(m*pi*s) exactly for
all 0 < m <= 2N - 1, which is what makes Gram and stiffness integrals of
band-limited fields exact.

Transforms are realized as small dense per-axis matrices; at desk-scale
resolutions this is faster to reason about than library DCT scaling
conventions and costs nothing. On the grid each axis is one plain
contraction. On a boundary face synth contracts the face axis first, with
the end values of its table, so a face costs a face and not a cube; order 1
is a sine, which vanishes at both ends and gives exact zeros without any
synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    syn: tuple            # [order] -> [node, k], d^order/dx^order cos(k pi s_j)

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
        kappa = k * np.pi / length
        return cls(
            n=n,
            cos_syn=cos_syn,
            sin_syn=sin_syn,
            cos_ana=cos_ana,
            kappa=kappa,
            cos_at_lo=np.ones(n),
            cos_at_hi=np.cos(np.pi * k),
            syn=(cos_syn, -kappa * sin_syn, -kappa**2 * cos_syn),
        )


def _on_grid(m0: np.ndarray, m1: np.ndarray, m2: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Contract the three axes of arr with m0, m1, m2 (each [out, in])."""
    out = np.matmul(m1, arr @ m2.T)
    return (m0 @ out.reshape(out.shape[0], -1)).reshape(m0.shape[0], *out.shape[1:])


def cos_analyze(values: np.ndarray, axes: tuple[AxisTransform, ...]) -> np.ndarray:
    """Cosine interpolation coefficients of nodal values (exact inverse)."""
    return _on_grid(*(ax.cos_ana for ax in axes), values)


def synth(coeffs: np.ndarray, axes: tuple[AxisTransform, ...], orders, face=None) -> np.ndarray:
    """[len(orders), ...] derivatives of a cosine series, one per triple of
    per-axis derivative orders (AxisTransform.syn), on the grid or, with
    face = (axis, side), on that boundary face over the two in-plane axes.

    On a face the coefficients are contracted along the face axis once per
    order taken there, with the end values of cos(k pi s) for order 0 and
    with -kappa^2 times them for order 2, and the in-plane tables act on
    that plane; order 1 gives exact zeros (sines vanish at both ends).
    """
    if face is None:
        return np.stack([_on_grid(*(ax.syn[d] for ax, d in zip(axes, o)), coeffs) for o in orders])
    axis, side = face
    ax, (a, b) = axes[axis], [i for i in range(3) if i != axis]
    ends = ax.cos_at_hi if side == 1 else ax.cos_at_lo
    moved = np.moveaxis(coeffs, axis, -1)
    needed = {o[axis] for o in orders} - {1}
    planes = {d: moved @ (ends if d == 0 else -ax.kappa**2 * ends) for d in needed}
    out = np.zeros((len(orders), axes[a].n, axes[b].n))
    for field, o in zip(out, orders):
        if o[axis] != 1:
            field[...] = axes[a].syn[o[a]] @ planes[o[axis]] @ axes[b].syn[o[b]].T
    return out


def neumann_eigenvalues(axes: tuple[AxisTransform, ...]) -> np.ndarray:
    """-Laplacian eigenvalues of the all-cosine tensor family."""
    k1, k2, k3 = (ax.kappa for ax in axes)
    return (
        k1[:, None, None] ** 2 + k2[None, :, None] ** 2 + k3[None, None, :] ** 2
    )

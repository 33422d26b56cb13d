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
contraction, shared by the derivative orders that agree on it. On a
boundary face synth contracts the face axis first, with the end values of
its table, so a face costs a face and not a cube; order 1 is a sine, which
vanishes at both ends and gives exact zeros without any synthesis. The
other way, grid fields are contracted into a moment table (moment_table).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AxisTransform:
    """Trig table and synthesis/analysis matrices for one axis of a midpoint grid."""

    n: int
    rows: np.ndarray      # [2, j, node] = cos and sin(j pi s_i), j <= 2n - 2
    cos_ana: np.ndarray   # exact inverse of syn[0]
    kappa: np.ndarray     # k pi / length
    syn: tuple            # [order] -> [node, k], d^order/dx^order cos(k pi s_j)

    @classmethod
    def build(cls, n: int, length: float) -> "AxisTransform":
        """The rows reach j = 2n - 2, the largest wavenumber of a product of
        two modes (moment_table); the first n are the synthesis tables."""
        t = np.pi * np.outer(np.arange(2 * n - 1), (np.arange(n) + 0.5) / n)
        rows = np.stack([np.cos(t), np.sin(t)])
        # [node, k], in row-major copies: matmul rounds a transposed view
        # of the rows differently, so the synthesized fields would move
        cos, sin = np.ascontiguousarray(rows[:, :n].transpose(0, 2, 1))
        k = np.arange(n)
        # Discrete orthogonality: sum_j cos(k pi s_j) cos(k' pi s_j)
        # equals n for k = k' = 0 and n/2 for k = k' >= 1.
        scale = np.full(n, 2.0 / n)
        scale[0] = 1.0 / n
        kappa = k * np.pi / length
        return cls(
            n=n,
            rows=rows,
            cos_ana=(cos * scale[None, :]).T,
            kappa=kappa,
            syn=(cos, -kappa * sin, -kappa**2 * cos),
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
        # as _on_grid, x3 first; each contraction once for the orders that share it
        out = np.empty((len(orders), *coeffs.shape))
        for d2 in {o[2] for o in orders}:
            along3 = coeffs @ axes[2].syn[d2].T
            for d1 in {o[1] for o in orders if o[2] == d2}:
                flat = np.matmul(axes[1].syn[d1], along3).reshape(len(coeffs), -1)
                for field, o in zip(out, orders):
                    if o[1:] == (d1, d2):
                        np.matmul(axes[0].syn[o[0]], flat, out=field.reshape(len(field), -1))
        return out
    axis, side = face
    ax, (a, b) = axes[axis], [i for i in range(3) if i != axis]
    ends = np.cos(np.pi * side * np.arange(ax.n))   # cos(k pi s) at s = side
    moved = np.moveaxis(coeffs, axis, -1)
    needed = {o[axis] for o in orders} - {1}
    planes = {d: moved @ (ends if d == 0 else -ax.kappa**2 * ends) for d in needed}
    out = np.zeros((len(orders), axes[a].n, axes[b].n))
    for field, o in zip(out, orders):
        if o[axis] != 1:
            field[...] = axes[a].syn[o[a]] @ planes[o[axis]] @ axes[b].syn[o[b]].T
    return out


def moment_table(fields: np.ndarray, splits, axes, tops) -> np.ndarray:
    """Moment table [field, j1, j2, n1] of fields [field, n1, n2, n3],
    j_a <= tops[a - 1]: contracted along x3, then x2, with the rows of
    cos or sin(j pi s) of axes[a].rows, as the sines of splits[field]
    (basis.FactorTables.split) say."""
    s1, s2 = np.array([sines for _, sines, _ in splits]).T
    r1, r2 = (ax.rows[s, : top + 1] for ax, s, top in zip(axes[1:], (s1, s2), tops))
    nf, n1, n2, n3 = fields.shape
    t = fields.reshape(nf, n1 * n2, n3) @ r2.transpose(0, 2, 1)
    return np.ascontiguousarray((r1[:, None] @ t.reshape(nf, n1, n2, -1)).transpose(0, 2, 3, 1))


def project_moments(moments: np.ndarray, weight: float, splits) -> np.ndarray:
    """[i] sum over fields of the quadrature of field f against the factors
    splits[f] = (f0, sines, index) of basis.FactorTables.split, from the
    moment table: each mode's row is gathered and summed over x1 against f0."""
    return sum(weight * np.einsum("ix,ix->i", f0, m[j1, j2]) for m, (f0, _, (j1, j2)) in zip(moments, splits))


@functools.cache
def pair_rows(kf: int, kg: int, sine_f: bool, sine_g: bool, width: int) -> np.ndarray:
    """Row a (kg + 1) + b: the product of factors of wavenumbers a, b in moment
    rows, by cos a cos b = (cos(a - b) + cos(a + b)) / 2, sin a sin b =
    (cos(a - b) - cos(a + b)) / 2 and sin a cos b = (sin(a + b) + sin(a - b)) / 2."""
    a, b = np.divmod(np.arange((kf + 1) * (kg + 1)), kg + 1)
    out, rows = np.zeros((a.size, width)), np.arange(a.size)
    # sin(a - b) = sign(a - b) sin|a - b|, and a sine's row 0 is zero
    out[rows, abs(a - b)] = 0.5 if sine_f == sine_g else 0.5 * np.sign((a - b) * (sine_f - sine_g))
    out[rows, a + b] += -0.5 if sine_f and sine_g else 0.5
    out.flags.writeable = False   # shared by every caller
    return out


def pair_moments(terms, weight: float) -> np.ndarray:
    """[l, i] sum over terms (moments, f, g) of the quadrature of a field
    against f_l g_i, for splits f, g of basis.FactorTables of two families
    that every term shares, from the field's moment table: the rows of all
    wavenumber pairs, gathered per pair of modes into [mode_f mode_g, n1],
    the largest transient, and summed over x1."""
    _, (_, _, fk), (_, _, gk) = terms[0]
    tops = [(int(a.max()), int(b.max())) for a, b in zip(fk, gk)]
    p1, p2 = (a[:, None] * (top[1] + 1) + b for a, b, top in zip(fk, gk, tops))
    index, out = (p1 * ((tops[1][0] + 1) * (tops[1][1] + 1)) + p2).ravel(), 0
    rows = np.empty((index.size, terms[0][0].shape[2]))   # one buffer for every term
    for moments, (f0, fs, _), (g0, gs, _) in terms:
        j1, j2, n1 = moments.shape
        a1, a2 = (pair_rows(*top, sf, sg, width) for top, sf, sg, width in zip(tops, fs, gs, (j1, j2)))
        table = a2 @ (a1 @ moments.reshape(j1, -1)).reshape(-1, j2, n1)
        # mode clip takes no buffered copy of out, which mode raise does
        np.take(table.reshape(-1, n1), index, axis=0, out=rows, mode="clip")
        out = out + weight * np.einsum("lx,ix,lix->li", f0, g0, rows.reshape(len(f0), len(g0), n1))
    return out


def neumann_eigenvalues(axes: tuple[AxisTransform, ...]) -> np.ndarray:
    """-Laplacian eigenvalues of the all-cosine tensor family."""
    k1, k2, k3 = (ax.kappa for ax in axes)
    return (
        k1[:, None, None] ** 2 + k2[None, :, None] ** 2 + k3[None, None, :] ** 2
    )

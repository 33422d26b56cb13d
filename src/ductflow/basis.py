"""Divergence-free velocity basis, temperature basis and assembled forms.

Velocity modes are tensor-product trig fields with face-adapted parities:
component c carries a sine factor along its own axis (so the normal trace
vanishes on every face identically) and cosine factors along the others.
For a wavevector k the divergence of such a field is a single cosine
product with coefficient kappa . coef, so divergence freeness is the exact
algebraic constraint kappa . coef = 0; wavevectors with two nonzero entries
contribute one mode, with three nonzero entries two modes. Each of these
modes has Stokes Rayleigh quotient 2 |kappa|^2, which is how the first m
are picked without building every candidate, and the quotient it stores.

The slip/stress conditions are never imposed on the basis: they are natural
and enter the weak form through the lateral friction matrix and the
boundary functional of the lifting assembled here.

Temperature modes are the Neumann-natural all-cosine family including the
constant, each a Neumann eigenfunction with eigenvalue |kappa|^2.

In these bases the Stokes and heat operators are diagonal: int D(psi_i) :
D(psi_j) is the Rayleigh quotient 2 |kappa|^2 on the diagonal and 0 off
it, int grad psi_i : grad psi_j is half of that, and
int grad phi_i . grad phi_j is the eigenvalue. The solver reads them from
VelocityBasis.rayleigh and TemperatureBasis.eigenvalues; of the m x m
forms only the friction matrix, dense off the unit box, is assembled.

Every mode component is amplitude x f1(x1) f2(x2) f3(x3), so a family is
its wavevectors and amplitudes, each factor gathered on use from the trig
rows of an axis; no per-mode array on the grid or on a face is kept. The quadrature is a tensor midpoint rule, so
every contraction is sum-factorized: a grid field is contracted once,
along x3 and then x2, with cos and sin(j pi s) into its moment table,
which projections and, up to j = 2 k_a, the couplings of two modes read
(spectral.moment_table); on a face the face axis takes the end values. A
discrete Gram matrix that deviates from the identity stops the build.

The transport terms are computed, not stored: no tensor of m^3 entries is
built. The midpoint rule on n nodes is exact for triple products of
factors up to wavenumber k when 3 k <= 2 n - 1 (the AliasingError rule of
the quadrature grid). The same rule sizes a second, small transport grid
by the modes' own band, n_a = ceil((3 k_a + 1) / 2) with k_a the larger of
the velocity and temperature band on axis a (4x4x7 at m = 16 and 32 on the
default 1x1x2 box). The modes are sampled there once, into one contiguous
table per field family (psi_c, d_a psi_c, phi, d_a phi), the quadrature
weight folded into the two gradient tables. Per call, w, grad w and grad
theta are synthesized with one matmul per table into one buffer, their
products over the axis a formed with one contraction, and the two fields
projected back exactly into the caller's vector (AssembledForms.transport).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import QuadratureGrid
from .errors import AliasingError
from . import spectral


def dealias_cap(n: int) -> int:
    """Largest per-axis wavenumber whose triple products the grid integrates
    exactly (midpoint rule is exact for cos(m pi s) up to m = 2n - 1)."""
    return (2 * n - 1) // 3


# ---------------------------------------------------------------------------
# Mode descriptions


@dataclass(frozen=True)
class VelocityMode:
    k: tuple[int, int, int]
    coef: tuple[float, float, float]   # component amplitudes, L2-normalized
    branch: int                        # index within the wavevector's nullspace
    rayleigh: float                    # int |D(psi)|^2 / int |psi|^2


@dataclass(frozen=True)
class TemperatureMode:
    k: tuple[int, int, int]
    amplitude: float                   # L2 normalization constant
    eigenvalue: float                  # |kappa|^2


@dataclass
class FactorTables:
    """A mode family as its wavevectors: component c of mode i is amp[c, i]
    times one factor per axis a, cos(k pi s), or sin along sin_axes[c], of
    the wavenumber k = k[i, a]. Each factor is computed on use from the
    trig rows of the axes (factor)."""

    k: np.ndarray                              # [mode, 3] wavevectors
    amp: np.ndarray                            # [comp, mode] amplitudes
    sin_axes: tuple                            # [comp] -> axis or None
    axes: tuple                                # AxisTransforms of the nodes

    def _rule(self, c: int, a: int, d: int | None) -> tuple:
        """(sine, kap) of the axis-a factor of component c differentiated
        along d: 1 if it is sin(k pi s), 0 if cos, and the [mode, 1] factor
        of a derivative along a, +kappa from sin to cos and -kappa from cos
        to sin (None for no derivative along a)."""
        sine = a == self.sin_axes[c]
        if a != d:
            return int(sine), None
        kap = self.axes[a].kappa[self.k[:, a]]
        return int(not sine), (kap if sine else -kap)[:, None]

    def factor(self, c: int, a: int, d: int | None = None, side: int | tuple | None = None) -> np.ndarray:
        """[mode, node] the axis-a factor of component c differentiated along
        d, the rows of axes[a] gathered by wavenumber times the kappa of
        _rule; or, undifferentiated, [mode, 1] its value at the low (side
        0) or high (side 1) end, 0 for a sine and cos(k pi side) for a
        cosine, and [mode, len(side)] its values at a tuple of ends. The
        amplitude sits in the axis-0 factor."""
        k, ax = self.k[:, a], self.axes[a]
        sine, kap = self._rule(c, a, d)
        if side is None:
            f = ax.rows[sine, k]
        else:
            sides = np.atleast_1d(side)
            f = np.zeros((k.size, sides.size)) if sine else np.cos(np.pi * np.outer(k, sides))
        if kap is not None:
            f = kap * f
        return self.amp[c][:, None] * f if a == 0 else f

    def factors(self, c: int, d: int | None = None) -> tuple:
        """The three axis factors of component c, differentiated along d."""
        return tuple(self.factor(c, a, d) for a in range(3))

    def split(self, c: int, d: int | None = None) -> tuple:
        """(f0, sines, index) of component c differentiated along d: the
        axis-0 factors times the kappa of a derivative along axis 1 or 2,
        and per axis 1, 2 whether it is a sine and the wavenumbers."""
        f0, sines = self.factor(c, 0, d), []
        for a in (1, 2):
            sine, kap = self._rule(c, a, d)
            f0 = f0 if kap is None else kap * f0
            sines.append(sine)
        return f0, tuple(sines), (self.k[:, 1], self.k[:, 2])

    def expand(self, coef: np.ndarray, c: int, out: np.ndarray | None = None) -> np.ndarray:
        """[..., n1, n2, n3] sum_i coef_i f_i for component c: coef times the
        axis-0 factors, scattered by wavenumber into [n1, K1 K2], contracted
        with the rows of axes 2 and 1, the last contraction written into
        ``out`` when given. A row of coef [..., mode] is expanded by the same
        operations as alone."""
        f0, sines, (j1, j2) = self.split(c)
        r1, r2 = (ax.rows[s, : j.max() + 1] for ax, s, j in zip(self.axes[1:], sines, (j1, j2)))
        k1, k2 = len(r1), len(r2)
        t = (f0.T * coef[..., None, :]) @ np.eye(k1 * k2)[j1 * k2 + j2]
        return np.matmul(r1.T, t.reshape(*coef.shape[:-1], -1, k1, k2) @ r2, out=out)

    def on_face(self, c: int, patch) -> tuple:
        """The axis factors of component c on a face, whose own axis takes
        its end value as a one-node table."""
        return tuple(self.factor(c, a, side=patch.side if a == patch.axis else None) for a in range(3))

    def project_face(self, c: int, patch, planes: np.ndarray) -> np.ndarray:
        """[..., mode] patch quadrature of planes [..., f1, f2] against the
        face trace of component c: one matmul with the first in-plane
        factor, a row sum against the second, times the end value."""
        f = self.on_face(c, patch)
        fa, fb = (f[a] for a in patch.plane_axes)
        return patch.weight * f[patch.axis][:, 0] * ((fa @ planes) * fb).sum(axis=-1)


@dataclass
class VelocityBasis:
    """The velocity modes as factor tables, and their Rayleigh quotients."""

    modes: list[VelocityMode]
    rayleigh: np.ndarray               # [mode] int |D(psi)|^2 = 2 |kappa|^2
    k_max: tuple[int, int, int]
    factors: FactorTables              # comp 0..2

    @property
    def m(self) -> int:
        return len(self.modes)


@dataclass
class TemperatureBasis:
    """The temperature modes as factor tables, and their eigenvalues."""

    modes: list[TemperatureMode]
    eigenvalues: np.ndarray
    k_max: tuple[int, int, int]
    factors: FactorTables              # comp 0 only

    @property
    def m(self) -> int:
        return len(self.modes)


# ---------------------------------------------------------------------------
# Closed-form per-mode integrals used for ordering and normalization


def _component_weight(lengths, k, c) -> float:
    """int of the squared axis factors of component c (None: cosines only)
    of a mode of wavevector k: L_a / 2 on an axis with k_a >= 1, else L_a
    for a cosine and 0 for the sine of axis c."""
    w = 1.0
    for a in range(3):
        w *= lengths[a] / 2.0 if k[a] >= 1 else (0.0 if a == c else lengths[a])
    return w


def _weighted_dot(x, y, w) -> float:
    """sum_a x_a y_a w_a, rounded as numpy's (x * y * w).sum() of three."""
    return 0.0 + x[0] * y[0] * w[0] + x[1] * y[1] * w[1] + x[2] * y[2] * w[2]


def _wavevector_modes(lengths, k, rayleigh: float) -> list[VelocityMode]:
    """The one or two divergence-free modes of a wavevector with at least
    two nonzero entries, L2-normalized, each with the Rayleigh quotient
    2 |kappa|^2 that the caller passes in.

    Plain float arithmetic on 3-vectors, in the operation order of the
    numpy expressions it replaces (np.cross, weighted sums), so that every
    coefficient is the same to the bit.
    """
    active = [c for c in range(3) if k[c] >= 1]
    kappa = tuple(k[a] * math.pi / lengths[a] for a in range(3))
    weights = tuple(_component_weight(lengths, k, c) for c in range(3))
    if len(active) == 2:
        p, q = active
        raw = [0.0, 0.0, 0.0]
        raw[p], raw[q] = kappa[q], -kappa[p]
        basis_vecs = [raw]
    else:
        n1 = (kappa[1], -kappa[0], 0.0)
        # kappa x n1
        n2 = (
            kappa[1] * n1[2] - kappa[2] * n1[1],
            kappa[2] * n1[0] - kappa[0] * n1[2],
            kappa[0] * n1[1] - kappa[1] * n1[0],
        )
        # weighted Gram-Schmidt inside the divergence-free plane
        proj = _weighted_dot(n2, n1, weights) / _weighted_dot(n1, n1, weights)
        basis_vecs = [n1, tuple(x - proj * y for x, y in zip(n2, n1))]
    out = []
    for branch, vec in enumerate(basis_vecs):
        nrm = math.sqrt(_weighted_dot(vec, vec, weights))
        out.append(VelocityMode(k=k, coef=tuple(v / nrm for v in vec), branch=branch, rayleigh=rayleigh))
    return out


# A shortlist keeps every wavevector whose |kappa|^2 is within this relative
# slack of the m-th smallest; far wider than the 1e-9 rounding of the sort
# keys, so no mode that sorts among the first m is left out.
SHORTLIST_SLACK = 1e-6


def _wavevectors(lengths, kcap):
    """Every wavevector of the box [0, kcap] in lexicographic order, with
    |kappa|^2 = sum_a (k_a pi / L_a)^2."""
    ks = np.indices([c + 1 for c in kcap]).reshape(3, -1).T
    lam = ((ks * (math.pi / np.asarray(lengths, dtype=float))) ** 2).sum(axis=1)
    return ks, lam


def _shortlist(ks, lam, counts, m) -> list[tuple[tuple[int, int, int], float]]:
    """(k, |kappa|^2) of the wavevectors with |kappa|^2 <= (1 +
    SHORTLIST_SLACK) times the m-th smallest, each wavevector counting as
    ``counts`` modes."""
    order = np.argsort(lam, kind="stable")
    reach = np.cumsum(counts[order])
    cut = lam[order[np.searchsorted(reach, m)]]
    keep = np.flatnonzero((counts > 0) & (lam <= (1.0 + SHORTLIST_SLACK) * cut))
    return [(tuple(int(x) for x in ks[i]), float(lam[i])) for i in keep]


def velocity_modes(lengths, kcap, m: int) -> list[VelocityMode]:
    """The first m velocity modes below the band kcap, ordered by Rayleigh
    quotient, then wavevector, then branch.

    Every mode of a wavevector has Rayleigh quotient 2 |kappa|^2, so the
    ranking is decided on the |kappa|^2 table for all wavevectors at once,
    the modes are built only on the shortlist that can reach the first m,
    and each stores twice its table entry as its quotient.
    """
    ks, lam = _wavevectors(lengths, kcap)
    nonzero = (ks >= 1).sum(axis=1)
    counts = np.where(nonzero == 3, 2, np.where(nonzero == 2, 1, 0))
    total = int(counts.sum())
    if m > total:
        raise AliasingError(
            f"requested m = {m} velocity modes but only {total} are "
            f"resolvable below the dealiased band {kcap}"
        )
    candidates = [
        md for k, lam_k in _shortlist(ks, lam, counts, m) for md in _wavevector_modes(lengths, k, 2.0 * lam_k)
    ]
    candidates.sort(key=lambda md: (round(md.rayleigh, 9), md.k, md.branch))
    return candidates[:m]


def temperature_modes(lengths, kcap, m: int) -> list[TemperatureMode]:
    """The first m all-cosine modes below the band kcap, ordered by Laplace
    eigenvalue |kappa|^2, then wavevector; the constant mode comes first."""
    ks, lam = _wavevectors(lengths, kcap)
    if m > lam.size:
        raise AliasingError(
            f"requested m = {m} temperature modes but only {lam.size} are resolvable"
        )
    cands = [
        TemperatureMode(k=k, amplitude=1.0 / math.sqrt(_component_weight(lengths, k, None)), eigenvalue=lam_k)
        for k, lam_k in _shortlist(ks, lam, np.ones(lam.size, dtype=int), m)
    ]
    cands.sort(key=lambda md: (round(md.eigenvalue, 9), md.k))
    return cands[:m]


def _synthesize(f) -> np.ndarray:
    """[mode, n1, n2, n3] outer products f[0][i] x f[1][i] x f[2][i]."""
    pair = f[0][:, :, None] * f[1][:, None, :]
    return pair[..., None] * f[2][:, None, None, :]


def _sampled(tables: FactorTables, *groups) -> tuple:
    """One [mode, len(fields) n1 n2 n3] table per list of fields in groups:
    component c differentiated along d, for each (c, d) of the list, sampled
    at the nodes of the tables' grid."""
    m = tables.k.shape[0]
    size = math.prod(ax.n for ax in tables.axes)
    # the undifferentiated factors of a component are shared by all its fields
    undiff = {c: tables.factors(c) for fields in groups for c, _ in fields}
    out = []
    for fields in groups:
        table = np.empty((m, len(fields), size))
        for i, (c, d) in enumerate(fields):
            f = [tables.factor(c, a, d) if a == d else undiff[c][a] for a in range(3)]
            table[:, i] = _synthesize(f).reshape(m, -1)
        out.append(table.reshape(m, -1))
    return tuple(out)


def _gram(f, weight: float) -> np.ndarray:
    """[i, j] quadrature of f_i f_j for tensor factors: weight prod_a f_a f_a^T,
    each a product of one array with itself, which BLAS takes as symmetric."""
    return weight * (f[0] @ f[0].T) * (f[1] @ f[1].T) * (f[2] @ f[2].T)


def build_velocity_basis(grid: QuadratureGrid, m: int) -> VelocityBasis:
    """Construct the first m modes ordered by Stokes Rayleigh quotient.

    Modes are analytically orthonormal and are kept as per-axis factor
    tables only. Two checks raise RuntimeError: a discrete Gram matrix that
    deviates from the identity beyond 1e-12, and a normal trace that is not
    exactly 0, which w.n = 0 on every face, for any coefficients, rests on.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    modes = velocity_modes(grid.spec.lengths, tuple(dealias_cap(n) for n in grid.shape), m)
    ks, coef = np.array([md.k for md in modes]), np.array([md.coef for md in modes])
    tables = FactorTables(ks, coef.T, (0, 1, 2), grid.axes)
    gram = sum(_gram(tables.factors(c), grid.cell_volume) for c in range(3))
    dev = float(np.max(np.abs(gram - np.eye(m))))
    if dev > 1e-12:
        raise RuntimeError(f"velocity Gram matrix deviates from the identity by {dev:.3e} > 1e-12")
    # the normal trace of component c is its axis-c factor at the two ends
    if any(np.any(tables.factor(c, c, side=side)) for c in range(3) for side in (0, 1)):
        raise RuntimeError("a velocity mode has a nonzero normal trace")
    rayleigh = np.array([md.rayleigh for md in modes])
    return VelocityBasis(modes, rayleigh, tuple(ks.max(axis=0).tolist()), tables)


def build_temperature_basis(grid: QuadratureGrid, m: int) -> TemperatureBasis:
    """First m all-cosine modes by Laplace eigenvalue, constant mode first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    modes = temperature_modes(grid.spec.lengths, tuple(dealias_cap(n) for n in grid.shape), m)
    ks, amp = np.array([md.k for md in modes]), np.array([md.amplitude for md in modes])
    tables = FactorTables(ks, amp[None], (None,), grid.axes)
    lam = np.array([md.eigenvalue for md in modes])
    return TemperatureBasis(modes, lam, tuple(ks.max(axis=0).tolist()), tables)


# ---------------------------------------------------------------------------
# Evaluations of the lifting needed by the forms


@dataclass
class DeltaEval:
    """The lifting delta where forms need it: on the grid one stack of its
    values, its gradient grad[c, d] = d_d delta_c and delta . grad(delta),
    and on each face its values [comp, f1, f2], in grid.patches order."""

    fields: np.ndarray
    faces: list

    def __post_init__(self):
        f = self.fields
        self.values, self.grad, self.advection = f[:3], f[3:12].reshape(3, 3, *f.shape[1:]), f[12:]


# ---------------------------------------------------------------------------
# Assembled forms


@dataclass
class AssembledForms:
    """The friction matrix, the transport kernel, and builders for the
    lifting terms.

    K_fric[i, j] = gamma sum_lateral sum_tau int (psi_i . tau)(psi_j . tau)
    is the one m x m form assembled; the viscous and heat operators are the
    bases' spectra.
    """

    grid: QuadratureGrid
    vb: VelocityBasis
    tb: TemperatureBasis
    nu: float
    gamma: float
    K_fric: np.ndarray = field(init=False)
    # the modes sampled on the transport grid of P nodes, one contiguous
    # table per field family: psi_c; the cell weight times d_a psi_c, [c, a]
    # component major; phi; the cell weight times d_a phi
    _w_table: np.ndarray = field(init=False, repr=False)            # [mode, 3 P]
    _grad_w_table: np.ndarray = field(init=False, repr=False)       # [mode, 9 P]
    _theta_table: np.ndarray = field(init=False, repr=False)        # [mode_t, P]
    _grad_theta_table: np.ndarray = field(init=False, repr=False)   # [mode_t, 3 P]
    # transport scratch, views made once: of one [15 P] buffer, w then the
    # weighted d_a u_c and d_a theta ([3 P], [9 P], [3 P], as [3, P] and
    # [4, 3, P]); of one [4, P] buffer, (w . grad) u_c and w . grad theta
    _synth: tuple = field(init=False, repr=False)
    _products: tuple = field(init=False, repr=False)
    _tops: tuple = field(init=False, repr=False)   # moment rows of the couplings
    # FactorTables.split of psi_c, of d_d psi_c (c major), and of phi, d_a phi
    _psi: list = field(init=False, repr=False)
    _grad_psi: list = field(init=False, repr=False)
    _phi: list = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.grid
        band = [max(kv, kt) for kv, kt in zip(self.vb.k_max, self.tb.k_max)]
        for a in range(3):
            needed = 3 * band[a]
            if needed > 2 * grid.shape[a] - 1:
                raise AliasingError(
                    f"axis {a}: triple products reach wavenumber {needed} beyond "
                    f"the exact band {2 * grid.shape[a] - 1}"
                )
        V, Th = self.vb.factors, self.tb.factors
        # the tangents of a wall are the unit vectors of its two plane axes.
        # The two walls of an axis share their in-plane factors and weight
        # and differ only in the end values on the face axis: with those as
        # the two columns of one table, one _gram sums both walls
        walls = {p.axis: p for p in grid.patches if p.axis != 2}
        self.K_fric = self.gamma * sum(
            _gram([V.factor(c, a, side=(0, 1) if a == p.axis else None) for a in range(3)], p.weight)
            for p in walls.values() for c in p.plane_axes
        )
        self._psi = [V.split(c) for c in range(3)]
        self._grad_psi = [V.split(c, d) for c in range(3) for d in range(3)]
        self._phi = [Th.split(0, d) for d in (None, 0, 1, 2)]

        # the transport grid: n = ceil((3 k + 1) / 2) nodes, the fewest with
        # 3 k <= 2 n - 1, for k the larger band of the modes on each axis
        shape = tuple((3 * k + 2) // 2 for k in band)
        lengths = grid.spec.lengths
        axes = tuple(spectral.AxisTransform.build(n, L) for n, L in zip(shape, lengths))
        psi, grad_psi = [(c, None) for c in range(3)], [(c, a) for c in range(3) for a in range(3)]
        self._w_table, self._grad_w_table = _sampled(replace(V, axes=axes), psi, grad_psi)
        self._theta_table, self._grad_theta_table = _sampled(
            replace(Th, axes=axes), [(0, None)], [(0, a) for a in range(3)]
        )
        # the quadrature weight rides in the gradients, into both products
        n = math.prod(shape)
        cell = math.prod(lengths) / n
        self._grad_w_table *= cell
        self._grad_theta_table *= cell
        buf, prods = np.empty(15 * n), np.empty((4, n))
        self._synth = (buf[: 3 * n], buf[3 * n : 12 * n], buf[12 * n :],
                       buf[: 3 * n].reshape(3, n), buf[3 * n :].reshape(4, 3, n))
        self._products = (prods, prods[:3].reshape(-1), prods[3])
        self._tops = (2 * band[1], 2 * band[2])

    # -- transport --------------------------------------------------------------

    def transport(self, a: np.ndarray, b: np.ndarray, d: np.ndarray, out: np.ndarray | None = None) -> tuple:
        """(sum_ij a_i b_j <psi_i . grad psi_j, psi_l>,
        sum_ij a_i d_j <psi_i . grad phi_j, phi_l>), bilinear in (a, b) and in
        (a, d): with w = sum a_i psi_i, the projections of (w . grad) u and
        w . grad theta for u = sum b_j psi_j and theta = sum d_j phi_j.

        w, grad u and grad theta are synthesized on the transport grid into
        one buffer, one matmul per table; one contraction over the axis a
        forms (w . grad) u and w . grad theta pointwise, and one matmul each
        projects them back into out[:m] and out[m:] (out a contiguous
        vector of m + m_t entries, a fresh one when not given), whose two
        views are returned. That grid's midpoint rule integrates every triple product
        of modes exactly, so the result is the exact weak form up to
        rounding.
        """
        W, Th, m = self._w_table, self._theta_table, self._w_table.shape[0]
        w, grad_u, grad_th, w_an, grad_fan = self._synth
        prods, conv_n, adv_n = self._products
        if out is None:
            out = np.empty(m + Th.shape[0])
        np.dot(a, W, w)
        np.dot(b, self._grad_w_table, grad_u)
        np.dot(d, self._grad_theta_table, grad_th)
        # [f, n] = sum_a w_a [f, a, n], f over the components of u, then theta
        np.einsum("an,fan->fn", w_an, grad_fan, out=prods)
        conv, adv = out[:m], out[m:]
        np.dot(W, conv_n, conv)
        np.dot(Th, adv_n, adv)
        return conv, adv

    # -- projections of grid fields -------------------------------------------

    def project_velocity(self, values: np.ndarray) -> np.ndarray:
        """<values, psi_j> for a sampled vector field [comp, n1, n2, n3]."""
        moments = spectral.moment_table(values, self._psi, self.grid.axes, self.vb.k_max[1:])
        return spectral.project_moments(moments, self.grid.cell_volume, self._psi)

    def project_temperature(self, values: np.ndarray) -> np.ndarray:
        """<values, phi_j> for a sampled scalar field."""
        moments = spectral.moment_table(values[None], self._phi[:1], self.grid.axes, self.tb.k_max[1:])
        return spectral.project_moments(moments, self.grid.cell_volume, self._phi[:1])

    def velocity_temperature_matrix(self, values: np.ndarray) -> np.ndarray:
        """[j, k] = <phi_k values, psi_j> for a sampled vector field."""
        moments = spectral.moment_table(values, self._psi, self.grid.axes, self._tops)
        terms = [(moments[c], self._psi[c], self._phi[0]) for c in range(3)]
        return spectral.pair_moments(terms, self.grid.cell_volume)

    # -- lifting-dependent pieces --------------------------------------------

    def lifting_moments(self, delta: DeltaEval) -> np.ndarray:
        """The moment table of delta.fields, each in the parity in which it
        meets the modes (as psi_c, or d_d psi_c), which its couplings read."""
        splits = self._psi + self._grad_psi + self._psi
        return spectral.moment_table(delta.fields, splits, self.grid.axes, self._tops)

    def delta_matrices(self, moments: np.ndarray):
        """(G_wd, G_dw, G_dth): the linear-in-state couplings.

        G_wd[l, i] = <psi_i . grad(delta), psi_l>
        G_dw[l, i] = <delta . grad(psi_i), psi_l>
        G_dth[l, i] = <delta . grad(phi_i), phi_l>

        Each is a sum of pairwise contractions of two factor families
        against one component of delta or of its gradient.
        """
        psi, grad_psi, phi, cv = self._psi, self._grad_psi, self._phi, self.grid.cell_volume
        values, grad = moments[:3], moments[3:12].reshape(3, 3, *moments.shape[1:])
        pairs = [(c, a) for c in range(3) for a in range(3)]
        # (psi_i . grad(delta))_c = sum_a psi_i_a d_a delta_c
        g_wd = spectral.pair_moments([(grad[c, a], psi[c], psi[a]) for c, a in pairs], cv)
        # (delta . grad(psi_i))_c = sum_a delta_a d_a psi_i_c
        g_dw = spectral.pair_moments([(values[a], psi[c], grad_psi[3 * c + a]) for c, a in pairs], cv)
        g_dth = spectral.pair_moments([(values[a], phi[0], phi[1 + a]) for a in range(3)], cv)
        return g_wd, g_dw, g_dth

    def delta_vectors(self, moments: np.ndarray):
        """(P, F_adv, Q, F_form): <delta, psi_j>, <-delta . grad(delta),
        psi_j>, <grad(delta), grad(psi_j)> and the volume piece of nu div
        D(delta), -(nu/2) int D(delta):D(psi_j), from Q's moments and their
        transpose."""
        psi, grad_psi, cv, read = self._psi, self._grad_psi, self.grid.cell_volume, spectral.project_moments
        grad = moments[3:12].reshape(3, 3, *moments.shape[1:])
        sym = (grad + grad.swapaxes(0, 1)).reshape(moments[3:12].shape)
        return (read(moments[:3], cv, psi), -read(moments[12:], cv, psi),
                read(moments[3:12], cv, grad_psi), -self.nu * read(sym, cv, grad_psi))

    def boundary_functionals(self, delta: DeltaEval, cap_grad) -> np.ndarray:
        """The weak-form boundary data of the lifting, one vector:

        [j] = -gamma sum_walls sum_c int (delta . e_c)(psi_j . e_c)
              + (nu - 1) sum_caps sum_c int (n . D(delta) . e_c)(psi_j . e_c),

        c over the patch's plane axes, the tangents. It is the sum of the
        slip data B (-nu n.D(delta).tau - gamma delta.tau on the walls,
        -n.D(delta).tau on the caps, with no nu there) and of the boundary
        remainder +nu n.D(delta).tau of integrating nu div D(delta) by
        parts: on the walls the stresses cancel, on the caps (nu - 1) is
        left. The normal is (2 side - 1) e_axis; on a cap n.D(delta).e_c is
        its sign times d_c alpha, the in-cap gradient of the cap shape g:
        cap_grad[side] is (g1, g2) on that cap's nodes.
        """
        V = self.vb.factors
        out = np.zeros(self.vb.m)
        for patch, face in zip(self.grid.patches, delta.faces):
            for i, c in enumerate(patch.plane_axes):
                if patch.axis == 2:
                    data = (self.nu - 1.0) * (2.0 * patch.side - 1.0) * cap_grad[patch.side][i]
                else:
                    data = -self.gamma * face[c]
                out += V.project_face(c, patch, data)
        return out

"""Divergence-free velocity basis, temperature basis and assembled forms.

Velocity modes are tensor-product trig fields with face-adapted parities:
component c carries a sine factor along its own axis (so the normal trace
vanishes on every face identically) and cosine factors along the others.
For a wavevector k the divergence of such a field is a single cosine
product with coefficient kappa . coef, so divergence freeness is the exact
algebraic constraint kappa . coef = 0; wavevectors with two nonzero entries
contribute one mode, with three nonzero entries two modes. Each of these
modes has Stokes Rayleigh quotient 2 |kappa|^2, which is how the first m
are picked without building every candidate.

The slip/stress conditions are never imposed on the basis: they are natural
and enter the weak form through the lateral friction matrix and the
boundary functionals assembled here.

Temperature modes are the Neumann-natural all-cosine family including the
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain import PatchKind, QuadratureGrid
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
class VelocityBasis:
    modes: list[VelocityMode]
    samples: np.ndarray                # [mode, comp, n1, n2, n3]
    grad: np.ndarray                   # [mode, comp, dir, n1, n2, n3]
    face_samples: dict                 # PatchKind -> [mode, comp, f1, f2]
    k_max: tuple[int, int, int]

    @property
    def m(self) -> int:
        return len(self.modes)


@dataclass
class TemperatureBasis:
    modes: list[TemperatureMode]
    samples: np.ndarray                # [mode, n1, n2, n3]
    grad: np.ndarray                   # [mode, dir, n1, n2, n3]
    eigenvalues: np.ndarray
    k_max: tuple[int, int, int]

    @property
    def m(self) -> int:
        return len(self.modes)


# ---------------------------------------------------------------------------
# Closed-form per-mode integrals used for ordering and normalization


def _axis_factor_sq_integral(length: float, k: int, is_sin: bool) -> float:
    if is_sin:
        return length / 2.0 if k >= 1 else 0.0
    return length / 2.0 if k >= 1 else length


def _component_weight(lengths, k, c) -> float:
    w = 1.0
    for a in range(3):
        w *= _axis_factor_sq_integral(lengths[a], k[a], is_sin=(a == c))
    return w


def _stokes_energy(lengths, k, kappa, coef) -> float:
    """int |D(psi)|^2 for a single-wavevector mode, exact closed form."""
    grad_sq = 0.0
    for c in range(3):
        if coef[c] == 0.0:
            continue
        for d in range(3):
            if kappa[d] == 0.0:
                continue
            w = 1.0
            for a in range(3):
                if k[a] == 0 and a != c and a != d:
                    w *= lengths[a]
                else:
                    w *= lengths[a] / 2.0
            grad_sq += coef[c] ** 2 * kappa[d] ** 2 * w
    cross = 0.0
    for i in range(3):
        for j in range(3):
            if coef[i] == 0.0 or coef[j] == 0.0 or kappa[i] == 0.0 or kappa[j] == 0.0:
                continue
            w = 1.0
            for a in range(3):
                if k[a] == 0 and a not in (i, j):
                    w *= lengths[a]
                else:
                    w *= lengths[a] / 2.0
            cross += coef[i] * coef[j] * kappa[i] * kappa[j] * w
    return 2.0 * grad_sq + 2.0 * cross


def _wavevector_modes(lengths, k) -> list[VelocityMode]:
    """The one or two divergence-free modes of a wavevector with at least
    two nonzero entries, L2-normalized, with their closed-form Rayleigh
    quotients."""
    active = [c for c in range(3) if k[c] >= 1]
    kappa = np.array([k[a] * math.pi / lengths[a] for a in range(3)])
    weights = np.array([_component_weight(lengths, k, c) for c in range(3)])
    if len(active) == 2:
        p, q = active
        raw = np.zeros(3)
        raw[p], raw[q] = kappa[q], -kappa[p]
        basis_vecs = [raw]
    else:
        n1 = np.array([kappa[1], -kappa[0], 0.0])
        n2 = np.cross(kappa, n1)
        # weighted Gram-Schmidt inside the divergence-free plane
        proj = (n2 * n1 * weights).sum() / (n1 * n1 * weights).sum()
        n2 = n2 - proj * n1
        basis_vecs = [n1, n2]
    out = []
    for branch, vec in enumerate(basis_vecs):
        nrm = math.sqrt(float((vec * vec * weights).sum()))
        coef = tuple(float(v) for v in vec / nrm)
        energy = _stokes_energy(lengths, k, kappa, coef)
        out.append(VelocityMode(k=k, coef=coef, branch=branch, rayleigh=energy))
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


def _shortlist(ks, lam, counts, m) -> list[tuple[int, int, int]]:
    """Wavevectors with |kappa|^2 <= (1 + SHORTLIST_SLACK) times the m-th
    smallest, each wavevector counting as ``counts`` modes."""
    order = np.argsort(lam, kind="stable")
    reach = np.cumsum(counts[order])
    cut = lam[order[np.searchsorted(reach, m)]]
    keep = np.flatnonzero((counts > 0) & (lam <= (1.0 + SHORTLIST_SLACK) * cut))
    return [tuple(int(x) for x in ks[i]) for i in keep]


def velocity_modes(lengths, kcap, m: int) -> list[VelocityMode]:
    """The first m velocity modes below the band kcap, ordered by Rayleigh
    quotient, then wavevector, then branch.

    Every mode of a wavevector has Rayleigh quotient 2 |kappa|^2, so the
    ranking is decided on |kappa|^2 for all wavevectors at once and the
    closed forms run only on the shortlist that can reach the first m.
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
    candidates = [md for k in _shortlist(ks, lam, counts, m) for md in _wavevector_modes(lengths, k)]
    for md in candidates:
        expected = 2.0 * sum((md.k[a] * math.pi / lengths[a]) ** 2 for a in range(3))
        if abs(md.rayleigh - expected) > 1e-9 * expected:
            raise RuntimeError(
                f"mode {md.k} branch {md.branch}: Rayleigh quotient {md.rayleigh!r} "
                f"is not 2|kappa|^2 = {expected!r}, so the shortlist does not hold"
            )
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
    cands = []
    for k in _shortlist(ks, lam, np.ones(lam.size, dtype=int), m):
        lam_k = sum((k[a] * math.pi / lengths[a]) ** 2 for a in range(3))
        w = 1.0
        for a in range(3):
            w *= lengths[a] / 2.0 if k[a] >= 1 else lengths[a]
        cands.append(TemperatureMode(k=k, amplitude=1.0 / math.sqrt(w), eigenvalue=lam_k))
    cands.sort(key=lambda md: (round(md.eigenvalue, 9), md.k))
    return cands[:m]


def _sample_axis_factors(grid: QuadratureGrid, axes, k, sin_axis: Optional[int]):
    """Per-axis 1D factor arrays for one tensor mode."""
    fs = []
    for a in range(3):
        col = axes[a].sin_syn[:, k[a]] if a == sin_axis else axes[a].cos_syn[:, k[a]]
        fs.append(col)
    return fs


def _outer3(f1, f2, f3):
    return f1[:, None, None] * f2[None, :, None] * f3[None, None, :]


def _face_factor(axes, a, k, is_sin, patch_axis, side):
    """1D factor on a face: full column off the face axis, endpoint value on it."""
    ax = axes[a]
    if a != patch_axis:
        return ax.sin_syn[:, k] if is_sin else ax.cos_syn[:, k]
    if is_sin:
        return 0.0
    return float(ax.cos_at_hi[k] if side == 1 else ax.cos_at_lo[k])


def build_velocity_basis(grid: QuadratureGrid, m: int) -> VelocityBasis:
    """Construct the first m modes ordered by Stokes Rayleigh quotient.

    Modes are analytically orthonormal; the discrete Gram matrix is checked
    and, should it ever drift beyond 1e-12, re-orthonormalized by a
    Cholesky pass so the 1e-10 contract always holds.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lengths = grid.spec.lengths
    modes = velocity_modes(lengths, tuple(dealias_cap(n) for n in grid.shape), m)

    axes = spectral.axes_for(grid)
    psi = np.zeros((m, 3, *grid.shape))
    gpsi = np.zeros((m, 3, 3, *grid.shape))
    for idx, md in enumerate(modes):
        kappa = [md.k[a] * math.pi / lengths[a] for a in range(3)]
        for c in range(3):
            if md.coef[c] == 0.0:
                continue
            fs = _sample_axis_factors(grid, axes, md.k, sin_axis=c)
            psi[idx, c] = md.coef[c] * _outer3(*fs)
            for d in range(3):
                if kappa[d] == 0.0:
                    continue
                dfs = list(fs)
                if d == c:
                    dfs[d] = axes[d].cos_syn[:, md.k[d]]
                    sign = +1.0
                else:
                    dfs[d] = axes[d].sin_syn[:, md.k[d]]
                    sign = -1.0
                gpsi[idx, c, d] = md.coef[c] * sign * kappa[d] * _outer3(*dfs)

    cellvol = grid.cell_volume
    gram = cellvol * np.einsum("iag,jag->ij", psi.reshape(m, 3, -1), psi.reshape(m, 3, -1))
    dev = np.max(np.abs(gram - np.eye(m)))
    if dev > 1e-12:
        # polish: mix modes by the inverse Cholesky factor of the Gram
        L = np.linalg.cholesky(gram)
        mix = np.linalg.inv(L)
        psi = np.einsum("ij,j...->i...", mix, psi)
        gpsi = np.einsum("ij,j...->i...", mix, gpsi)

    face_samples = {}
    for patch in grid.patches:
        n1, n2 = patch.nodes[0].size, patch.nodes[1].size
        vals = np.zeros((m, 3, n1, n2))
        for idx, md in enumerate(modes):
            for c in range(3):
                if md.coef[c] == 0.0 or c == patch.axis:
                    continue  # sine factor vanishes on its own face
                parts = [
                    _face_factor(axes, a, md.k[a], a == c, patch.axis, patch.side)
                    for a in range(3)
                ]
                plane = [parts[a] for a in patch.plane_axes]
                scalar = parts[patch.axis]
                vals[idx, c] = md.coef[c] * scalar * np.outer(plane[0], plane[1])
        face_samples[patch.kind] = vals

    k_max = tuple(max(md.k[a] for md in modes) for a in range(3))
    return VelocityBasis(
        modes=modes, samples=psi, grad=gpsi, face_samples=face_samples, k_max=k_max
    )


def build_temperature_basis(grid: QuadratureGrid, m: int) -> TemperatureBasis:
    """First m all-cosine modes by Laplace eigenvalue, constant mode first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lengths = grid.spec.lengths
    modes = temperature_modes(lengths, tuple(dealias_cap(n) for n in grid.shape), m)

    axes = spectral.axes_for(grid)
    phi = np.zeros((m, *grid.shape))
    gphi = np.zeros((m, 3, *grid.shape))
    for idx, md in enumerate(modes):
        fs = _sample_axis_factors(grid, axes, md.k, sin_axis=None)
        phi[idx] = md.amplitude * _outer3(*fs)
        for d in range(3):
            kap = md.k[d] * math.pi / lengths[d]
            if kap == 0.0:
                continue
            dfs = list(fs)
            dfs[d] = axes[d].sin_syn[:, md.k[d]]
            gphi[idx, d] = -md.amplitude * kap * _outer3(*dfs)

    k_max = tuple(max(md.k[a] for md in modes) for a in range(3))
    return TemperatureBasis(
        modes=modes,
        samples=phi,
        grad=gphi,
        eigenvalues=np.array([md.eigenvalue for md in modes]),
        k_max=k_max,
    )


# ---------------------------------------------------------------------------
# Evaluations of the lifting needed by the forms


@dataclass
class FaceDelta:
    values: np.ndarray     # [comp, f1, f2]
    grad: np.ndarray       # [comp, dir, f1, f2], grad[c, d] = d_d delta_c


@dataclass
class DeltaEval:
    """The lifting delta and its time derivative, sampled where forms need it."""

    values: np.ndarray                 # [comp, n1, n2, n3]
    grad: np.ndarray                   # [comp, dir, n1, n2, n3]
    dt_values: np.ndarray              # [comp, n1, n2, n3]
    faces: dict                        # PatchKind -> FaceDelta


def sym_grad(grad: np.ndarray) -> np.ndarray:
    """D[i, j] = d_i u_j + d_j u_i from grad[c, d] = d_d u_c (any trailing shape)."""
    gt = np.swapaxes(grad, 0, 1)   # gt[i, j] = d_i u_j
    return gt + np.swapaxes(gt, 0, 1)


# ---------------------------------------------------------------------------
# Assembled forms


@dataclass
class AssembledForms:
    """Time-independent matrices/tensors plus builders for the lifting terms."""

    grid: QuadratureGrid
    vb: VelocityBasis
    tb: TemperatureBasis
    nu: float
    gamma: float
    kappa_heat: float
    s2_stress_includes_nu: bool
    K_visc: np.ndarray = field(init=False)
    K_fric: np.ndarray = field(init=False)
    K_theta: np.ndarray = field(init=False)
    G_grad_w: np.ndarray = field(init=False)
    T_vel: np.ndarray = field(init=False)
    T_th: np.ndarray = field(init=False)

    def __post_init__(self):
        grid = self.grid
        for a in range(3):
            needed = 3 * max(self.vb.k_max[a], self.tb.k_max[a])
            if needed > 2 * grid.shape[a] - 1:
                raise AliasingError(
                    f"axis {a}: triple products reach wavenumber {needed} beyond "
                    f"the exact band {2 * grid.shape[a] - 1}"
                )
        m = self.vb.m
        mt = self.tb.m
        cellvol = grid.cell_volume
        psi = self.vb.samples.reshape(m, 3, -1)
        gpsi = self.vb.grad.reshape(m, 3, 3, -1)
        dpsi = np.swapaxes(gpsi, 1, 2) + gpsi  # D[i,j] = d_i psi_j + d_j psi_i

        self.K_visc = self.nu * cellvol * np.einsum("iabg,jabg->ij", dpsi, dpsi)
        self.G_grad_w = cellvol * np.einsum("icdg,jcdg->ij", gpsi, gpsi)

        fric = np.zeros((m, m))
        for patch in grid.patches:
            if patch.kind.is_cap:
                continue
            vals = self.vb.face_samples[patch.kind]
            for tau in (patch.tau1, patch.tau2):
                wt = np.einsum("c,icxy->ixy", tau, vals)
                fric += patch.weight * np.einsum("ixy,jxy->ij", wt, wt)
        self.K_fric = self.gamma * fric

        gphi = self.tb.grad.reshape(mt, 3, -1)
        self.K_theta = self.kappa_heat * cellvol * np.einsum(
            "iag,jag->ij", gphi, gphi
        )

        # trilinear transport tensors, chunked to bound memory
        phi = self.tb.samples.reshape(mt, -1)
        self.T_vel = np.empty((m, m, m))
        for i in range(m):
            conv = np.einsum("ag,jcag->jcg", psi[i], gpsi)
            self.T_vel[i] = cellvol * conv.reshape(m, -1) @ psi.reshape(m, -1).T
        self.T_th = np.empty((m, mt, mt))
        for i in range(m):
            adv = np.einsum("ag,jag->jg", psi[i], gphi)
            self.T_th[i] = cellvol * adv @ phi.T

    # -- static projections -------------------------------------------------

    def project_velocity(self, values: np.ndarray) -> np.ndarray:
        """<values, psi_j> for a sampled vector field."""
        m = self.vb.m
        return self.grid.cell_volume * np.einsum(
            "jcg,cg->j",
            self.vb.samples.reshape(m, 3, -1),
            values.reshape(3, -1),
        )

    def project_temperature(self, values: np.ndarray) -> np.ndarray:
        mt = self.tb.m
        return self.grid.cell_volume * np.einsum(
            "jg,g->j", self.tb.samples.reshape(mt, -1), values.reshape(-1)
        )

    # -- lifting-dependent pieces --------------------------------------------

    def delta_matrices(self, delta: DeltaEval):
        """(G_wdelta, G_deltaw, G_dtheta): the linear-in-state couplings.

        G_wdelta[l, i] = <psi_i . grad(delta), psi_l>
        G_deltaw[l, i] = <delta . grad(psi_i), psi_l>
        G_dtheta[l, i] = <delta . grad(phi_i), phi_l>
        """
        grid = self.grid
        m, mt = self.vb.m, self.tb.m
        cv = grid.cell_volume
        psi = self.vb.samples.reshape(m, 3, -1)
        gpsi = self.vb.grad.reshape(m, 3, 3, -1)
        dgrad = delta.grad.reshape(3, 3, -1)    # [c, d]
        dvals = delta.values.reshape(3, -1)
        gphi = self.tb.grad.reshape(mt, 3, -1)
        # (psi_i . grad(delta))_c = sum_a psi_i_a d_a delta_c
        wd = np.einsum("iag,cag->icg", psi, dgrad).reshape(m, -1)
        # (delta . grad(psi_i))_c = sum_a delta_a d_a psi_i_c
        dw = np.einsum("ag,icag->icg", dvals, gpsi).reshape(m, -1)
        dth = np.einsum("ag,iag->ig", dvals, gphi)
        psi_flat = psi.reshape(m, -1)
        phi = self.tb.samples.reshape(mt, -1)
        return cv * (psi_flat @ wd.T), cv * (psi_flat @ dw.T), cv * (phi @ dth.T)

    def forcing_F_volume(self, delta: DeltaEval) -> np.ndarray:
        """<-delta_t - delta . grad(delta), psi_j>."""
        dvals = delta.values
        adv = np.einsum("ag,cag->cg", dvals.reshape(3, -1), delta.grad.reshape(3, 3, -1))
        integrand = -delta.dt_values.reshape(3, -1) - adv
        m = self.vb.m
        return self.grid.cell_volume * np.einsum(
            "jcg,cg->j", self.vb.samples.reshape(m, 3, -1), integrand
        )

    def forcing_F_form(self, delta: DeltaEval) -> np.ndarray:
        """-(nu/2) int D(delta):D(psi_j): the volume piece of nu div D(delta)."""
        m = self.vb.m
        gpsi = self.vb.grad.reshape(m, 3, 3, -1)
        ddelta = sym_grad(delta.grad).reshape(3, 3, -1)
        # D(delta):D(psi) = 2 sum_{cd} D(delta)[c,d] d_d psi_c by symmetry
        val = 2.0 * self.grid.cell_volume * np.einsum("cdg,jcdg->j", ddelta, gpsi)
        return -(self.nu / 2.0) * val

    def _face_stress(self, patch, fdelta: FaceDelta) -> list[np.ndarray]:
        """n . D(delta) . tau_alpha on one face, for alpha = 1, 2."""
        dsym = sym_grad(fdelta.grad)   # [i, j, f1, f2]
        out = []
        for tau in (patch.tau1, patch.tau2):
            out.append(
                np.einsum("i,ijxy,j->xy", patch.normal, dsym, tau)
            )
        return out

    def boundary_functionals(self, delta: DeltaEval):
        """(B_vec, F_bdry): the weak-form boundary data of the lifting.

        B_vec[j] = sum_patches sum_alpha int B_alpha(delta) psi_j . tau_alpha,
        with B = -nu n.D(delta).tau - gamma delta.tau on the lateral wall and
        B = -n.D(delta).tau on the caps (no nu factor there unless the
        sensitivity switch is set).

        F_bdry[j] = +nu sum_S sum_alpha int (n.D(delta).tau)(psi_j.tau), the
        boundary remainder of integrating nu div D(delta) by parts.
        """
        m = self.vb.m
        B = np.zeros(m)
        Fb = np.zeros(m)
        for patch in self.grid.patches:
            fdelta = delta.faces[patch.kind]
            stresses = self._face_stress(patch, fdelta)
            vals = self.vb.face_samples[patch.kind]
            for tau, stress in zip((patch.tau1, patch.tau2), stresses):
                psi_tau = np.einsum("c,icxy->ixy", tau, vals)
                if patch.kind.is_cap:
                    coef = self.nu if self.s2_stress_includes_nu else 1.0
                    bdata = -coef * stress
                else:
                    delta_tau = np.einsum("c,cxy->xy", tau, fdelta.values)
                    bdata = -self.nu * stress - self.gamma * delta_tau
                B += patch.weight * np.einsum("xy,ixy->i", bdata, psi_tau)
                Fb += self.nu * patch.weight * np.einsum("xy,ixy->i", stress, psi_tau)
        return B, Fb

    def friction_quadratic(self, c: np.ndarray) -> float:
        """gamma sum_alpha |w . tau_alpha|^2 over the lateral wall."""
        return float(c @ self.K_fric @ c)


def assemble_forms(
    vb: VelocityBasis,
    tb: TemperatureBasis,
    grid: QuadratureGrid,
    nu: float,
    gamma: float,
    kappa_heat: float,
    s2_stress_includes_nu: bool = False,
) -> AssembledForms:
    return AssembledForms(
        grid=grid,
        vb=vb,
        tb=tb,
        nu=nu,
        gamma=gamma,
        kappa_heat=kappa_heat,
        s2_stress_includes_nu=s2_stress_includes_nu,
    )

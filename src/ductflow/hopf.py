"""Logarithmic boundary cutoff, flux profiles and the lifting field b.

The inflow/outflow data d = (d1, d2) on the end caps is lifted into the
volume as b = alpha * e3 with alpha = sum_i d~_i eta_i, where eta is the
classical logarithmic cutoff

    eta(sigma) = 1                     for sigma <= r = rho exp(-1/eps),
               = -eps * log(sigma/rho) for r < sigma <= rho,
               = 0                     for sigma > rho,

evaluated in the distance sigma_i to cap i. The slope obeys
|eta'(sigma)| <= eps/sigma, which is what makes the advective coupling of
the lifting controllably small when eps is. Extensions d~_i are constant
in x3, so the trace of b on each cap reproduces the data exactly and
div b = sum_i d~_i eta_i'(sigma_i) sigma_i'(x3) is available in closed form.

The data are d1 = d2 = s(t) g (FluxProfile, built by profile_by_name) and
the lifting is linear in them, so the lifting here is that of the cap
shape g alone and takes no time. sample_cap_shape evaluates g, g1 and g2
once per run into one CapShape, which validate_profile (the one check of
the data for `check` and `run`; it reads s only as its sup over the
horizon), cap_norms, build_b and the solver's couplings and ledger read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import DomainSpec, QuadratureGrid
from .errors import RegimeError


@dataclass(frozen=True)
class HopfParams:
    """Cutoff parameters (eps, rho) with r = rho * exp(-1/eps) derived.

    rho < 1 is required so that rho^(mu + 1/3) < rho^(1/6) in the layer
    estimates.
    """

    eps: float
    rho: float

    def __post_init__(self):
        if not self.eps > 0:
            raise RegimeError(f"eps must be positive, got {self.eps}")
        if not (0.0 < self.rho < 1.0):
            raise RegimeError(f"rho must lie in (0, 1), got {self.rho}")

    @property
    def r(self) -> float:
        return self.rho * math.exp(-1.0 / self.eps)


def select_params(nu: float, d_tilde_norm: float, c_cal: float = 1.0) -> HopfParams:
    """Pick (eps, rho) from viscosity and the flux-extension norm.

    eps = nu / (8 c ||d~||), rho = eps^6, which makes the smallness
    certificate c (eps + rho^(1/6)) ||d~|| = nu/4 hold with equality; the
    equality is asserted before returning. A norm so large that rho
    underflows to 0, an infinite one included, is rejected by its value.
    """
    if not d_tilde_norm > 0:
        raise RegimeError("flux extension norm must be positive for auto-selection")
    if not nu > 0:
        raise RegimeError("viscosity must be positive")
    if not c_cal > 0:
        raise RegimeError(f"c_cal must be positive, got {c_cal}")
    eps = nu / (8.0 * c_cal * d_tilde_norm)
    rho = eps**6
    if rho == 0.0:  # eps = 0 at an infinite norm
        raise RegimeError(f"flux extension norm {d_tilde_norm:.6g} too large for auto-selection: "
                          f"rho = eps^6 underflows to 0 at eps = {eps:.6g}")
    if rho >= 1.0:
        raise RegimeError(
            f"auto-selected rho = {rho:.6g} >= 1: flux too small relative to "
            "viscosity for the cutoff regime; pass manual parameters or a "
            "larger calibration constant"
        )
    params = HopfParams(eps=eps, rho=rho)
    lhs = c_cal * (eps + rho ** (1.0 / 6.0)) * d_tilde_norm
    if not math.isclose(lhs, nu / 4.0, rel_tol=1e-12):
        raise RegimeError(
            f"smallness certificate violated: c(eps + rho^(1/6))||d~|| = {lhs}"
            f" != nu/4 = {nu / 4.0}"
        )
    return params


def hopf_eta(sigma, params: HopfParams):
    """Cutoff value; total on sigma >= 0, continuous at both kinks."""
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    out = np.zeros_like(sigma)
    r = params.r
    out[sigma <= r] = 1.0
    mid = (sigma > r) & (sigma <= params.rho)
    out[mid] = -params.eps * np.log(sigma[mid] / params.rho)
    return out if out.ndim else float(out)


def hopf_eta_prime(sigma, params: HopfParams):
    """Cutoff slope: 0, -eps/sigma, 0 on the three branches; total on
    sigma >= 0, like hopf_eta, with the inner-branch value 0 at sigma = 0.

    At the kinks the logarithmic-branch value is returned: -eps/r at
    sigma = r and -eps/rho at sigma = rho.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma must be nonnegative")
    out = np.zeros_like(sigma)
    r = params.r
    mid = (sigma > 0) & (sigma >= r) & (sigma <= params.rho)
    out[mid] = -params.eps / sigma[mid]
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Flux profiles


@dataclass(frozen=True)
class FluxProfile:
    """Inflow d1 on the bottom cap and outflow d2 on the top: d1 = d2 = s(t) g.

    ``g(x1, x2)`` is the cap shape (amplitude included) with analytic in-cap
    gradients ``g1``, ``g2``; ``s = 1 + beta sin(2 pi t / P)`` is the time
    factor, with beta = 0 (so s = 1) for every profile but ``pulsed``, its
    analytic derivative ``s_t`` and ``s_sup(H)``, the sup of |s| over
    [0, H]. sample_cap_shape evaluates g, g1 and g2.
    """

    name: str
    g: Callable
    g1: Callable
    g2: Callable
    s: Callable
    s_t: Callable
    s_sup: Callable


def _cap_shape(parabolic: bool, amplitude: float, spec: DomainSpec):
    """The cap shape g and its in-cap gradient (g1, g2): the constant
    `amplitude` or the product parabola, zero on the cap rim, peak `amplitude`."""
    if not parabolic:
        def flat(value):
            return lambda x1, x2: np.full(np.broadcast(x1, x2).shape, value)

        return flat(amplitude), flat(0.0), flat(0.0)
    L1, L2 = spec.L1, spec.L2

    def g(x1, x2):
        return amplitude * (16.0 * x1 * (L1 - x1) * x2 * (L2 - x2) / (L1**2 * L2**2))

    def g1(x1, x2):
        return amplitude * (16.0 * (L1 - 2.0 * x1) * x2 * (L2 - x2) / (L1**2 * L2**2))

    def g2(x1, x2):
        return amplitude * (16.0 * x1 * (L1 - x1) * (L2 - 2.0 * x2) / (L1**2 * L2**2))

    return g, g1, g2


def profile_by_name(name: str, spec: DomainSpec, amplitude: float = 1.0, beta: float = 0.5,
                    period: float = 1.0) -> FluxProfile:
    """The named profile s(t) g with s = 1 + beta sin(2 pi t / P): g is the
    constant `amplitude` (0 for ``none``) or, for ``parabolic-cap`` and
    ``pulsed``, the parabola; beta = 0 but for ``pulsed``, whose beta < 1
    keeps the flux positive. Amplitude 0 is no flux once the parameters are
    valid; a ValueError names the rejected parameter and states its value."""
    if name not in ("none", "constant", "parabolic-cap", "pulsed"):
        raise ValueError(f"unknown flux profile {name!r}")
    if name != "none" and amplitude < 0:
        raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
    if name != "pulsed":
        beta, period = 0.0, 1.0
    elif not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1) for a pulsed profile, got {beta}")
    elif not period > 0:
        raise ValueError(f"period must be positive for a pulsed profile, got {period}")
    if name == "none" or amplitude == 0:
        name, amplitude = "none", 0.0
    g, g1, g2 = _cap_shape(name in ("parabolic-cap", "pulsed"), amplitude, spec)
    om = 2.0 * math.pi / period

    def s(t):
        return 1.0 + beta * math.sin(om * t)

    def s_t(t):
        return beta * om * math.cos(om * t)

    def s_sup(horizon):
        # s rises from 1 to its peak 1 + beta at t = P/4
        return 1.0 + beta * (1.0 if horizon >= period / 4.0 else math.sin(om * horizon))

    return FluxProfile(name=name, g=g, g1=g1, g2=g2, s=s, s_t=s_t, s_sup=s_sup)


@dataclass(frozen=True)
class CapShape:
    """The cap shape g of a run, sampled once. Both caps have the nodes
    grid.x1 x grid.x2, so one array serves both: ``rim`` is g there framed
    by the rim nodes x1 = 0, L1 and x2 = 0, L2 (build_b's walls read them),
    ``g`` its contiguous interior, ``grad`` (g1, g2) on the cap nodes and
    ``totals`` g's integrals (I_lo, I_hi) over the lower and the upper cap."""

    rim: np.ndarray
    g: np.ndarray
    grad: tuple[np.ndarray, np.ndarray]
    totals: tuple[float, float]


@np.errstate(over="ignore", invalid="ignore")
def sample_cap_shape(profile: FluxProfile, grid: QuadratureGrid) -> CapShape:
    """g, g1 and g2 of the profile, each evaluated once, on the cap nodes
    (g on the rim-framed nodes as well), and g's two cap totals."""
    x1, x2 = (np.concatenate([[0.0], x, [L]]) for x, L in zip((grid.x1, grid.x2), grid.spec.lengths))
    rim = profile.g(x1[:, None], x2[None, :])
    g = np.ascontiguousarray(rim[1:-1, 1:-1])
    grad = tuple(fn(grid.x1[:, None], grid.x2[None, :]) for fn in (profile.g1, profile.g2))
    return CapShape(rim=rim, g=g, grad=grad, totals=tuple(patch.integrate(g) for patch in grid.caps))


def compatibility_residual(totals, s):
    """|s I_lo - s I_hi| / max(1, |s I_lo|) for the cap totals of g and a
    scalar or an array of time factors s, as |I_lo - I_hi| min(|s|, 1/|I_lo|):
    non-decreasing in |s| to the bit, and exactly 0 where the totals agree."""
    lo, hi = totals
    return abs(lo - hi) * np.minimum(np.abs(s), 1.0 / abs(lo) if lo else math.inf)


def validate_profile(shape: CapShape, s_sup: float) -> float:
    """The worst compatibility residual of d1 = d2 = s(t) g over a horizon
    on which sup |s| is s_sup; raises ValueError on negative data, on cap
    totals beyond the float range or on a residual above 1e-12. As
    s >= 1 - beta > 0, s g < -1e-13 at some time exactly when
    g < -1e-13 / s_sup, and the residual peaks at s_sup."""
    if np.any(shape.g < -1e-13 / s_sup):
        raise ValueError("flux d1 negative")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        residual = float(compatibility_residual(shape.totals, s_sup))
    if not math.isfinite(residual):
        raise ValueError("flux data too large: its cap totals are not finite")
    if residual > 1e-12:
        raise ValueError(f"flux compatibility violated: residual {residual:.3e}")
    return residual


# ---------------------------------------------------------------------------
# Extension of the data into the volume


@dataclass
class ExtensionB:
    """The lifting b = alpha e3 with analytic derivatives.

    alpha, grad_alpha[d] and div_b (= grad_alpha[2]) are nodal samples; b
    and its gradient are alpha and grad_alpha in the e3 row. faces holds
    alpha sampled on each boundary patch, in grid.patches order.
    """

    alpha: np.ndarray
    grad_alpha: np.ndarray
    div_b: np.ndarray
    faces: list


def build_b(shape: CapShape, params: HopfParams, grid: QuadratureGrid) -> ExtensionB:
    """The lifting of the sampled cap shape g, alpha = g(x1, x2) eta(x3), on
    the grid and every boundary patch, and its analytic gradient on the
    grid; eta is the sum of the cap cutoffs (disjoint supports, rho < a),
    evaluated once on the x3 nodes extended by the caps' coordinates. On a
    cap eta is exactly 1, so alpha there is g to machine precision and the
    cap stress d_c alpha is (g1, g2), which the forms read of the shape."""
    spec = grid.spec
    if params.rho >= spec.a:
        raise RegimeError(f"rho = {params.rho} >= a = {spec.a}: cap neighborhoods overlap")
    x3 = np.concatenate([[-spec.a], grid.x3, [spec.a]])
    sig_lo = x3 + spec.a
    sig_hi = spec.a - x3
    eta = hopf_eta(sig_lo, params) + hopf_eta(sig_hi, params)
    # sigma' = +1 toward the bottom cap coordinate, -1 toward the top
    slope = hopf_eta_prime(np.stack([sig_lo, sig_hi]), params)
    etap = slope[0] - slope[1]
    # on a face its own axis takes the first or the last extended node
    at = [[-p.side if a == p.axis else slice(1, -1) for a in range(3)] for p in grid.patches]
    faces = [np.multiply.outer(shape.rim[i1, i2], eta[i3]) for i1, i2, i3 in at]
    g, (g1, g2), eta, etap = shape.g, shape.grad, eta[1:-1], etap[1:-1]
    alpha = np.multiply.outer(g, eta)
    grad_alpha = np.stack([np.multiply.outer(f, e) for f, e in ((g1, eta), (g2, eta), (g, etap))])
    return ExtensionB(alpha=alpha, grad_alpha=grad_alpha, div_b=grad_alpha[2], faces=faces)


# ---------------------------------------------------------------------------
# Cap norms of the data (the budget bookkeeping collapses to these because
# the extension is constant in x3; the data s(t) g have |s(t)| times the
# norms of g, and their time derivative |s'(t)| times its W^1_{6/5} norm)


@dataclass(frozen=True)
class FluxNorms:
    """Cap norms of the cap shape g that the audit reads."""

    w13_cap: tuple[float, float]     # W^1_3 norm of g on each cap
    l2_cap: tuple[float, float]
    l3_cap: tuple[float, float]
    l1_cap: tuple[float, float]
    g_l2_cap: tuple[float, float]    # L2 norm of the in-cap gradient
    w1_65_dt_cap: tuple[float, float]

    @property
    def w13_inf_total(self) -> float:
        """sum_i ||d~_i||_{W^1_{3,inf}}; equals the cap W^1_3 norms."""
        return sum(self.w13_cap)


@np.errstate(over="ignore", invalid="ignore")
def cap_norms(shape: CapShape, grid: QuadratureGrid) -> FluxNorms:
    """Cap norms of the sampled shape g (s = 1), with the W^1_{6/5} norm of
    g in place of that of the time derivative (s' = 1): the same on both
    caps, which share their nodes, weight and sample. A norm beyond the
    float range is inf, which select_params and the audit report."""
    v, (gx, gy), cap = shape.g, shape.grad, grid.caps[0]

    def w1(p):
        return sum(cap.integrate(np.abs(f) ** p) for f in (v, gx, gy)) ** (1.0 / p)

    norms = (w1(3), math.sqrt(cap.integrate(v * v)), cap.integrate(np.abs(v) ** 3) ** (1.0 / 3.0),
             cap.integrate(np.abs(v)), math.sqrt(cap.integrate(gx * gx + gy * gy)), w1(6.0 / 5.0))
    # one pair (lower cap, upper cap) per field, in field order
    return FluxNorms(*zip(norms, norms))

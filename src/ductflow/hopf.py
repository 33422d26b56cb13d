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
shape g alone and takes no time. The time factor s(t) enters only above
it: in the solver's couplings, reconstruction and ledger, and in
validate_profile, the one check of the data for `check` and `run` alike,
which reads g once per cap and s only as its sup over the horizon.
build_b samples alpha on the grid and the six boundary patches and its
gradient on the grid; the forms read the cap stress as g's (g1, g2).
compatibility_residual is the one formula for the flux compatibility.
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
    equality is asserted before returning.
    """
    if not d_tilde_norm > 0:
        raise RegimeError("flux extension norm must be positive for auto-selection")
    if not nu > 0:
        raise RegimeError("viscosity must be positive")
    if not c_cal > 0:
        raise RegimeError(f"c_cal must be positive, got {c_cal}")
    eps = nu / (8.0 * c_cal * d_tilde_norm)
    rho = eps**6
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
    [0, H]. The lifting is linear in the data, so delta(t) = s(t) delta_1,
    where delta_1 lifts g alone.
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


def compatibility_residual(cap_integrals, s):
    """|s I_lo - s I_hi| / max(1, |s I_lo|), with I_lo, I_hi the integrals of
    the cap shape g over the lower and the upper cap, for a scalar or an
    array of time factors s."""
    in_lo, in_hi = (s * x for x in cap_integrals)
    return np.abs(in_lo - in_hi) / np.maximum(1.0, np.abs(in_lo))


def validate_profile(profile: FluxProfile, grid: QuadratureGrid, horizon: float) -> float:
    """The worst compatibility residual of d1 = d2 = s(t) g over [0, horizon];
    raises ValueError on negative d1, then d2, on cap totals beyond the float
    range or on a residual above 1e-12. As s >= 1 - beta > 0, s g < -1e-13
    at some time exactly when g < -1e-13 / s_sup, and the totals overflow and
    the residual (not decreasing in |s|) peak at s_sup: g is read once per
    cap, and s only as s_sup(horizon)."""
    s = profile.s_sup(horizon)
    g_cap = [profile.g(*patch.meshgrid()) for patch in grid.caps]
    for which, g in zip(("d1", "d2"), g_cap):
        if np.any(g < -1e-13 / s):
            raise ValueError(f"flux {which} negative")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        residual = float(compatibility_residual([patch.integrate(g) for patch, g in zip(grid.caps, g_cap)], s))
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


def build_b(profile: FluxProfile, params: HopfParams, grid: QuadratureGrid) -> ExtensionB:
    """The lifting of the cap shape g, alpha = g(x1, x2) eta(x3), on the grid
    and every boundary patch, and its analytic gradient on the grid; eta is
    the sum of the cap cutoffs (disjoint supports, rho < a), evaluated once
    on the x3 nodes extended by the caps' coordinates. On a cap eta is
    exactly 1, so alpha there is g to machine precision and the cap stress
    d_c alpha is g's in-cap gradient, which the forms read of g itself."""
    spec = grid.spec
    if params.rho >= spec.a:
        raise RegimeError(
            f"rho = {params.rho} >= a = {spec.a}: cap neighborhoods overlap"
        )
    ends = {(p.axis, p.side): p.coord for p in grid.patches}
    x1, x2, x3 = (np.concatenate([[ends[a, 0]], x, [ends[a, 1]]])
                  for a, x in enumerate((grid.x1, grid.x2, grid.x3)))
    sig_lo = x3 + spec.a
    sig_hi = spec.a - x3
    eta = hopf_eta(sig_lo, params) + hopf_eta(sig_hi, params)
    # sigma' = +1 toward the bottom cap coordinate, -1 toward the top
    slope = hopf_eta_prime(np.stack([sig_lo, sig_hi]), params)
    etap = slope[0] - slope[1]
    g = profile.g(x1[:, None], x2[None, :])
    # on a face its own axis takes the first or the last extended node
    at = [[-p.side if a == p.axis else slice(1, -1) for a in range(3)] for p in grid.patches]
    faces = [np.multiply.outer(g[i1, i2], eta[i3]) for i1, i2, i3 in at]
    g, eta, etap = g[1:-1, 1:-1], eta[1:-1], etap[1:-1]
    g1, g2 = (fn(grid.x1[:, None], grid.x2[None, :]) for fn in (profile.g1, profile.g2))
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


def cap_norms(profile: FluxProfile, grid: QuadratureGrid) -> FluxNorms:
    """Cap norms of the shape g (s = 1), with the W^1_{6/5} norm of g in
    place of that of the time derivative (s' = 1)."""
    per_cap = []
    for patch in grid.caps:
        X, Y = patch.meshgrid()
        v, gx, gy = profile.g(X, Y), profile.g1(X, Y), profile.g2(X, Y)

        def w1(p):
            return sum(patch.integrate(np.abs(f) ** p) for f in (v, gx, gy)) ** (1.0 / p)

        per_cap.append((
            w1(3),
            math.sqrt(patch.integrate(v * v)),
            patch.integrate(np.abs(v) ** 3) ** (1.0 / 3.0),
            patch.integrate(np.abs(v)),
            math.sqrt(patch.integrate(gx * gx + gy * gy)),
            w1(6.0 / 5.0),
        ))
    # one tuple (lower cap, upper cap) per field, in field order
    return FluxNorms(*zip(*per_cap))

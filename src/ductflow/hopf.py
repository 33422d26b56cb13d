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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .domain import DomainSpec, PatchKind, QuadratureGrid
from .errors import RegimeError


class KinkWarning(UserWarning):
    """Emitted when the cutoff slope is evaluated exactly at a branch kink."""


@dataclass(frozen=True)
class HopfParams:
    """Cutoff parameters (eps, rho) with r = rho * exp(-1/eps) derived.

    rho < 1 is required so that rho^(mu + 1/3) < rho^(1/6) in the layer
    estimates; c_cal is the calibration constant of the auto-selection rule.
    """

    eps: float
    rho: float
    c_cal: float = 1.0

    def __post_init__(self):
        if not self.eps > 0:
            raise RegimeError(f"eps must be positive, got {self.eps}")
        if not (0.0 < self.rho < 1.0):
            raise RegimeError(f"rho must lie in (0, 1), got {self.rho}")
        if not self.c_cal > 0:
            raise RegimeError(f"c_cal must be positive, got {self.c_cal}")

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
    eps = nu / (8.0 * c_cal * d_tilde_norm)
    rho = eps**6
    if rho >= 1.0:
        raise RegimeError(
            f"auto-selected rho = {rho:.6g} >= 1: flux too small relative to "
            "viscosity for the cutoff regime; pass manual parameters or a "
            "larger calibration constant"
        )
    params = HopfParams(eps=eps, rho=rho, c_cal=c_cal)
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


def hopf_eta_prime(sigma, params: HopfParams, warn_on_kink: bool = True):
    """Cutoff slope: 0, -eps/sigma, 0 on the three branches.

    At the kinks sigma = r and sigma = rho the logarithmic-branch value is
    returned and a KinkWarning is emitted; quadrature nodes never land
    there, so this only matters for direct probing.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive for the slope")
    out = np.zeros_like(sigma)
    r = params.rho * math.exp(-1.0 / params.eps)
    mid = (sigma >= r) & (sigma <= params.rho)
    out[mid] = -params.eps / sigma[mid]
    if warn_on_kink and np.any((sigma == r) | (sigma == params.rho)):
        warnings.warn("cutoff slope evaluated exactly at a kink", KinkWarning)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Flux profiles


@dataclass(frozen=True)
class FluxProfile:
    """Inflow d1 on the bottom cap and outflow d2 on the top: d1 = d2 = s(t) g.

    ``g(x1, x2)`` is the cap shape (amplitude included) with analytic in-cap
    gradients ``g1``, ``g2``; ``s`` is the time factor with analytic
    derivative ``s_t`` and ``s_sup(H)``, the sup of |s| over [0, H]. The
    lifting is linear in the data, so delta(t) = s(t) delta_1, where
    delta_1 lifts g alone.
    """

    name: str
    g: Callable
    g1: Callable
    g2: Callable
    s: Callable
    s_t: Callable
    s_sup: Callable
    params: dict = field(default_factory=dict)

    def d1(self, x1, x2, t):
        return self.s(t) * self.g(x1, x2)

    def d2(self, x1, x2, t):
        return self.s(t) * self.g(x1, x2)

    def unit(self) -> FluxProfile:
        """The cap shape held still (s = 1): its lifting is delta_1."""
        return replace(self, s=_one, s_t=_still, s_sup=_one)


def _one(t):
    return 1.0


def _still(t):
    return 0.0


def _flat(value: float):
    def g(x1, x2):
        return np.full(np.broadcast(x1, x2).shape, value)

    return g


def _steady(name: str, g: Callable, g1: Callable, g2: Callable, params: dict) -> FluxProfile:
    return FluxProfile(
        name=name, g=g, g1=g1, g2=g2, s=_one, s_t=_still, s_sup=_one, params=params
    )


def zero_profile() -> FluxProfile:
    return _steady("none", _flat(0.0), _flat(0.0), _flat(0.0), {})


def constant_profile(amplitude: float) -> FluxProfile:
    if amplitude < 0:
        raise ValueError("flux amplitude must be nonnegative")
    return _steady(
        "constant", _flat(amplitude), _flat(0.0), _flat(0.0), {"amplitude": amplitude}
    )


def _parabolic_shape(amplitude: float, spec: DomainSpec):
    L1, L2 = spec.L1, spec.L2

    def g(x1, x2):
        return amplitude * (16.0 * x1 * (L1 - x1) * x2 * (L2 - x2) / (L1**2 * L2**2))

    def g1(x1, x2):
        return amplitude * (16.0 * (L1 - 2.0 * x1) * x2 * (L2 - x2) / (L1**2 * L2**2))

    def g2(x1, x2):
        return amplitude * (16.0 * x1 * (L1 - x1) * (L2 - 2.0 * x2) / (L1**2 * L2**2))

    return g, g1, g2


def parabolic_profile(amplitude: float, spec: DomainSpec) -> FluxProfile:
    """Product-parabola bump, zero on the cap rim, peak `amplitude`."""
    if amplitude < 0:
        raise ValueError("flux amplitude must be nonnegative")
    return _steady(
        "parabolic-cap", *_parabolic_shape(amplitude, spec), {"amplitude": amplitude}
    )


def pulsed_profile(amplitude: float, beta: float, period: float, spec: DomainSpec) -> FluxProfile:
    """Time-periodic parabolic flux A (1 + beta sin(2 pi t / P)) g(x1, x2).

    beta < 1 keeps the flux strictly positive for all time.
    """
    if amplitude < 0:
        raise ValueError("flux amplitude must be nonnegative")
    if not (0.0 <= beta < 1.0):
        raise ValueError("pulse modulation beta must lie in [0, 1)")
    if not period > 0:
        raise ValueError("pulse period must be positive")
    g, g1, g2 = _parabolic_shape(amplitude, spec)
    om = 2.0 * math.pi / period

    def s(t):
        return 1.0 + beta * math.sin(om * t)

    def s_t(t):
        return beta * om * math.cos(om * t)

    def s_sup(horizon):
        # s rises from 1 to its peak 1 + beta at t = P/4
        return 1.0 + beta * (1.0 if horizon >= period / 4.0 else math.sin(om * horizon))

    return FluxProfile(
        name="pulsed",
        g=g, g1=g1, g2=g2,
        s=s, s_t=s_t, s_sup=s_sup,
        params={"amplitude": amplitude, "beta": beta, "period": period},
    )


def profile_by_name(name: str, spec: DomainSpec, **kw) -> FluxProfile:
    """The named profile; amplitude 0 is no flux, once its parameters are valid."""
    if name == "none":
        return zero_profile()
    amplitude = kw.get("amplitude", 1.0)
    if name == "constant":
        profile = constant_profile(amplitude)
    elif name == "parabolic-cap":
        profile = parabolic_profile(amplitude, spec)
    elif name == "pulsed":
        profile = pulsed_profile(amplitude, kw.get("beta", 0.5), kw.get("period", 1.0), spec)
    else:
        raise ValueError(f"unknown flux profile {name!r}")
    return zero_profile() if amplitude == 0 else profile


def check_compatibility(profile: FluxProfile, grid: QuadratureGrid, t: float) -> float:
    """compatibility_residual of the data d1, d2 sampled on the caps at t."""
    d1 = profile.d1(*grid.patch(PatchKind.CAP_LO).meshgrid(), t)
    d2 = profile.d2(*grid.patch(PatchKind.CAP_HI).meshgrid(), t)
    return compatibility_residual(grid, d1, d2)


def compatibility_residual(grid: QuadratureGrid, d1: np.ndarray, d2: np.ndarray) -> float:
    """|int d1 - int d2| over the caps, normalized by max(1, int d1), from the
    data sampled on the lower (d1) and the upper (d2) cap."""
    in1 = grid.patch(PatchKind.CAP_LO).integrate(d1)
    in2 = grid.patch(PatchKind.CAP_HI).integrate(d2)
    return abs(in1 - in2) / max(1.0, abs(in1))


def validate_profile(profile: FluxProfile, grid: QuadratureGrid, times) -> None:
    """Nonnegativity and compatibility at the given times (raises on failure)."""
    lo = grid.patch(PatchKind.CAP_LO)
    X, Y = lo.meshgrid()
    for t in np.atleast_1d(times):
        for i, d in ((1, profile.d1), (2, profile.d2)):
            vals = d(X, Y, t)
            if np.any(vals < -1e-13):
                raise ValueError(f"flux d{i} negative at t={t}")
        res = check_compatibility(profile, grid, float(t))
        if res > 1e-12:
            raise ValueError(f"flux compatibility violated at t={t}: residual {res:.3e}")


# ---------------------------------------------------------------------------
# Extension of the data into the volume


@dataclass
class ExtensionB:
    """The lifting b = alpha e3 with analytic derivatives.

    alpha, grad_alpha[d] and div_b (= grad_alpha[2]) are nodal samples; b
    and its gradient are alpha and grad_alpha in the e3 row.
    """

    alpha: np.ndarray
    grad_alpha: np.ndarray
    div_b: np.ndarray


def _eta_prime_total(sigma: np.ndarray, params: HopfParams) -> np.ndarray:
    """Cutoff slope extended by its inner-branch value 0 at sigma = 0."""
    sigma = np.asarray(sigma, dtype=float)
    out = np.zeros_like(sigma)
    r = params.r
    mid = (sigma > r) & (sigma <= params.rho)
    out[mid] = -params.eps / sigma[mid]
    return out


def _eta_profiles(x3: np.ndarray, spec: DomainSpec, params: HopfParams):
    sig_lo = x3 + spec.a
    sig_hi = spec.a - x3
    eta_lo = hopf_eta(sig_lo, params)
    eta_hi = hopf_eta(sig_hi, params)
    # sigma' = +1 toward the bottom cap coordinate, -1 toward the top
    etap_lo = _eta_prime_total(sig_lo, params)
    etap_hi = -_eta_prime_total(sig_hi, params)
    return eta_lo, eta_hi, etap_lo, etap_hi


def build_b(
    profile: FluxProfile,
    params: HopfParams,
    grid: QuadratureGrid,
    t: float,
) -> ExtensionB:
    """Assemble the lifting and its analytic derivatives at time t."""
    spec = grid.spec
    if params.rho >= spec.a:
        raise RegimeError(
            f"rho = {params.rho} >= a = {spec.a}: cap neighborhoods overlap"
        )
    eta_lo, eta_hi, etap_lo, etap_hi = _eta_profiles(grid.x3, spec, params)
    X1, X2, _ = grid.meshgrid()
    x1c = X1[:, :, 0]
    x2c = X2[:, :, 0]
    s = profile.s(t)
    # d1 = d2 = s g, and the two cutoffs have disjoint supports (rho < a)
    d, d_g1, d_g2 = (
        s * fn(x1c, x2c)[:, :, None] for fn in (profile.g, profile.g1, profile.g2)
    )
    eta = (eta_lo + eta_hi)[None, None, :]
    etap = (etap_lo + etap_hi)[None, None, :]
    alpha = d * eta
    grad_alpha = np.stack([d_g1 * eta, d_g2 * eta, d * etap])
    return ExtensionB(alpha=alpha, grad_alpha=grad_alpha, div_b=grad_alpha[2])


def b_on_face(
    profile: FluxProfile,
    params: HopfParams,
    grid: QuadratureGrid,
    patch,
    t: float,
):
    """(alpha, grad_alpha) sampled on a boundary patch.

    On the caps the cutoff is exactly 1 at its own cap and 0 at the opposite
    one, so alpha reproduces the trace data to machine precision.
    """
    spec = grid.spec
    g1, g2 = patch.meshgrid()
    if patch.kind.is_cap:
        x3 = np.full(g1.shape, patch.coord)
        x1, x2 = g1, g2
    else:
        x3 = g2  # lateral patches have plane axes (other horizontal, x3)
        if patch.axis == 0:
            x1 = np.full(g1.shape, patch.coord)
            x2 = g1
        else:
            x2 = np.full(g1.shape, patch.coord)
            x1 = g1
    eta_lo, eta_hi, etap_lo, etap_hi = _eta_profiles(np.clip(x3, -spec.a, spec.a), spec, params)
    s = profile.s(t)
    d = s * profile.g(x1, x2)
    eta = eta_lo + eta_hi
    alpha = d * eta
    grad_alpha = np.stack(
        [
            s * profile.g1(x1, x2) * eta,
            s * profile.g2(x1, x2) * eta,
            d * (etap_lo + etap_hi),
        ]
    )
    return alpha, grad_alpha


# ---------------------------------------------------------------------------
# Cap norms of the data (the budget bookkeeping collapses to these because
# the extension is constant in x3)


@dataclass(frozen=True)
class FluxNorms:
    """Per-instant norms of the boundary data used by the audit."""

    w13_cap: tuple[float, float]     # W^1_3 norm of d_i on its cap
    l2_cap: tuple[float, float]
    l3_cap: tuple[float, float]
    l1_cap: tuple[float, float]
    g_l2_cap: tuple[float, float]    # L2 norm of the in-cap gradient
    w1_65_dt_cap: tuple[float, float]

    @property
    def w13_inf_total(self) -> float:
        """sum_i ||d~_i||_{W^1_{3,inf}}; equals the cap W^1_3 norms."""
        return sum(self.w13_cap)

    def scaled(self, s: float, s_t: float) -> FluxNorms:
        """The norms of s times the data, with s_t scaling the time derivative."""
        return FluxNorms(
            w13_cap=tuple(s * x for x in self.w13_cap),
            l2_cap=tuple(s * x for x in self.l2_cap),
            l3_cap=tuple(s * x for x in self.l3_cap),
            l1_cap=tuple(s * x for x in self.l1_cap),
            g_l2_cap=tuple(s * x for x in self.g_l2_cap),
            w1_65_dt_cap=tuple(s_t * x for x in self.w1_65_dt_cap),
        )


def cap_norms(profile: FluxProfile, grid: QuadratureGrid) -> FluxNorms:
    """Cap norms of the shape g (s = 1), with the W^1_{6/5} norm of g in
    place of that of the time derivative (s' = 1)."""
    w13, l2, l3, l1, gl2, w165 = [], [], [], [], [], []
    p = 6.0 / 5.0
    for patch in (grid.patch(PatchKind.CAP_LO), grid.patch(PatchKind.CAP_HI)):
        X, Y = patch.meshgrid()
        v, gx, gy = profile.g(X, Y), profile.g1(X, Y), profile.g2(X, Y)
        w13.append(
            (
                patch.integrate(np.abs(v) ** 3)
                + patch.integrate(np.abs(gx) ** 3)
                + patch.integrate(np.abs(gy) ** 3)
            )
            ** (1.0 / 3.0)
        )
        l2.append(math.sqrt(patch.integrate(v * v)))
        l3.append(patch.integrate(np.abs(v) ** 3) ** (1.0 / 3.0))
        l1.append(patch.integrate(np.abs(v)))
        gl2.append(math.sqrt(patch.integrate(gx * gx + gy * gy)))
        w165.append(
            (
                patch.integrate(np.abs(v) ** p)
                + patch.integrate(np.abs(gx) ** p)
                + patch.integrate(np.abs(gy) ** p)
            )
            ** (1.0 / p)
        )
    return FluxNorms(
        w13_cap=tuple(w13),
        l2_cap=tuple(l2),
        l3_cap=tuple(l3),
        l1_cap=tuple(l1),
        g_l2_cap=tuple(gl2),
        w1_65_dt_cap=tuple(w165),
    )


def flux_norms(profile: FluxProfile, grid: QuadratureGrid, t: float) -> FluxNorms:
    """Cap norms of d_i(t) = s(t) g: |s(t)| times those of g, and |s'(t)|
    times the W^1_{6/5} norm of g for the time derivative."""
    return cap_norms(profile, grid).scaled(abs(profile.s(t)), abs(profile.s_t(t)))

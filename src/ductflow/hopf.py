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
from dataclasses import dataclass, field
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
    """Time-dependent inflow d1 on the bottom cap and outflow d2 on the top.

    Each callable takes (x1, x2, t) broadcast arrays and returns samples.
    ``d<i>_t`` are analytic time derivatives, ``d<i>_g1/g2`` the in-cap
    gradients; all are required for the norm bookkeeping of the audit.
    """

    name: str
    d1: Callable
    d2: Callable
    d1_t: Callable
    d2_t: Callable
    d1_g1: Callable
    d1_g2: Callable
    d2_g1: Callable
    d2_g2: Callable
    is_static: bool
    params: dict = field(default_factory=dict)

    def cap_fn(self, i: int, which: str = "value") -> Callable:
        table = {
            (1, "value"): self.d1,
            (2, "value"): self.d2,
            (1, "dt"): self.d1_t,
            (2, "dt"): self.d2_t,
            (1, "g1"): self.d1_g1,
            (2, "g1"): self.d2_g1,
            (1, "g2"): self.d1_g2,
            (2, "g2"): self.d2_g2,
        }
        return table[(i, which)]


def _zero(x1, x2, t):
    return np.zeros(np.broadcast(x1, x2).shape)


def zero_profile() -> FluxProfile:
    return FluxProfile(
        name="none",
        d1=_zero, d2=_zero, d1_t=_zero, d2_t=_zero,
        d1_g1=_zero, d1_g2=_zero, d2_g1=_zero, d2_g2=_zero,
        is_static=True,
    )


def constant_profile(amplitude: float) -> FluxProfile:
    if amplitude < 0:
        raise ValueError("flux amplitude must be nonnegative")

    def val(x1, x2, t):
        return np.full(np.broadcast(x1, x2).shape, amplitude)

    return FluxProfile(
        name="constant",
        d1=val, d2=val, d1_t=_zero, d2_t=_zero,
        d1_g1=_zero, d1_g2=_zero, d2_g1=_zero, d2_g2=_zero,
        is_static=True,
        params={"amplitude": amplitude},
    )


def _parabolic_shape(spec: DomainSpec):
    L1, L2 = spec.L1, spec.L2

    def g(x1, x2):
        return 16.0 * x1 * (L1 - x1) * x2 * (L2 - x2) / (L1**2 * L2**2)

    def g1(x1, x2):
        return 16.0 * (L1 - 2.0 * x1) * x2 * (L2 - x2) / (L1**2 * L2**2)

    def g2(x1, x2):
        return 16.0 * x1 * (L1 - x1) * (L2 - 2.0 * x2) / (L1**2 * L2**2)

    return g, g1, g2


def parabolic_profile(amplitude: float, spec: DomainSpec) -> FluxProfile:
    """Product-parabola bump, zero on the cap rim, peak `amplitude`."""
    if amplitude < 0:
        raise ValueError("flux amplitude must be nonnegative")
    g, g1, g2 = _parabolic_shape(spec)

    def val(x1, x2, t):
        return amplitude * g(x1, x2)

    def gg1(x1, x2, t):
        return amplitude * g1(x1, x2)

    def gg2(x1, x2, t):
        return amplitude * g2(x1, x2)

    return FluxProfile(
        name="parabolic-cap",
        d1=val, d2=val, d1_t=_zero, d2_t=_zero,
        d1_g1=gg1, d1_g2=gg2, d2_g1=gg1, d2_g2=gg2,
        is_static=True,
        params={"amplitude": amplitude},
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
    g, g1, g2 = _parabolic_shape(spec)
    om = 2.0 * np.pi / period

    def tf(t):
        return 1.0 + beta * np.sin(om * t)

    def tf_t(t):
        return beta * om * np.cos(om * t)

    def val(x1, x2, t):
        return amplitude * tf(t) * g(x1, x2)

    def val_t(x1, x2, t):
        return amplitude * tf_t(t) * g(x1, x2)

    def gg1(x1, x2, t):
        return amplitude * tf(t) * g1(x1, x2)

    def gg2(x1, x2, t):
        return amplitude * tf(t) * g2(x1, x2)

    return FluxProfile(
        name="pulsed",
        d1=val, d2=val, d1_t=val_t, d2_t=val_t,
        d1_g1=gg1, d1_g2=gg2, d2_g1=gg1, d2_g2=gg2,
        is_static=False,
        params={"amplitude": amplitude, "beta": beta, "period": period},
    )


def profile_by_name(name: str, spec: DomainSpec, **kw) -> FluxProfile:
    if name == "none":
        return zero_profile()
    if name == "constant":
        return constant_profile(kw.get("amplitude", 1.0))
    if name == "parabolic-cap":
        return parabolic_profile(kw.get("amplitude", 1.0), spec)
    if name == "pulsed":
        return pulsed_profile(
            kw.get("amplitude", 1.0),
            kw.get("beta", 0.5),
            kw.get("period", 1.0),
            spec,
        )
    raise ValueError(f"unknown flux profile {name!r}")


def check_compatibility(profile: FluxProfile, grid: QuadratureGrid, t: float) -> float:
    """|int d1 - int d2| over the caps, normalized by max(1, int d1)."""
    lo = grid.patch(PatchKind.CAP_LO)
    hi = grid.patch(PatchKind.CAP_HI)
    X, Y = lo.meshgrid()
    in1 = lo.integrate(profile.d1(X, Y, t))
    X, Y = hi.meshgrid()
    in2 = hi.integrate(profile.d2(X, Y, t))
    return abs(in1 - in2) / max(1.0, abs(in1))


def validate_profile(profile: FluxProfile, grid: QuadratureGrid, times) -> None:
    """Nonnegativity and compatibility at the given times (raises on failure)."""
    lo = grid.patch(PatchKind.CAP_LO)
    X, Y = lo.meshgrid()
    for t in np.atleast_1d(times):
        for i in (1, 2):
            vals = profile.cap_fn(i)(X, Y, t)
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

    alpha, grad_alpha[d] and div_b (= grad_alpha[2]) are nodal samples, as
    are the time derivatives alpha_t and div_b_t.
    """

    alpha: np.ndarray
    grad_alpha: np.ndarray
    div_b: np.ndarray
    alpha_t: np.ndarray
    div_b_t: np.ndarray

    @property
    def b(self) -> np.ndarray:
        out = np.zeros((3, *self.alpha.shape))
        out[2] = self.alpha
        return out

    def grad_b(self) -> np.ndarray:
        """grad[c, d] = d_d b_c; only the c = 2 row is nonzero."""
        out = np.zeros((3, 3, *self.alpha.shape))
        out[2] = self.grad_alpha
        return out


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

    def caps(which):
        c1 = profile.cap_fn(1, which)(x1c, x2c, t)[:, :, None]
        c2 = profile.cap_fn(2, which)(x1c, x2c, t)[:, :, None]
        return c1, c2

    d1, d2 = caps("value")
    d1t, d2t = caps("dt")
    d1g1, d2g1 = caps("g1")
    d1g2, d2g2 = caps("g2")

    el = eta_lo[None, None, :]
    eh = eta_hi[None, None, :]
    epl = etap_lo[None, None, :]
    eph = etap_hi[None, None, :]

    alpha = d1 * el + d2 * eh
    grad_alpha = np.stack(
        [
            d1g1 * el + d2g1 * eh,
            d1g2 * el + d2g2 * eh,
            d1 * epl + d2 * eph,
        ]
    )
    return ExtensionB(
        alpha=alpha,
        grad_alpha=grad_alpha,
        div_b=grad_alpha[2],
        alpha_t=d1t * el + d2t * eh,
        div_b_t=d1t * epl + d2t * eph,
    )


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
    d1 = profile.d1(x1, x2, t)
    d2 = profile.d2(x1, x2, t)
    alpha = d1 * eta_lo + d2 * eta_hi
    grad_alpha = np.stack(
        [
            profile.d1_g1(x1, x2, t) * eta_lo + profile.d2_g1(x1, x2, t) * eta_hi,
            profile.d1_g2(x1, x2, t) * eta_lo + profile.d2_g2(x1, x2, t) * eta_hi,
            d1 * etap_lo + d2 * etap_hi,
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


def flux_norms(profile: FluxProfile, grid: QuadratureGrid, t: float) -> FluxNorms:
    lo = grid.patch(PatchKind.CAP_LO)
    hi = grid.patch(PatchKind.CAP_HI)
    w13, l2, l3, l1, gl2, w165 = [], [], [], [], [], []
    for i, patch in ((1, lo), (2, hi)):
        X, Y = patch.meshgrid()
        v = profile.cap_fn(i)(X, Y, t)
        gx = profile.cap_fn(i, "g1")(X, Y, t)
        gy = profile.cap_fn(i, "g2")(X, Y, t)
        vt = profile.cap_fn(i, "dt")(X, Y, t)
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
        # time derivative enters through its own W^1_{6/5} cap norm
        p = 6.0 / 5.0
        w165.append(
            (
                patch.integrate(np.abs(vt) ** p)
                + patch.integrate(np.abs(_dt_grad(profile, i, "g1", X, Y, t)) ** p)
                + patch.integrate(np.abs(_dt_grad(profile, i, "g2", X, Y, t)) ** p)
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


def _dt_grad(profile: FluxProfile, i: int, which: str, X, Y, t, dt=1e-5):
    """Time derivative of a cap gradient, centered difference fallback.

    Built-in profiles have separable time factors, so this stays accurate;
    static profiles return zero immediately.
    """
    if profile.is_static:
        return np.zeros(np.broadcast(X, Y).shape)
    fn = profile.cap_fn(i, which)
    return (fn(X, Y, t + dt) - fn(X, Y, t - dt)) / (2.0 * dt)

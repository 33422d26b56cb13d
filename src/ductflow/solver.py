"""Galerkin time integration and field reconstruction.

State is the pair of coefficient vectors (c, dcoef) for the homogenized
velocity w = sum c_i psi_i and temperature theta = sum dcoef_i phi_i. The
physical velocity is reconstructed as v = w + delta, where delta = b +
grad(phi) carries the boundary flux; the temperature needs no lifting.

Time stepping is IMEX: the stiff linear forms (viscous + friction, heat
diffusion) go through a Crank-Nicolson solve factorized once, everything
else (transport, lifting couplings, boundary functionals, forcing) is
advanced with a second-order Adams-Bashforth extrapolation restarted at
window joints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import hopf as hopf_mod
from . import poisson as poisson_mod
from .basis import (
    AssembledForms,
    DeltaEval,
    FaceDelta,
    TemperatureBasis,
    VelocityBasis,
    assemble_forms,
    build_temperature_basis,
    build_velocity_basis,
)
from .domain import DomainSpec, PatchKind, QuadratureGrid, build_domain
from .errors import NumericalAbort, RegimeError, ScenarioError
from .hopf import (
    FluxProfile,
    HopfParams,
    cap_norms,
    flux_norms,
    profile_by_name,
    select_params,
)


# ---------------------------------------------------------------------------
# Scenario configuration


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one run; parsed from a scenario file."""

    # domain
    L1: float = 1.0
    L2: float = 1.0
    a: float = 1.0
    N1: int = 16
    N2: int = 16
    N3: int = 32
    # physics
    nu: float = 1.0
    kappa_heat: float = 1.0
    gamma: float = 1.0
    omega_kind: str = "constant"       # constant | linear | bounded_smooth
    omega0: float = 1.0
    omega1: float = 0.0
    # forcing
    forcing_kind: str = "zero"         # zero | constant | shear
    forcing_vector: tuple = (0.0, 0.0, 0.0)
    forcing_amplitude: float = 0.0
    # flux
    flux_profile: str = "none"         # none | constant | parabolic-cap | pulsed
    flux_amplitude: float = 0.0
    flux_beta: float = 0.5
    flux_period: float = 1.0
    # cutoff parameters
    hopf_mode: str = "manual"          # auto | manual
    hopf_eps: float = 0.5
    hopf_rho: float = 0.5
    hopf_c_cal: float = 1.0
    # initial data
    init_v: str = "zero"               # zero | extension | modes
    init_v_amplitude: float = 0.0
    init_v_nmodes: int = 4
    init_theta: str = "zero"           # zero | constant | bump | front
    init_theta_mean: float = 0.0
    init_theta_amplitude: float = 0.0
    # time
    T: float = 0.5
    n_windows: int = 2
    dt: float = 2.0e-3
    # galerkin
    m: int = 16
    # audit
    mu: float = 0.8
    c_budget: float = 1.0
    c_recon: float = 1.0
    c_theta: float = 1.0
    theta_star: float = 1.0
    theta_star_upper: float = 2.0
    tol_overshoot: float = 0.01
    s2_stress_nu: bool = False

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{f.name} must be finite, got {value}")
        vec = self.forcing_vector
        if len(vec) != 3 or not all(math.isfinite(v) for v in vec):
            raise ScenarioError(f"forcing vector must be three finite numbers, got {vec}")
        try:
            self.domain_spec()
        except ValueError as exc:
            raise ScenarioError(f"domain: {exc}")
        if min(self.nu, self.kappa_heat) <= 0 or self.gamma < 0:
            raise ScenarioError("nu, kappa must be positive and gamma nonnegative")
        if self.gamma == 0:
            raise ScenarioError("gamma must be positive (slip friction coefficient)")
        if self.omega_kind not in ("constant", "linear", "bounded_smooth"):
            raise ScenarioError(f"unknown omega kind {self.omega_kind!r}")
        if self.forcing_kind not in ("zero", "constant", "shear"):
            raise ScenarioError(f"unknown forcing kind {self.forcing_kind!r}")
        if self.T <= 0:
            raise ScenarioError("window length T must be positive")
        if self.n_windows < 1:
            raise ScenarioError("need at least one window")
        if self.dt <= 0:
            raise ScenarioError("dt must be positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ScenarioError("window length T must be an integer multiple of dt")
        if self.m < 1:
            raise ScenarioError("m must be >= 1")
        if not (self.mu > 2.0 / 3.0 and self.mu < 1.0):
            raise ScenarioError("audit exponent mu must lie in (2/3, 1)")
        if not (0 < self.theta_star < self.theta_star_upper):
            raise ScenarioError("need 0 < theta_star < theta_star_upper")
        if self.hopf_mode not in ("auto", "manual"):
            raise ScenarioError(f"unknown hopf mode {self.hopf_mode!r}")
        if self.init_v not in ("zero", "extension", "modes"):
            raise ScenarioError(f"unknown initial velocity kind {self.init_v!r}")
        if self.init_theta not in ("zero", "constant", "bump", "front"):
            raise ScenarioError(f"unknown initial temperature kind {self.init_theta!r}")

    @property
    def steps_per_window(self) -> int:
        return int(round(self.T / self.dt))

    def domain_spec(self) -> DomainSpec:
        return DomainSpec(
            L1=self.L1, L2=self.L2, a=self.a, N1=self.N1, N2=self.N2, N3=self.N3
        )


def omega_of(config: ScenarioConfig) -> Callable:
    if config.omega_kind == "constant":
        return lambda th: np.full_like(np.asarray(th, float), config.omega0)
    if config.omega_kind == "linear":
        return lambda th: config.omega0 + config.omega1 * np.asarray(th, float)
    return lambda th: config.omega0 + config.omega1 * np.tanh(np.asarray(th, float))


def forcing_field(config: ScenarioConfig, grid: QuadratureGrid) -> np.ndarray:
    out = np.zeros((3, *grid.shape))
    if config.forcing_kind == "zero":
        return out
    if config.forcing_kind == "constant":
        for c in range(3):
            out[c] = config.forcing_vector[c]
        return out
    # "shear": vertical force modulated across x1; has a nonzero projection
    # onto the divergence-free zero-flux basis, unlike a constant force
    X1 = grid.meshgrid()[0]
    out[2] = config.forcing_amplitude * np.cos(np.pi * X1 / grid.spec.L1)
    return out


def horizon_times(config: ScenarioConfig, per_window: int) -> np.ndarray:
    """Evenly spaced instants over the whole run [0, n_windows T], ends included."""
    n_windows = config.n_windows
    return np.linspace(0.0, n_windows * config.T, per_window * n_windows + 1)


def pick_hopf_params(
    config: ScenarioConfig, profile: FluxProfile, grid: QuadratureGrid
) -> Optional[HopfParams]:
    """The cutoff parameters a run uses; `check` reports the same decision.

    None without flux; the configured pair in manual mode; in auto mode the
    select_params rule applied to the sup of ||d~|| over the whole horizon,
    which is sup |s| there times the W^1_3 total of the cap shape g.
    Raises RegimeError when the parameters fall outside the admissible regime.
    """
    if profile.name == "none":
        return None
    if config.hopf_mode == "manual":
        params = HopfParams(eps=config.hopf_eps, rho=config.hopf_rho, c_cal=config.hopf_c_cal)
    else:
        shape_norm = flux_norms(profile.unit(), grid, 0.0).w13_inf_total
        sup_norm = profile.s_sup(config.n_windows * config.T) * shape_norm
        params = select_params(config.nu, sup_norm, config.hopf_c_cal)
    if params.rho >= config.a:
        raise RegimeError(f"rho = {params.rho} >= a = {config.a}: cap neighborhoods overlap")
    return params


# ---------------------------------------------------------------------------
# The lifting provider


class DeltaProvider:
    """delta(t) = s(t) delta_1 and its couplings, from one lifting per run.

    delta_1 = b + grad(phi) lifts the cap shape g held still (s = 1). The
    lifting is linear in the data, so delta(t) = s(t) delta_1, delta_t =
    s'(t) delta_1, and every coupling with the bases and every norm the
    audit samples is s or s^2 times a fixed number or array. The lifting and
    those numbers are built once, on first use, and are all the run loop
    reads; calling the provider evaluates delta(t) on the grid.
    """

    def __init__(
        self,
        profile: FluxProfile,
        params: Optional[HopfParams],
        grid: QuadratureGrid,
        forms: AssembledForms,
    ):
        self.profile = profile
        self.params = params
        self.grid = grid
        self.forms = forms
        self.is_zero = profile.name == "none"

    def __call__(self, t: float) -> Optional[DeltaEval]:
        if self.is_zero:
            return None
        delta_1 = self.lifting[2]
        s = self.profile.s(t)
        faces = {
            kind: FaceDelta(values=s * f.values, grad=s * f.grad)
            for kind, f in delta_1.faces.items()
        }
        return DeltaEval(
            values=s * delta_1.values,
            grad=s * delta_1.grad,
            dt_values=self.profile.s_t(t) * delta_1.values,
            faces=faces,
        )

    @cached_property
    def lifting(self):
        """(ext, sol, delta_1): b, the Neumann solution and delta_1 with faces."""
        grid = self.grid
        shape = self.profile.unit()
        ext = hopf_mod.build_b(shape, self.params, grid, 0.0)
        sol = poisson_mod.solve_neumann(ext.div_b, grid)
        delta = poisson_mod.delta_field(ext, sol, grid)
        faces = {}
        for patch in grid.patches:
            alpha_f, galpha_f = hopf_mod.b_on_face(shape, self.params, grid, patch, 0.0)
            gphi_f = poisson_mod.grad_on_face(sol, grid, patch)
            hphi_f = poisson_mod.hess_on_face(sol, grid, patch)
            vals = gphi_f.copy()
            vals[2] += alpha_f
            fgrad = hphi_f.copy()
            fgrad[2] += galpha_f
            faces[patch.kind] = FaceDelta(values=vals, grad=fgrad)
        delta_1 = DeltaEval(
            values=delta.values,
            grad=delta.grad,
            dt_values=np.zeros_like(delta.values),
            faces=faces,
        )
        return ext, sol, delta_1

    @cached_property
    def couplings(self) -> dict:
        """The couplings of delta_1: G_wd, G_dw, G_dth, B, F_bdry, F_form,
        P = P(delta_1), F_adv = -P(delta_1 . grad delta_1), Q with
        Q_i = <grad psi_i, grad delta_1>, and the squared norms l2sq of
        delta_1 and gradsq of its gradient."""
        forms = self.forms
        grid = self.grid
        delta_1 = self.lifting[2]
        out = dict(zip(("G_wd", "G_dw", "G_dth"), forms.delta_matrices(delta_1)))
        out["B"], out["F_bdry"] = forms.boundary_functionals(delta_1)
        out["F_form"] = forms.forcing_F_form(delta_1)
        out["P"] = forms.project_velocity(delta_1.values)
        out["F_adv"] = forms.forcing_F_volume(delta_1)  # delta_1 is still: dt_values = 0
        gpsi = forms.vb.grad.reshape(forms.vb.m, 3, 3, -1)
        out["Q"] = grid.cell_volume * np.einsum(
            "icdg,cdg->i", gpsi, delta_1.grad.reshape(3, 3, -1)
        )
        out["l2sq"] = grid.integrate(np.sum(delta_1.values**2, axis=0))
        out["gradsq"] = grid.integrate(np.sum(delta_1.grad**2, axis=(0, 1)))
        return out


# ---------------------------------------------------------------------------
# State and stepping


@dataclass(frozen=True)
class State:
    t: float
    c: np.ndarray
    dcoef: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.c)) and np.all(np.isfinite(self.dcoef))):
            raise ValueError("non-finite state coefficients")


class ImexStepper:
    """Crank-Nicolson for a fixed SPD matrix, AB2 for the explicit part."""

    def __init__(self, L: np.ndarray, dt: float):
        n = L.shape[0]
        eye = np.eye(n)
        self._solve = cho_factor(eye + 0.5 * dt * L)
        self._B = eye - 0.5 * dt * L
        self.dt = dt

    def step(self, x, E_now, E_prev=None):
        if E_prev is None:
            expl = E_now
        else:
            expl = 1.5 * E_now - 0.5 * E_prev
        return cho_solve(self._solve, self._B @ x + self.dt * expl)


@dataclass
class RunResult:
    config: ScenarioConfig
    times: np.ndarray
    series: dict
    coeffs_w: np.ndarray
    coeffs_th: np.ndarray
    steps_per_window: int
    n_windows: int
    dt_stability_estimate: float

    def window_joint_indices(self) -> np.ndarray:
        return np.arange(self.n_windows + 1) * self.steps_per_window


SERIES_KEYS = [
    "t",
    "w_l2sq", "w_gradsq", "w_h1sq",
    "th_l2sq", "th_gradsq", "th_h1sq",
    "fric_sq",
    "th_min", "th_max", "th_integral", "th_l1", "inflow_theta",
    "flux_trace_err", "compat_residual",
    "delta_l2sq", "delta_gradsq",
    "v_l2sq", "v_gradsq",
    "omega_f_65sq", "omega_f_l3sq",
    "d_w13_total", "d_w13_sq_sum", "ddt_w165_sq_sum",
    "d_l2_sum", "d_l2_sq_sum", "d_l3_cap1", "d_l1_cap1",
    "d_h1_ext", "d_l2_ext",
]


# The configuration fields the assembled system (grid, bases, forms and the
# Crank-Nicolson factors) depends on; nothing else in a config reaches it.
SYSTEM_FIELDS = ("L1", "L2", "a", "N1", "N2", "N3", "m", "nu", "gamma", "kappa_heat",
                 "s2_stress_nu", "dt")
_SYSTEM_ATTRS = ("patches", "grid", "vb", "tb", "forms", "_psi_flat", "_phi_flat",
                 "_stepper_w", "_stepper_th")


class GalerkinSolver:
    """Owns the assembled system and advances it through the windows.

    ``reuse`` is another solver whose config agrees on SYSTEM_FIELDS; its
    system is shared instead of built again (the calibration companion runs
    on the scenario run's system). A reuse that differs raises ValueError.
    """

    def __init__(self, config: ScenarioConfig, reuse: Optional[GalerkinSolver] = None):
        config.validate()
        self.config = config
        if reuse is None:
            self._build_system()
        else:
            differ = [f for f in SYSTEM_FIELDS if getattr(config, f) != getattr(reuse.config, f)]
            if differ:
                raise ValueError(f"cannot reuse a solver whose {', '.join(differ)} differ")
            for name in _SYSTEM_ATTRS:
                setattr(self, name, getattr(reuse, name))
        self._bind_scenario()

    def _build_system(self) -> None:
        """Grid, bases, forms and factorizations: the SYSTEM_FIELDS part."""
        config = self.config
        self.patches, self.grid = build_domain(config.domain_spec())
        self.vb: VelocityBasis = build_velocity_basis(self.grid, config.m)
        self.tb: TemperatureBasis = build_temperature_basis(self.grid, config.m)
        self.forms: AssembledForms = assemble_forms(
            self.vb,
            self.tb,
            self.grid,
            nu=config.nu,
            gamma=config.gamma,
            kappa_heat=config.kappa_heat,
            s2_stress_includes_nu=config.s2_stress_nu,
        )
        self._psi_flat = self.vb.samples.reshape(config.m, 3, -1)
        self._phi_flat = self.tb.samples.reshape(self.tb.m, -1)
        self._stepper_w = ImexStepper(self.forms.K_visc + self.forms.K_fric, config.dt)
        self._stepper_th = ImexStepper(self.forms.K_theta, config.dt)

    def _bind_scenario(self) -> None:
        """Flux, cutoff, lifting, omega and forcing on top of the system."""
        config = self.config
        self.profile = profile_by_name(
            config.flux_profile,
            self.grid.spec,
            amplitude=config.flux_amplitude,
            beta=config.flux_beta,
            period=config.flux_period,
        )
        if self.profile.name != "none":
            hopf_mod.validate_profile(self.profile, self.grid, horizon_times(config, 8))
        self.hopf_params = pick_hopf_params(config, self.profile, self.grid)
        self.delta_provider = DeltaProvider(self.profile, self.hopf_params, self.grid, self.forms)
        self.omega = omega_of(config)
        self.f_values = forcing_field(config, self.grid)
        # the cap shape sampled once: the data on the caps are s(t) times it
        caps = (PatchKind.CAP_LO, PatchKind.CAP_HI)
        self._g_cap = {kind: self.profile.g(*self.grid.patch(kind).meshgrid()) for kind in caps}
        self._cap_norms = cap_norms(self.profile, self.grid)
        self._E_prev = None

    # -- setup helpers -------------------------------------------------------

    def initial_state(self) -> State:
        cfg = self.config
        m = cfg.m
        if cfg.init_v == "modes":
            weights = 1.0 / np.sqrt(1.0 + np.arange(min(cfg.init_v_nmodes, m)))
            weights = weights / np.linalg.norm(weights)
            c = np.zeros(m)
            c[: weights.size] = cfg.init_v_amplitude * weights
        elif cfg.init_v == "zero" and not self.delta_provider.is_zero:
            # v0 = 0: w0 is the projection of -delta(0) = -s(0) delta_1
            c = -(self.profile.s(0.0) * self.delta_provider.couplings["P"])
        else:
            c = np.zeros(m)
        th0 = self._initial_theta_values()
        dcoef = self.forms.project_temperature(th0)
        return State(t=0.0, c=c, dcoef=dcoef)

    def _initial_theta_values(self) -> np.ndarray:
        cfg = self.config
        if cfg.init_theta == "zero":
            return np.zeros(self.grid.shape)
        if cfg.init_theta == "constant":
            return np.full(self.grid.shape, cfg.init_theta_mean)
        X1, _, X3 = self.grid.meshgrid()
        spec = self.grid.spec
        carrier = np.cos(np.pi * X1 / spec.L1) * np.cos(np.pi * (X3 + spec.a) / (2 * spec.a))
        if cfg.init_theta == "bump":
            # odd saturation of the carrier: smooth, range exactly
            # mean +- amplitude, zero volume average of the profile part
            prof = np.tanh(2.0 * carrier) / math.tanh(2.0)
        else:
            # "front": shifted saturation; its even harmonics populate the
            # bands that separate m = 16 from m = 32, so truncation
            # overshoot demonstrably shrinks under m-refinement
            beta, c0 = 1.2, 0.3
            hi = math.tanh(beta * (1.0 - c0))
            lo = math.tanh(beta * (-1.0 - c0))
            prof = (2.0 * np.tanh(beta * (carrier - c0)) - (hi + lo)) / (hi - lo)
        return cfg.init_theta_mean + cfg.init_theta_amplitude * prof

    # -- right-hand sides ------------------------------------------------------

    def theta_values(self, state: State) -> np.ndarray:
        return (state.dcoef @ self._phi_flat).reshape(self.grid.shape)

    def w_values(self, state: State) -> np.ndarray:
        return np.einsum("i,icg->cg", state.c, self._psi_flat).reshape(3, *self.grid.shape)

    def rhs_terms(self, state: State):
        """(velocity, temperature) dicts of every weak-form term at one state.

        Each dict also carries ``explicit``, the part the Adams-Bashforth
        extrapolation advances, and ``total = explicit - implicit``, where the
        implicit part is the Crank-Nicolson one (``visc + fric`` for the
        velocity, ``diff`` for the temperature). The stepper and the oracle
        tests both read these dicts, so the tested terms are the stepped ones.
        The lifting terms are the provider's couplings of delta_1 scaled by
        s(t) and s'(t) at ``state.t``.
        """
        forms = self.forms
        c, dcoef = state.c, state.dcoef
        vel = {}
        vel["conv_www"] = np.einsum("i,j,ijl->l", c, c, forms.T_vel)
        vel["visc"] = forms.K_visc @ c
        vel["fric"] = forms.K_fric @ c
        theta = self.theta_values(state)
        omega_f = self.omega(theta)[None, :, :, :] * self.f_values
        vel["f_omega"] = forms.project_velocity(omega_f)
        th = {"diff": forms.K_theta @ dcoef}
        adv = np.einsum("i,j,ijl->l", c, dcoef, forms.T_th)
        if not self.delta_provider.is_zero:
            k = self.delta_provider.couplings
            s, s_t = self.profile.s(state.t), self.profile.s_t(state.t)
            vel["conv_wdelta"] = s * (k["G_wd"] @ c)
            vel["conv_deltaw"] = s * (k["G_dw"] @ c)
            vel["B"] = s * k["B"]
            vel["F_bdry"] = s * k["F_bdry"]
            vel["F_vol"] = s * s * k["F_adv"] - s_t * k["P"]
            vel["F_form"] = s * k["F_form"]
            adv = adv + s * (k["G_dth"] @ dcoef)
        else:
            for key in ("conv_wdelta", "conv_deltaw", "B", "F_bdry", "F_vol", "F_form"):
                vel[key] = np.zeros_like(c)
        th["adv"] = adv
        vel["explicit"] = (
            -vel["conv_www"] + vel["f_omega"]
            - vel["conv_wdelta"] - vel["conv_deltaw"]
            + vel["B"] + vel["F_bdry"] + vel["F_vol"] + vel["F_form"]
        )
        vel["total"] = vel["explicit"] - vel["visc"] - vel["fric"]
        th["explicit"] = -th["adv"]
        th["total"] = th["explicit"] - th["diff"]
        return vel, th

    def rhs_velocity(self, state: State, delta: Optional[DeltaEval], return_terms: bool = False):
        """rhs_terms' velocity part; the lifting is the solver's own at state.t."""
        terms, _ = self.rhs_terms(state)
        return (terms["total"], terms) if return_terms else terms["total"]

    def rhs_temperature(self, state: State, delta: Optional[DeltaEval], return_terms: bool = False):
        """rhs_terms' temperature part; the lifting is the solver's own at state.t."""
        _, terms = self.rhs_terms(state)
        return (terms["total"], terms) if return_terms else terms["total"]

    # -- time stepping -----------------------------------------------------------

    def reset_window(self) -> None:
        """Restart the Adams-Bashforth history (used at window joints)."""
        self._E_prev = None

    def step(self, state: State) -> State:
        dt = self.config.dt
        vel, th = self.rhs_terms(state)
        E_w, E_th = vel["explicit"], th["explicit"]
        prev = self._E_prev
        c_new = self._stepper_w.step(state.c, E_w, None if prev is None else prev[0])
        th_new = self._stepper_th.step(state.dcoef, E_th, None if prev is None else prev[1])
        self._E_prev = (E_w, E_th)
        if not (np.all(np.isfinite(c_new)) and np.all(np.isfinite(th_new))):
            raise NumericalAbort(
                f"non-finite state at t = {state.t + dt:.6g}", t=state.t, state=state
            )
        return State(t=state.t + dt, c=c_new, dcoef=th_new)

    def dt_stability_estimate(self, state: State) -> float:
        """Crude advective limit 1 / (|w + delta|_max * kappa_max)."""
        vmax = float(np.max(np.abs(self.w_values(state))))
        if not self.delta_provider.is_zero:
            delta_1 = self.delta_provider.lifting[2]
            vmax += abs(self.profile.s(state.t)) * float(np.max(np.abs(delta_1.values)))
        kmax = max(k * math.pi / L for k, L in zip(self.vb.k_max, self.grid.spec.lengths))
        if vmax * kmax == 0.0:
            return math.inf
        return 1.0 / (vmax * kmax)

    # -- reconstruction and sampling ----------------------------------------------

    def reconstruct(self, state: State):
        """(w, v, theta) nodal values; v = w + delta(t)."""
        w = self.w_values(state)
        delta = self.delta_provider(state.t)
        v = w if delta is None else w + delta.values
        return w, v, self.theta_values(state)

    def flux_trace_error(self, state: State) -> float:
        """max over cap nodes of |v.n - d|; lateral faces are checked too."""
        err = 0.0
        s = self.profile.s(state.t)
        for patch in self.grid.patches:
            vals = np.einsum("i,icxy->cxy", state.c, self.vb.face_samples[patch.kind])
            if not self.delta_provider.is_zero:
                vals = vals + s * self.delta_provider.lifting[2].faces[patch.kind].values
            vn = np.einsum("c,cxy->xy", patch.normal, vals)
            if patch.kind == PatchKind.CAP_LO:
                target = -(s * self._g_cap[patch.kind])
            elif patch.kind == PatchKind.CAP_HI:
                target = s * self._g_cap[patch.kind]
            else:
                target = 0.0
            err = max(err, float(np.max(np.abs(vn - target))))
        return err

    def _sample(self, state: State) -> dict:
        cfg = self.config
        forms = self.forms
        c, dcoef = state.c, state.dcoef
        grid = self.grid
        row = {"t": state.t}
        row["w_l2sq"] = float(c @ c)
        row["w_gradsq"] = float(c @ forms.G_grad_w @ c)
        row["w_h1sq"] = row["w_l2sq"] + row["w_gradsq"]
        row["th_l2sq"] = float(dcoef @ dcoef)
        row["th_gradsq"] = float(dcoef @ (self.tb.eigenvalues * dcoef))
        row["th_h1sq"] = row["th_l2sq"] + row["th_gradsq"]
        row["fric_sq"] = float(c @ forms.K_fric @ c)

        theta = self.theta_values(state)
        row["th_min"] = float(theta.min())
        row["th_max"] = float(theta.max())
        row["th_integral"] = grid.integrate(theta)
        row["th_l1"] = grid.integrate(np.abs(theta))

        s = self.profile.s(state.t)
        d1 = s * self._g_cap[PatchKind.CAP_LO]
        d2 = s * self._g_cap[PatchKind.CAP_HI]
        th_face = np.einsum("i,ixy->xy", dcoef, self.tb.face_samples[PatchKind.CAP_LO])
        row["inflow_theta"] = grid.patch(PatchKind.CAP_LO).integrate(d1 * th_face)

        row["flux_trace_err"] = self.flux_trace_error(state)
        row["compat_residual"] = hopf_mod.compatibility_residual(grid, d1, d2)

        # v = w + s delta_1 in grid quadrature, where |c|^2 and c.G_grad_w.c
        # are the norms of w: ||v||^2 = |c|^2 + 2 s c.P + s^2 ||delta_1||^2,
        # and the gradient the same way with Q
        row["delta_l2sq"] = row["delta_gradsq"] = 0.0
        row["v_l2sq"], row["v_gradsq"] = row["w_l2sq"], row["w_gradsq"]
        if not self.delta_provider.is_zero:
            k = self.delta_provider.couplings
            row["delta_l2sq"] = s * s * k["l2sq"]
            row["delta_gradsq"] = s * s * k["gradsq"]
            row["v_l2sq"] = row["w_l2sq"] + 2.0 * s * float(c @ k["P"]) + row["delta_l2sq"]
            row["v_gradsq"] = row["w_gradsq"] + 2.0 * s * float(c @ k["Q"]) + row["delta_gradsq"]

        th_clamped = np.clip(theta, cfg.theta_star, cfg.theta_star_upper)
        omega_f = self.omega(th_clamped)[None, :, :, :] * self.f_values
        mag = np.sqrt(np.sum(omega_f**2, axis=0))
        row["omega_f_65sq"] = grid.integrate(mag ** (6.0 / 5.0)) ** (2 * 5.0 / 6.0)
        row["omega_f_l3sq"] = grid.integrate(mag**3) ** (2.0 / 3.0)

        fn = self._cap_norms.scaled(abs(self.profile.s(state.t)), abs(self.profile.s_t(state.t)))
        row["d_w13_total"] = fn.w13_inf_total
        row["d_w13_sq_sum"] = sum(x**2 for x in fn.w13_cap)
        row["ddt_w165_sq_sum"] = sum(x**2 for x in fn.w1_65_dt_cap)
        row["d_l2_sum"] = sum(fn.l2_cap)
        row["d_l2_sq_sum"] = sum(x**2 for x in fn.l2_cap)
        row["d_l3_cap1"] = fn.l3_cap[0]
        row["d_l1_cap1"] = fn.l1_cap[0]
        depth = 2.0 * grid.spec.a
        row["d_l2_ext"] = math.sqrt(depth) * sum(fn.l2_cap)
        row["d_h1_ext"] = math.sqrt(depth) * sum(
            math.sqrt(l2**2 + g2**2) for l2, g2 in zip(fn.l2_cap, fn.g_l2_cap)
        )
        return row

    # -- the window loop ------------------------------------------------------------

    def run_windows(self, snapshot_cb: Optional[Callable] = None) -> RunResult:
        cfg = self.config
        state = self.initial_state()
        spw = cfg.steps_per_window
        n_samples = cfg.n_windows * spw + 1
        series = {k: np.zeros(n_samples) for k in SERIES_KEYS}
        coeffs_w = np.zeros((n_samples, cfg.m))
        coeffs_th = np.zeros((n_samples, self.tb.m))

        est = self.dt_stability_estimate(state)
        if cfg.dt > est:
            warnings.warn(
                f"dt = {cfg.dt} exceeds the advective stability estimate {est:.3g}",
                RuntimeWarning,
            )

        def record(idx, st):
            row = self._sample(st)
            for k, vval in row.items():
                series[k][idx] = vval
            coeffs_w[idx] = st.c
            coeffs_th[idx] = st.dcoef
            if snapshot_cb is not None:
                snapshot_cb(idx, st, self)

        record(0, state)
        idx = 1
        for window in range(cfg.n_windows):
            self.reset_window()
            for _ in range(spw):
                state = self.step(state)
                record(idx, state)
                idx += 1

        return RunResult(
            config=cfg,
            times=series["t"].copy(),
            series=series,
            coeffs_w=coeffs_w,
            coeffs_th=coeffs_th,
            steps_per_window=spw,
            n_windows=cfg.n_windows,
            dt_stability_estimate=est,
        )

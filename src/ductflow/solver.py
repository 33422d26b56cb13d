"""Galerkin time integration, field reconstruction and the audit series.

A sample is one row x = (c, dcoef) of the trajectory: the coefficient
vectors of the homogenized velocity w = sum c_i psi_i and the temperature
theta = sum dcoef_i phi_i. The physical velocity is reconstructed as
v = w + delta, where delta = b + grad(phi) carries the boundary flux; the
temperature needs no lifting. Every evaluation at one sample takes the row
and drive, the row (s, s^2, s') of the flux at its time.

Time stepping is IMEX on x: the stiff linear forms (viscous + friction,
heat diffusion) go through Crank-Nicolson with precomputed block-diagonal
propagators, everything else (transport, lifting couplings, the boundary
functional, forcing) is advanced with a second-order Adams-Bashforth
extrapolation restarted at window joints.

The solver holds only per-run constants; the run loop owns what changes
from sample to sample. It keeps one [sample, m + m_t] trajectory and
writes each step into the next row, with s, s^2 and s' of the flux read
from one table per run, and hands each step the explicit part the step
before returned, its AB2 history; the rows just written are checked for
finiteness once per window. After the loop, _ledger derives every
audit series from the stored rows: quadratic forms in c and dcoef, theta's
grid extremes and norms one stored sample at a time, and the boundary data
d = s(t) g through the same table's s and s' times numbers of the cap shape
g computed once per run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import hopf as hopf_mod
from . import poisson as poisson_mod
from .basis import (
    AssembledForms,
    TemperatureBasis,
    VelocityBasis,
    build_temperature_basis,
    build_velocity_basis,
)
from .domain import DomainSpec, QuadratureGrid, build_domain
from .errors import NumericalAbort, RegimeError, ScenarioError
from .hopf import CapShape, FluxNorms, FluxProfile, HopfParams, cap_norms, profile_by_name, select_params


# ---------------------------------------------------------------------------
# Scenario configuration


def _key(key: str, default, choices: tuple = ()):
    """A ScenarioConfig field: its scenario key, its default and, for a kind key, the values it accepts."""
    return field(default=default, metadata={"key": key, "choices": choices})


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one run; parsed from a scenario file. Each field
    states its scenario key and default, and a kind field its accepted
    values, through ``_key``; ``scenario.KEY_MAP`` and ``validate`` read them."""

    L1: float = _key("domain.L1", 1.0)
    L2: float = _key("domain.L2", 1.0)
    a: float = _key("domain.a", 1.0)
    N1: int = _key("domain.N1", 16)
    N2: int = _key("domain.N2", 16)
    N3: int = _key("domain.N3", 32)
    nu: float = _key("physics.nu", 1.0)
    kappa_heat: float = _key("physics.kappa", 1.0)
    gamma: float = _key("physics.gamma", 1.0)
    omega_kind: str = _key("omega.kind", "constant", ("constant", "linear", "bounded_smooth"))
    omega0: float = _key("omega.omega0", 1.0)
    omega1: float = _key("omega.omega1", 0.0)
    forcing_kind: str = _key("forcing.kind", "zero", ("zero", "constant", "shear"))
    forcing_vector: tuple = _key("forcing.vector", (0.0, 0.0, 0.0))
    forcing_amplitude: float = _key("forcing.amplitude", 0.0)
    flux_profile: str = _key("flux.profile", "none", ("none", "constant", "parabolic-cap", "pulsed"))
    flux_amplitude: float = _key("flux.amplitude", 0.0)
    flux_beta: float = _key("flux.beta", 0.5)
    flux_period: float = _key("flux.period", 1.0)
    hopf_mode: str = _key("hopf.mode", "manual", ("auto", "manual"))
    hopf_eps: float = _key("hopf.eps", 0.5)
    hopf_rho: float = _key("hopf.rho", 0.5)
    hopf_c_cal: float = _key("hopf.c_cal", 1.0)
    init_v: str = _key("init.v", "zero", ("zero", "extension", "modes"))
    init_v_amplitude: float = _key("init.v_amplitude", 0.0)
    init_v_nmodes: int = _key("init.v_nmodes", 4)
    init_theta: str = _key("init.theta", "zero", ("zero", "constant", "bump", "front"))
    init_theta_mean: float = _key("init.theta_mean", 0.0)
    init_theta_amplitude: float = _key("init.theta_amplitude", 0.0)
    T: float = _key("time.T", 0.5)
    n_windows: int = _key("time.windows", 2)
    dt: float = _key("time.dt", 2.0e-3)
    m: int = _key("galerkin.m", 16)
    mu: float = _key("audit.mu", 0.8)
    c_budget: float = _key("audit.c_budget", 1.0)
    c_recon: float = _key("audit.c_recon", 1.0)
    c_theta: float = _key("audit.c_theta", 1.0)
    theta_star: float = _key("audit.theta_star", 1.0)
    theta_star_upper: float = _key("audit.theta_star_upper", 2.0)
    tol_overshoot: float = _key("audit.tol_overshoot", 0.01)

    def validate(self) -> None:
        """Raise ScenarioError on the first value out of range; the message
        starts with the scenario key it concerns and states the value."""
        key = {f.name: f.metadata["key"] for f in fields(self)}

        def check(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ScenarioError(f"{key[name]} {rule}, got {getattr(self, name)}")

        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                check(math.isfinite(value), f.name, "must be finite")
            choices = f.metadata["choices"]
            if choices and value not in choices:
                raise ScenarioError(f"{f.metadata['key']} must be one of {', '.join(choices)}; got {value!r}")
        vec = self.forcing_vector
        check(len(vec) == 3 and all(math.isfinite(v) for v in vec), "forcing_vector", "must be three finite numbers")
        try:
            self.domain_spec()
        except ValueError as exc:   # DomainSpec names the fields by their key suffixes
            raise ScenarioError(f"domain.{exc}")
        try:
            profile_of(self)
        except ValueError as exc:   # so does the profile builder for the flux fields
            raise ScenarioError(f"flux.{exc}")
        for name in ("nu", "kappa_heat", "gamma", "T", "dt", "c_budget", "c_recon", "c_theta"):
            check(getattr(self, name) > 0, name, "must be positive")
        for name in ("n_windows", "m"):
            check(getattr(self, name) >= 1, name, "must be >= 1")
        steps = self.T / self.dt
        # a quotient that overflows or rounds to 0 steps passes the checks above
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ScenarioError(f"time.T must be at least one step time.dt, got time.T / time.dt = {steps}")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ScenarioError(f"time.T must be an integer multiple of time.dt, got time.T / time.dt = {steps}")
        check(2.0 / 3.0 < self.mu < 1.0, "mu", "must lie in (2/3, 1)")
        check(self.tol_overshoot >= 0, "tol_overshoot", "must be nonnegative")
        check(0 < self.theta_star < self.theta_star_upper, "theta_star",
              f"must lie in (0, audit.theta_star_upper = {self.theta_star_upper})")
        check(self.init_v != "modes" or self.init_v_nmodes >= 1, "init_v_nmodes", "must be >= 1 when init.v = modes")

    @property
    def forcing_is_zero(self) -> bool:
        """True exactly when forcing_field is identically zero."""
        return (
            self.forcing_kind == "zero"
            or (self.forcing_kind == "constant" and all(v == 0.0 for v in self.forcing_vector))
            or (self.forcing_kind == "shear" and self.forcing_amplitude == 0.0)
        )

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


def profile_of(config: ScenarioConfig) -> FluxProfile:
    """The configured flux profile; `run` and `check` both take it from here."""
    return profile_by_name(config.flux_profile, config.domain_spec(), amplitude=config.flux_amplitude,
                           beta=config.flux_beta, period=config.flux_period)


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
    out[2] = (config.forcing_amplitude * np.cos(np.pi * grid.x1 / grid.spec.L1))[:, None, None]
    return out


def pick_hopf_params(
    config: ScenarioConfig, profile: FluxProfile, shape: CapShape, grid: QuadratureGrid
) -> Optional[HopfParams]:
    """The cutoff parameters a run uses; `check` reports the same decision.

    None without flux; the configured pair in manual mode; in auto mode the
    select_params rule applied to the sup of ||d~|| over the whole horizon,
    which is sup |s| there times the W^1_3 total of the sampled cap shape g.
    Raises RegimeError when the parameters fall outside the admissible regime.
    """
    if profile.name == "none":
        return None
    if config.hopf_mode == "manual":
        params = HopfParams(eps=config.hopf_eps, rho=config.hopf_rho)
        if not config.hopf_c_cal > 0:
            raise RegimeError(f"c_cal must be positive, got {config.hopf_c_cal}")
    else:
        shape_norm = cap_norms(shape, grid).w13_inf_total
        sup_norm = profile.s_sup(config.n_windows * config.T) * shape_norm
        params = select_params(config.nu, sup_norm, config.hopf_c_cal)
    if params.rho >= config.a:
        raise RegimeError(f"rho = {params.rho} >= a = {config.a}: cap neighborhoods overlap")
    return params


# ---------------------------------------------------------------------------
# Stepping


class ImexStepper:
    """Crank-Nicolson for a fixed block-diagonal matrix L, given by its
    diagonal blocks, AB2 for the explicit part. The propagators
    M = A^-1 B and N = dt A^-1 (A = I + dt/2 L, B = I - dt/2 L) are
    precomputed once, block by block: each block is the propagator of that
    block alone, to the bit, and the off-diagonal blocks are exact zeros
    (one inversion of the whole of A leaves them zero too, but rounds the
    diagonal blocks differently). A step is M x + N expl, two matrix-vector
    products and a sum, with no temporary of the state's size."""

    def __init__(self, blocks: list, dt: float):
        n = sum(len(L) for L in blocks)
        self.M, self.N = np.zeros((n, n)), np.zeros((n, n))
        self._expl, self._prop = np.empty(n), np.empty(n)
        start = 0
        for L in blocks:
            block = slice(start, start + len(L))
            eye = np.eye(len(L))
            A_inv = np.linalg.inv(eye + 0.5 * dt * L)
            self.M[block, block] = A_inv @ (eye - 0.5 * dt * L)
            self.N[block, block] = np.multiply(dt, A_inv, out=A_inv)
            start += len(L)

    def step(self, x, E_now, E_prev=None, out=None):
        """M x + N expl, written into ``out`` when given: expl is E_now on a
        fresh start and the AB2 extrapolation 1.5 E_now - 0.5 E_prev after."""
        expl = E_now
        if E_prev is not None:
            expl = np.multiply(E_now, 1.5, self._expl)
            expl -= np.multiply(E_prev, 0.5, self._prop)
        out = np.dot(self.M, x, out)
        out += np.dot(self.N, expl, self._prop)
        return out


@dataclass
class RunResult:
    config: ScenarioConfig
    times: np.ndarray
    series: dict
    coeffs_w: np.ndarray
    coeffs_th: np.ndarray

    def window_joint_indices(self) -> np.ndarray:
        return np.arange(self.config.n_windows + 1) * self.config.steps_per_window


# the ledger synthesizes theta for the stored samples in chunks of at most
# this many bytes: 8 samples on the 16 x 16 x 32 grid, where chunks of 4 to
# 16 samples took half the time of one sample at a time, and 32 or more
# samples as long
LEDGER_CHUNK_BYTES = 2**19


class GalerkinSolver:
    """Owns the assembled system and advances it through the windows."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.grid = build_domain(config.domain_spec())
        self.vb: VelocityBasis = build_velocity_basis(self.grid, config.m)
        self.tb: TemperatureBasis = build_temperature_basis(self.grid, config.m)
        self.forms = AssembledForms(self.grid, self.vb, self.tb, nu=config.nu, gamma=config.gamma)
        # one stepper for the stacked state x = (c, dcoef)
        self._stepper = ImexStepper([np.diag(config.nu * self.vb.rayleigh) + self.forms.K_fric,
                                     np.diag(config.kappa_heat * self.tb.eigenvalues)], config.dt)
        self.profile = profile_of(config)
        self.cap_shape = hopf_mod.sample_cap_shape(self.profile, self.grid)
        hopf_mod.validate_profile(self.cap_shape, self.profile.s_sup(config.n_windows * config.T))
        self.hopf_params = pick_hopf_params(config, self.profile, self.cap_shape, self.grid)
        self.omega = omega_of(config)
        self.f_values = forcing_field(config, self.grid)

    # -- setup helpers -------------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """The first trajectory row x0 = (c, dcoef), checked for finiteness."""
        cfg = self.config
        m = cfg.m
        if cfg.init_v == "modes":
            weights = 1.0 / np.sqrt(1.0 + np.arange(min(cfg.init_v_nmodes, m)))
            weights = weights / np.linalg.norm(weights)
            c = np.zeros(m)
            c[: weights.size] = cfg.init_v_amplitude * weights
        elif cfg.init_v == "zero":
            # v0 = 0: w0 is the projection of -delta(0) = -s(0) delta_1
            c = -(self.drive(0.0)[0] * self.couplings["P"])
        else:
            c = np.zeros(m)
        x0 = np.concatenate([c, self.forms.project_temperature(self._initial_theta_values())])
        if not np.isfinite(x0).all():
            raise NumericalAbort("non-finite state at t = 0", t=0.0)
        return x0

    def _initial_theta_values(self) -> np.ndarray:
        cfg = self.config
        if cfg.init_theta == "zero":
            return np.zeros(self.grid.shape)
        if cfg.init_theta == "constant":
            return np.full(self.grid.shape, cfg.init_theta_mean)
        # the profile is constant in x2: built on [n1, 1, n3], spread on return
        x1, x3 = self.grid.x1[:, None, None], self.grid.x3[None, None, :]
        spec = self.grid.spec
        carrier = np.cos(np.pi * x1 / spec.L1) * np.cos(np.pi * (x3 + spec.a) / (2 * spec.a))
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
        return np.broadcast_to(cfg.init_theta_mean + cfg.init_theta_amplitude * prof, self.grid.shape).copy()

    # -- right-hand sides ------------------------------------------------------

    def theta_values(self, dcoef: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """theta on the grid, expanded through the factor tables: rows dcoef
        [row, mode] give [row, n1, n2, n3], each row as it comes alone,
        written into ``out`` when given."""
        return self.tb.factors.expand(dcoef, 0, out)

    def w_values(self, c: np.ndarray) -> np.ndarray:
        """w on the grid [comp, n1, n2, n3] at the velocity coefficients c,
        expanded through the factor tables one component at a time."""
        return np.stack([self.vb.factors.expand(c, comp) for comp in range(3)])

    def rhs_terms(self, x: np.ndarray, drive: np.ndarray):
        """(velocity, temperature) dicts of every weak-form term at the row
        x = (c, dcoef), drive being (s, s^2, s') at its time.

        Each dict also carries ``explicit``, the part the Adams-Bashforth
        extrapolation advances, its block of the stacked vector that
        ``_explicit`` gives ``step``, and ``total = explicit - implicit``,
        where the implicit part is the Crank-Nicolson one (``visc + fric``
        for the velocity, ``diff`` for the temperature; ``visc`` and ``diff``
        are the bases' spectra, nu rayleigh and kappa lambda, times the
        coefficients). So the oracle
        tests of ``total`` check the stepped quantity. The transport terms
        come from ``forms.transport``, on a transport grid of
        ceil((3 k_a + 1) / 2) midpoint nodes per axis (k_a the larger band
        of the modes), where 3 k_a <= 2 n_a - 1 makes them exact. The lifting terms are the couplings of
        delta_1 scaled by s and s' of ``drive``; without flux they
        are zero. The forcing term comes from ``_f_omega``.
        """
        forms, m = self.forms, self.config.m
        c, dcoef = x[:m], x[m:]
        conv_www, adv = forms.transport(c, c, dcoef)
        vel = {"conv_www": conv_www}
        vel["visc"] = self.config.nu * self.vb.rayleigh * c
        vel["fric"] = forms.K_fric @ c
        vel["f_omega"] = self._f_omega(dcoef)
        k = self.couplings
        s, s_t = drive[0], drive[2]
        vel["conv_wdelta"] = s * (k["G_wd"] @ c)
        vel["conv_deltaw"] = s * (k["G_dw"] @ c)
        vel["bdry"] = s * k["bdry"]
        vel["F_vol"] = s * s * k["F_adv"] - s_t * k["P"]
        vel["F_form"] = s * k["F_form"]
        th = {"diff": self.config.kappa_heat * self.tb.eigenvalues * dcoef}
        th["adv"] = adv + s * (k["G_dth"] @ dcoef)
        explicit = self._explicit(x, drive)
        vel["explicit"], th["explicit"] = explicit[:m], explicit[m:]
        vel["total"] = vel["explicit"] - vel["visc"] - vel["fric"]
        th["total"] = th["explicit"] - th["diff"]
        return vel, th

    @cached_property
    def couplings(self) -> dict:
        """The numbers of delta_1 and of the cap shape g that a run reads.

        delta_1 = b + grad(phi) lifts g, and the lifting is linear in the
        data, so every coupling with the bases and every number the audit
        reads of delta = s(t) delta_1 or of d = s(t) g is s, s', |s|, |s'| or
        a square of one of them times a number or array fixed per run. They
        come of the one build of b, phi and delta_1, made here on first use,
        not at set-up; of its grid fields only delta_1's ``values`` are kept.

        Of delta_1: values, on the grid, which reconstruct scales by s(t);
        its couplings G_wd, G_dw, G_dth and G = blockdiag(G_wd + G_dw,
        G_dth), the one a step applies to x = (c, dcoef); bdry (the boundary
        functional), F_form, P = P(delta_1), F_adv = -P(delta_1 . grad
        delta_1), Q with Q_i = <grad psi_i, grad delta_1>; rows, the stack of bdry + F_form,
        F_adv and -P that a step takes by (s, s^2, s'); the squared norms
        l2sq of delta_1 and gradsq of its gradient; max_abs = max |delta_1|
        on the grid; and trace_gap = max |n.delta_1 - n.(g e3)| over the
        nodes of all boundary patches (g on the caps, 0 on the walls). Of
        g, read of its one sample ``cap_shape`` like E12's cap totals: cap,
        its cap norms, and inflow, inflow_i = int_{lower cap} g phi_i.
        weighted: E10's Hessian ratio, the Neumann residual and
        spectral_tail, and E11's lhs and rhs, at s = 1 and mu = config.mu.

        Without flux every number is an exact zero of the same shape, built
        without b, a Neumann solve or any grid work (the untouched zeros of
        G take no resident memory), and weighted and values are absent: the
        audit skips E10 and E11, and reconstruct adds nothing."""
        forms, grid, shape, params = self.forms, self.grid, self.cap_shape, self.hopf_params
        if params is None:  # g = 0: every number is an exact zero
            m, mt = forms.vb.m, forms.tb.m
            zero = np.zeros((m, m))
            out = dict(cap=FluxNorms(*[(0.0, 0.0)] * len(fields(FluxNorms))), inflow=np.zeros(mt),
                       G_wd=zero, G_dw=zero, G=np.zeros((m + mt, m + mt)), G_dth=np.zeros((mt, mt)),
                       rows=np.zeros((3, m)), l2sq=0.0, gradsq=0.0, max_abs=0.0, trace_gap=0.0)
            out.update((key, np.zeros(m)) for key in ("bdry", "F_form", "P", "F_adv", "Q"))
            return out
        m = forms.vb.m
        out = dict(
            # allocated ahead of the lifting's grid fields: allocated after
            # them it raised the run's peak resident memory by ~0.1 MB
            G=np.zeros((m + forms.tb.m,) * 2),
            cap=cap_norms(shape, grid),
            inflow=forms.tb.factors.project_face(0, grid.caps[0], shape.g),
        )
        ext = hopf_mod.build_b(shape, params, grid)
        sol = poisson_mod.solve_neumann(ext.div_b, grid)
        mu = self.config.mu
        lhs, rhs = poisson_mod.certify_layer_bound(out["cap"], params, ext, grid, mu)
        # lhs, the weighted norm of div b, is the ratio's denominator; it vanishes
        # only when the layer (r, rho] falls between two x3 nodes: no ratio then
        ratio = poisson_mod.certify_weighted_hessian(lhs, sol, p=3, mu=mu) if lhs > 0.0 else math.inf
        out["weighted"] = dict(ratio=ratio, residual=sol.residual, spectral_tail=sol.spectral_tail,
                               lhs=lhs, rhs=rhs)
        delta_1 = poisson_mod.delta_field(ext, sol, grid)
        del ext, sol   # freed before the moment table is made
        moments = forms.lifting_moments(delta_1)
        out.update(zip(("G_wd", "G_dw", "G_dth"), forms.delta_matrices(moments)))
        out["G"][:m, :m] = out["G_wd"] + out["G_dw"]
        out["G"][m:, m:] = out["G_dth"]
        out["bdry"] = forms.boundary_functionals(delta_1, (shape.grad, shape.grad))
        out["P"], out["F_adv"], out["Q"], out["F_form"] = forms.delta_vectors(moments)
        out["rows"] = np.stack([out["bdry"] + out["F_form"], out["F_adv"], -out["P"]])
        # sums of squares over the components, with no temporary of their size
        values, grad = delta_1.fields[:3], delta_1.fields[3:12]
        out["l2sq"] = grid.integrate(np.einsum("f...,f...->...", values, values))
        out["gradsq"] = grid.integrate(np.einsum("f...,f...->...", grad, grad))
        out["max_abs"] = float(np.max(np.abs(delta_1.values)))
        # the normals are unit vectors along p.axis, so |n.delta_1 - n.(g e3)|
        # is |delta_1[p.axis] - g| on the caps and |delta_1[p.axis]| on the walls
        out["trace_gap"] = max(
            float(np.max(np.abs(face[p.axis] - (shape.g if p.axis == 2 else 0.0))))
            for p, face in zip(grid.patches, delta_1.faces)
        )
        # a copy, so that the stack of delta_1's fields is freed on return
        out["values"] = delta_1.values.copy()
        return out

    def drive(self, times) -> np.ndarray:
        """(s, s^2, s') of the flux at each of the times, [time, 3], or [3]
        at one time: the numbers by which a step and the ledger scale the
        couplings of delta_1 and the numbers of the cap shape g."""
        ts = np.ravel(times)
        s = np.array([self.profile.s(t) for t in ts])
        s_t = np.array([self.profile.s_t(t) for t in ts])
        return np.stack([s, s * s, s_t], axis=-1).reshape(np.shape(times) + (3,))

    def _explicit(self, x: np.ndarray, drive: np.ndarray) -> np.ndarray:
        """The explicit part of the right-hand side at the stacked state
        x = (c, dcoef), the vector a step advances, stacked the same way;
        drive is (s, s^2, s') at its time."""
        m = self.config.m
        c, dcoef = x[:m], x[m:]
        k, E = self.couplings, np.empty_like(x)
        E_w, _ = self.forms.transport(c, c, dcoef, out=E)
        np.negative(E, E)
        E_w += self._f_omega(dcoef)
        E -= drive[0] * np.dot(k["G"], x)
        E_w += np.dot(drive, k["rows"])
        return E

    @cached_property
    def _forcing(self) -> dict:
        """omega(theta) f in coefficient space, built on first use.

        The weak form reads omega(theta) f only through its projection
        <omega(theta) f, psi_j>, which is linear in dcoef unless omega is
        bounded_smooth. ``kind`` is "constant" when omega is constant or the
        forcing is zero: the projection is the vector ``P`` and the sampled
        norms of the clamped omega(theta) f are the pair ``norms``, from
        ``_omega_f_norms`` once, or exact zeros without any grid work when f
        is zero. For "linear" the projection is omega0 P + omega1 M dcoef
        with P = P(f) and M[j, k] = <phi_k f, psi_j>. "bounded_smooth" keeps
        the projection on the grid. Both keep ``weights``, the pair of
        ``_f_weights``, with which the ledger takes the norms of each stored
        sample from |f| read once per run.
        """
        cfg, forms = self.config, self.forms
        if cfg.forcing_is_zero:
            return dict(kind="constant", P=np.zeros(cfg.m), norms=(0.0, 0.0))
        if cfg.omega_kind == "constant":
            return dict(
                kind="constant",
                P=forms.project_velocity(self.omega(0.0) * self.f_values),
                norms=self._omega_f_norms(np.zeros(self.grid.shape), self._f_weights()),
            )
        if cfg.omega_kind == "linear":
            return dict(
                kind="linear",
                P=forms.project_velocity(self.f_values),
                M=forms.velocity_temperature_matrix(self.f_values),
                weights=self._f_weights(),
            )
        return dict(kind=cfg.omega_kind, weights=self._f_weights())

    def _f_omega(self, dcoef: np.ndarray) -> np.ndarray:
        """<omega(theta) f, psi_j> at the temperature coefficients dcoef."""
        cfg, fd = self.config, self._forcing
        if fd["kind"] == "constant":
            return fd["P"]
        if fd["kind"] == "linear":
            return cfg.omega0 * fd["P"] + cfg.omega1 * (fd["M"] @ dcoef)
        omega_f = self.omega(self.theta_values(dcoef))[None, :, :, :] * self.f_values
        return self.forms.project_velocity(omega_f)

    def _f_weights(self) -> tuple:
        """(w65, w3): the cell volume times |f|^(6/5) and times |f|^3 at the
        nodes, flattened; the cube by multiplication."""
        f = self.f_values.reshape(3, -1)
        mag = np.sqrt(np.einsum("cp,cp->p", f, f))
        vol = self.grid.cell_volume
        return vol * mag ** (6.0 / 5.0), vol * (mag * mag * mag)

    def _omega_f_norms(self, theta: np.ndarray, weights: tuple) -> tuple:
        """(||omega(theta~) f||_{6/5}^2, ||omega(theta~) f||_3^2) on the grid,
        theta~ the temperature clamped to [theta_star, theta_star_upper].

        omega is a scalar, so |omega(theta~) f| = |omega(theta~)| |f|, and
        each norm is one dot product of a power of |omega(theta~)| on the
        nodes with the weights of ``_f_weights``."""
        cfg = self.config
        w65, w3 = weights
        om = np.abs(self.omega(np.clip(theta, cfg.theta_star, cfg.theta_star_upper))).ravel()
        return (
            float(om ** (6.0 / 5.0) @ w65) ** (2 * 5.0 / 6.0),
            float((om * om * om) @ w3) ** (2.0 / 3.0),
        )

    # -- time stepping -----------------------------------------------------------

    def step(self, x: np.ndarray, drive: np.ndarray, out: np.ndarray,
             E_prev: Optional[np.ndarray] = None) -> np.ndarray:
        """Write into ``out`` the row x = (c, dcoef) one step on and return
        E, the explicit part at x: Crank-Nicolson on the stiff linear forms
        and, on the explicit part, AB2 with E_prev, the explicit part the
        step before returned, or forward Euler without it (a window's first
        step). drive is (s, s^2, s') at the time of x. Neither row is
        checked for finiteness here; the run loop checks the rows it stored."""
        E = self._explicit(x, drive)
        self._stepper.step(x, E, E_prev, out=out)
        return E

    def dt_stability_estimate(self, x: np.ndarray, drive: np.ndarray) -> float:
        """Crude advective limit 1 / (|w + delta|_max * kappa_max) at the row x."""
        vmax = float(np.max(np.abs(self.w_values(x[: self.config.m]))))
        vmax += abs(drive[0]) * self.couplings["max_abs"]
        kmax = max(k * math.pi / L for k, L in zip(self.vb.k_max, self.grid.spec.lengths))
        if vmax * kmax == 0.0:
            return math.inf
        return 1.0 / (vmax * kmax)

    # -- reconstruction and the audit series ---------------------------------------

    def reconstruct(self, x: np.ndarray, drive: np.ndarray):
        """(w, v, theta) nodal values at the row x; v = w + s delta_1."""
        m = self.config.m
        w = self.w_values(x[:m])
        v = w if self.hopf_params is None else w + drive[0] * self.couplings["values"]
        return w, v, self.theta_values(x[m:])

    def _ledger(self, drive: np.ndarray, coeffs_w: np.ndarray, coeffs_th: np.ndarray) -> dict:
        """Every audit series, as arrays over the samples with the
        coefficients stored by rows and drive, (s, s^2, s') of the flux at
        each sample's time (see ``drive``), the table the run loop read.

        The energies are quadratic forms in the coefficients. The mean of
        theta is that of the constant mode alone, since midpoint quadrature
        integrates every other cosine mode to exactly 0. What needs theta on
        the grid, its extremes and the norms of the clamped omega(theta) f,
        is computed one stored row at a time, the norms as two dot products
        of |omega(theta~)| with the per-run weights of |f| (``_forcing``)
        unless they are one pair per run. The data d = s(t) g
        enter through s, |s| and |s'| times the couplings' numbers of g and
        delta_1.
        """
        forms, k, grid = self.forms, self.couplings, self.grid
        C, D = coeffs_w, coeffs_th
        s, s_sq, s_t = drive.T
        abs_s = np.abs(s)
        out = {"w_l2sq": np.einsum("ij,ij->i", C, C)}
        out["w_gradsq"] = np.einsum("ij,ij->i", C, 0.5 * self.vb.rayleigh * C)
        out["w_h1sq"] = out["w_l2sq"] + out["w_gradsq"]
        out["th_l2sq"] = np.einsum("ij,ij->i", D, D)
        out["th_gradsq"] = np.einsum("ij,ij->i", D, self.tb.eigenvalues * D)
        out["th_h1sq"] = out["th_l2sq"] + out["th_gradsq"]
        out["fric_sq"] = np.einsum("ij,ij->i", C @ forms.K_fric, C)
        out["th_integral"] = grid.spec.volume * self.tb.factors.amp[0, 0] * D[:, 0]
        out["inflow_theta"] = s * (D @ k["inflow"])

        # v = w + s delta_1 in grid quadrature, where |c|^2 and
        # sum (rayleigh/2) c^2 are the norms of w:
        # ||v||^2 = |c|^2 + 2 s c.P + s^2 ||delta_1||^2, and the gradient the
        # same way with Q
        out["delta_l2sq"] = s_sq * k["l2sq"]
        out["delta_gradsq"] = s_sq * k["gradsq"]
        out["v_l2sq"] = out["w_l2sq"] + 2.0 * s * (C @ k["P"]) + out["delta_l2sq"]
        out["v_gradsq"] = out["w_gradsq"] + 2.0 * s * (C @ k["Q"]) + out["delta_gradsq"]

        # theta on the grid, LEDGER_CHUNK_BYTES of stored rows at a time, each
        # chunk expanded into the same buffer, so that only the first one
        # touches fresh pages: its extremes and the norms of the clamped
        # omega(theta) f, which are two numbers per run unless omega depends
        # on theta and f is not zero
        norms, weights = self._forcing.get("norms"), self._forcing.get("weights")
        chunk = min(len(D), max(1, LEDGER_CHUNK_BYTES // (8 * math.prod(grid.shape))))
        buffer = np.empty((chunk, *grid.shape))
        th_min, th_max, omega_f = [], [], []
        for start in range(0, len(D), chunk):
            rows = D[start : start + chunk]
            theta = self.theta_values(rows, out=buffer[: len(rows)])
            th_min.append(theta.min(axis=(1, 2, 3)))
            th_max.append(theta.max(axis=(1, 2, 3)))
            omega_f += [norms or self._omega_f_norms(th, weights) for th in theta]
        out["th_min"], out["th_max"] = np.concatenate(th_min), np.concatenate(th_max)
        out["omega_f_65sq"], out["omega_f_l3sq"] = (np.array(col) for col in zip(*omega_f))

        # every velocity mode has normal trace exactly 0 (build_velocity_basis
        # checks it), so v.n = s n.delta_1 for any state
        out["flux_trace_err"] = abs_s * k["trace_gap"]
        out["compat_residual"] = hopf_mod.compatibility_residual(self.cap_shape.totals, s)
        cap = k["cap"]
        out["d_w13_total"] = abs_s * cap.w13_inf_total
        out["d_w13_sq_sum"] = s_sq * sum(x * x for x in cap.w13_cap)
        out["ddt_w165_sq_sum"] = s_t * s_t * sum(x * x for x in cap.w1_65_dt_cap)
        out["d_l2_sum"] = abs_s * sum(cap.l2_cap)
        out["d_l2_sq_sum"] = s_sq * sum(x * x for x in cap.l2_cap)
        out["d_l3_cap1"] = abs_s * cap.l3_cap[0]
        out["d_l1_cap1"] = abs_s * cap.l1_cap[0]
        root_depth = math.sqrt(2.0 * grid.spec.a)
        out["d_l2_ext"] = root_depth * out["d_l2_sum"]
        out["d_h1_ext"] = abs_s * (root_depth * sum(
            math.sqrt(l2 * l2 + g2 * g2) for l2, g2 in zip(cap.l2_cap, cap.g_l2_cap)
        ))
        return out

    # -- the window loop ------------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def run_windows(self) -> RunResult:
        """Step through the windows, restarting AB2 at each joint, and store
        the time and coefficients of every sample; the series come after.

        The stacked states x = (c, dcoef) are the rows of one trajectory,
        each step written into the next row, and coeffs_w and coeffs_th are
        its two column blocks. No overflow warns: the rows of each window
        are checked once it is stepped, and its first non-finite row is a
        NumericalAbort that names its time and carries the row before it;
        so is the first sample whose energies are beyond the float range."""
        cfg = self.config
        spw, m = cfg.steps_per_window, cfg.m
        # n dt, not a running sum, which drifts off the horizon
        times = np.arange(cfg.n_windows * spw + 1) * cfg.dt
        # the first row before the trajectory: initial_state may build the
        # lifting, whose transient peak then holds neither drive nor X
        x0 = self.initial_state()
        drive = self.drive(times)
        X = np.empty((times.size, m + self.tb.m))
        X[0] = x0

        est = self.dt_stability_estimate(X[0], drive[0])
        if cfg.dt > est:
            warnings.warn(
                f"dt = {cfg.dt} exceeds the advective stability estimate {est:.3g}",
                RuntimeWarning,
            )

        for first in range(0, times.size - 1, spw):
            E = None
            for n in range(first, first + spw):
                E = self.step(X[n], drive[n], X[n + 1], E)
            finite = np.isfinite(X[first + 1 : first + spw + 1]).all(axis=1)
            if not finite.all():
                i = first + 1 + int(np.argmin(finite))
                raise NumericalAbort(f"non-finite state at t = {times[i]:.6g}", t=float(times[i - 1]),
                                     c=X[i - 1, :m], dcoef=X[i - 1, m:])

        coeffs_w, coeffs_th = X[:, :m], X[:, m:]
        series = self._ledger(drive, coeffs_w, coeffs_th)
        beyond = np.flatnonzero(~np.isfinite(series["w_h1sq"] + series["th_h1sq"] + series["fric_sq"]))
        if beyond.size:
            i = beyond[0]
            raise NumericalAbort(f"non-finite energy at t = {times[i]:.6g}", t=float(times[i]),
                                 c=coeffs_w[i], dcoef=coeffs_th[i])
        return RunResult(config=cfg, times=times, series=series, coeffs_w=coeffs_w, coeffs_th=coeffs_th)

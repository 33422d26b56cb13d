"""Runtime energy audit: re-checks every monitored inequality on a run.

The audited inequalities carry artifact labels (documented in the README):

  E1  energy balance      dX/dt + c2 Y + friction <= F(t)
  E2  window recurrence   X(kT) <= A1/(1 - exp(-c2 T)) + exp(-c2 k T) X(0)
  E3  window absorption   sup_window X + c2 int_window Y <= A2
  E4  temperature bounds  theta_lo <= theta(t) <= theta_hi (with overshoot
                          allowance for spectral truncation)
  E5  mean budget         d/dt int theta <= int_{inflow cap} d1 theta
  E6  temperature energy  ||theta||_V^2 <= c exp(int ||d1||_L3^6) ||theta0||^2
                          + ||d1||_L1^2 theta_hi^2 + ||theta0||_L1^2
  E7  reconstruction      ||v||_V^2 <= 2 (||w||_V^2 + ||delta||_V^2)
                          (the literal sharp variant is reported alongside)
  E8  aggregate bound     ||v||_V^2 + ||theta||_V^2 <= A(T)^2
  E9  lifting bound       ||delta||_V^2 <= data-norm budget
  E10 weighted Hessian    ||D^2 phi||_{L_{p,mu}} <= C ||div b||_{L_{p,mu}}
                          (empirical constant, finiteness asserted)
  E11 layer bound         ||div b||_{L_{3,mu}} vs structural cap-data terms
  E12 flux compatibility  inflow equals outflow at every sample
  E13 dissipation         X(t) nonincreasing when all data vanish

Constants are calibrated, never assumed: c2 is fitted on a free-decay
companion run (half the worst-case dissipation ratio), c1 follows the
absorption recipe from the measured forcing level when the heat coupling
is active. Fractional-order boundary norms in the published budget are
replaced by the whole-order cap norms that dominate them; reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import poisson as poisson_mod
from .solver import GalerkinSolver, RunResult, ScenarioConfig

BUDGET_NOTE = (
    "cap-data Sobolev norms replace fractional boundary norms in the budget; "
    "the whole-order norms dominate them"
)


def default_psi(s: float) -> float:
    """Default monotone budget amplification (1 + s^2) s^4 exp(s)."""
    return (1.0 + s * s) * s**4 * math.exp(s)


@dataclass
class Certificate:
    name: str
    eq_id: str
    formula: str
    passed: bool
    margin: float
    details: dict = field(default_factory=dict)
    applicable: bool = True
    advisory: bool = False
    note: str = ""

    @property
    def status(self) -> str:
        if not self.applicable:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass
class Calibration:
    c1: float
    c2: float
    r_w: Optional[float]
    r_theta: Optional[float]
    M_65: float
    M_3: float
    seed: str


@dataclass
class EnergyLedger:
    """Everything the audit measured, plus the certificates."""

    times: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    F: np.ndarray
    A1: float
    A2: float
    calibration: Calibration
    certificates: list

    def failed(self, include_advisory: bool = False):
        return [
            c
            for c in self.certificates
            if c.applicable and not c.passed and (include_advisory or not c.advisory)
        ]

    def by_name(self, name: str) -> Certificate:
        for c in self.certificates:
            if c.name == name:
                return c
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Discrete derivatives


def time_derivative(series: np.ndarray, dt: float, joints: np.ndarray) -> np.ndarray:
    """Centered differences, one-sided at window starts/ends."""
    n = series.size
    out = np.empty(n)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (series[1] - series[0]) / dt
    out[-1] = (series[-1] - series[-2]) / dt
    for j in joints:
        if 0 < j < n - 1:
            out[j] = (series[j] - series[j - 1]) / dt  # treat as window end
    return out


def _trapz(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.trapezoid(y, t))


# ---------------------------------------------------------------------------
# Calibration


def companion_config(config: ScenarioConfig) -> ScenarioConfig:
    """Free-decay companion used to fit the decay constant.

    Keeps the scenario's own initial data when it carries energy; otherwise
    seeds a deterministic mean-zero mix in both sectors so each dissipation
    ratio is observable.
    """
    has_w = config.init_v == "modes" and config.init_v_amplitude != 0.0
    has_th = (
        config.init_theta != "zero"
        and (config.init_theta_mean != 0.0 or config.init_theta_amplitude != 0.0)
    )
    kw = dict(flux_profile="none", forcing_kind="zero", flux_amplitude=0.0)
    if not (has_w or has_th):
        kw.update(
            init_v="modes",
            init_v_amplitude=1.0,
            init_v_nmodes=4,
            init_theta="bump",
            init_theta_mean=0.0,
            init_theta_amplitude=0.5,
        )
    return replace(config, **kw)


def is_free_decay(config: ScenarioConfig) -> bool:
    no_flux = config.flux_profile == "none" or config.flux_amplitude == 0.0
    no_force = config.forcing_kind == "zero" or (
        config.forcing_kind == "constant" and all(v == 0.0 for v in config.forcing_vector)
    ) or (config.forcing_kind == "shear" and config.forcing_amplitude == 0.0)
    return no_flux and no_force


def _sector_ratio(l2sq: np.ndarray, h1sq: np.ndarray, dt: float, joints) -> Optional[float]:
    if np.max(l2sq) <= 1e-14:
        return None
    d = time_derivative(l2sq, dt, joints)
    mask = h1sq > 1e-12 * max(1.0, float(np.max(h1sq)))
    if not np.any(mask):
        return None
    ratios = np.maximum(-d[mask], 0.0) / h1sq[mask]
    return float(np.min(ratios))


def calibrate(
    run: RunResult,
    cal_run: RunResult,
    config: ScenarioConfig,
    seed_desc: str,
) -> Calibration:
    dt = config.dt
    joints = cal_run.window_joint_indices()
    r_w = _sector_ratio(cal_run.series["w_l2sq"], cal_run.series["w_h1sq"], dt, joints)
    r_th = _sector_ratio(cal_run.series["th_l2sq"], cal_run.series["th_h1sq"], dt, joints)
    rates = [r for r in (r_w, r_th) if r is not None]
    c2 = 0.5 * min(rates) if rates else 0.0

    M_65 = float(np.max(run.series["omega_f_65sq"]))
    M_3 = float(np.max(run.series["omega_f_l3sq"]))
    heat_coupled = config.omega_kind != "constant" and config.omega1 != 0.0
    if heat_coupled and M_3 > 0.0 and r_th is not None and r_th > 1e-8:
        # absorption recipe: the theta-weighted forcing cross term is soaked
        # up by half the theta dissipation when c1 is sized like M / r_theta
        c1 = max(1.0, 2.0 * config.c_budget * M_3 / r_th)
    else:
        c1 = 1.0
    return Calibration(c1=c1, c2=c2, r_w=r_w, r_theta=r_th, M_65=M_65, M_3=M_3, seed=seed_desc)


# ---------------------------------------------------------------------------
# Budget


def budget_series(run: RunResult, config: ScenarioConfig, psi: Callable = default_psi) -> np.ndarray:
    s = run.series
    psi_vals = np.array([psi(v) for v in s["d_w13_total"]])
    return config.c_budget * (
        s["omega_f_65sq"] + psi_vals * (s["d_w13_sq_sum"] + s["ddt_w165_sq_sum"])
    )


# ---------------------------------------------------------------------------
# Individual certificates


def _mk_energy_cert(ledger_X, Y, F, fric, c2, dt, joints, times) -> Certificate:
    dX = time_derivative(ledger_X, dt, joints)
    lhs = dX + c2 * Y + fric
    margin = F - lhs
    tol = 1e-9 * max(1.0, float(np.max(np.abs(ledger_X))), float(np.max(F, initial=0.0)))
    viol = np.where(margin < -tol)[0]
    near_joint = np.zeros(times.size, dtype=bool)
    for j in joints:
        lo, hi = max(0, j - 1), min(times.size - 1, j + 1)
        near_joint[lo : hi + 1] = True
    off_joint = [i for i in viol if not near_joint[i]]
    frac = 1.0 - viol.size / times.size
    worst = float(np.min(margin))
    max_violation = float(max(0.0, -worst))
    passed = (
        frac >= 0.99
        and len(off_joint) == 0
        and all(-margin[i] < 1e-6 for i in viol)
    )
    return Certificate(
        name="energy-balance",
        eq_id="E1",
        formula="dX/dt + c2 Y + friction <= F",
        passed=bool(passed),
        margin=worst,
        details={
            "samples": int(times.size),
            "violations": int(viol.size),
            "violations_off_joint": len(off_joint),
            "max_violation": max_violation,
            "pass_fraction": frac,
            "tolerance": tol,
        },
    )


def _mk_recurrence_certs(times, X, Y, F, c2, run: RunResult) -> list:
    spw = run.steps_per_window
    nw = run.n_windows
    T = run.config.T
    joints = run.window_joint_indices()
    Xj = X[joints]
    a1_windows = []
    for k in range(nw):
        sl = slice(k * spw, (k + 1) * spw + 1)
        a1_windows.append(_trapz(F[sl], times[sl]))
    A1 = max(a1_windows) if a1_windows else 0.0

    degenerate = c2 * T < 1e-12
    decay = math.exp(-c2 * T)
    details = {"A1": A1, "c2": c2, "T": T, "X0": float(X[0])}
    if degenerate:
        bound_base = math.inf
        note = "decay constant degenerate; recurrence bound is vacuous"
    else:
        bound_base = A1 / (1.0 - decay)
        note = ""

    margins = []
    for k in range(nw + 1):
        bound = bound_base + (decay**k if not degenerate else 1.0) * X[0]
        margins.append(bound - Xj[k])
    worst = float(min(margins))
    rec = Certificate(
        name="window-recurrence",
        eq_id="E2",
        formula="X(kT) <= A1/(1 - exp(-c2 T)) + exp(-c2 k T) X(0)",
        passed=bool(worst >= -1e-9 * max(1.0, X[0], A1)),
        margin=worst,
        details={**details, "per_window_margin_min": worst},
        note=note,
    )

    if degenerate:
        A2 = math.inf
    else:
        A2 = A1 * (2.0 - decay) / (1.0 - decay) + X[0]
    # the integral form the balance law actually yields: at every t in the
    # window, X(t) + c2 int_{kT}^t Y <= int_{kT}^t F + X(kT) <= A2
    marg2 = []
    for k in range(nw):
        sl = slice(k * spw, (k + 1) * spw + 1)
        tw = times[sl]
        Yw = Y[sl]
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (Yw[1:] + Yw[:-1]) * np.diff(tw))]
        )
        lhs = float(np.max(X[sl] + c2 * cum))
        marg2.append(A2 - lhs)
    worst2 = float(min(marg2)) if marg2 else math.inf
    absb = Certificate(
        name="window-absorption",
        eq_id="E3",
        formula="max_t [X(t) + c2 int_kT^t Y] <= A2",
        passed=bool(worst2 >= -1e-9 * max(1.0, X[0], A1)),
        margin=worst2,
        details={"A2": A2, "per_window_margin_min": worst2},
        note=note,
    )
    return [rec, absb], A1, A2


def _theta0_range(config: ScenarioConfig) -> tuple[float, float]:
    """Analytic range of the configured initial temperature."""
    if config.init_theta == "zero":
        return (0.0, 0.0)
    if config.init_theta == "constant":
        return (config.init_theta_mean, config.init_theta_mean)
    amp = abs(config.init_theta_amplitude)
    return (config.init_theta_mean - amp, config.init_theta_mean + amp)


def _mk_temperature_bounds_cert(run: RunResult, config: ScenarioConfig) -> Certificate:
    s = run.series
    lo, hi = config.theta_star, config.theta_star_upper
    gap = hi - lo
    allowance = config.tol_overshoot * gap
    # hypotheses concern the analytic data; its spectral projection may
    # already overshoot, which is what the allowance is for
    th0_min, th0_max = _theta0_range(config)
    hyp_ok = th0_min >= lo - 1e-12 and th0_max <= hi + 1e-12
    under = float(np.min(s["th_min"] - (lo - allowance)))
    over = float(np.min((hi + allowance) - s["th_max"]))
    margin = min(under, over)
    overshoot = max(
        float(np.max(lo - s["th_min"])), float(np.max(s["th_max"] - hi)), 0.0
    )
    return Certificate(
        name="temperature-bounds",
        eq_id="E4",
        formula="theta_lo - tol <= theta(t) <= theta_hi + tol",
        passed=bool(margin >= 0.0),
        margin=margin,
        applicable=bool(hyp_ok),
        details={
            "theta_lo": lo,
            "theta_hi": hi,
            "allowance": allowance,
            "max_overshoot": overshoot,
        },
        note="" if hyp_ok else "initial data violates the bound hypotheses",
    )


def _mk_mean_budget_cert(run: RunResult, config: ScenarioConfig) -> Certificate:
    s = run.series
    t = run.times
    dt = config.dt
    joints = run.window_joint_indices()
    ints = s["th_integral"]
    d_int = time_derivative(ints, dt, joints)
    rhs = s["inflow_theta"]
    # discrete-derivative tolerance from local third differences
    tol = np.full(t.size, 1e-8 * max(1.0, float(np.max(np.abs(ints)))))
    if t.size >= 4:
        third = np.abs(np.diff(ints, 3))
        est = np.zeros(t.size)
        est[2:-1] = third / (6.0 * dt)
        est[1] = est[2] if t.size > 3 else 0.0
        est[-1] = est[-2]
        est[0] = est[1]
        tol = tol + est
    margin = rhs + tol - d_int
    worst = float(np.min(margin))
    return Certificate(
        name="mean-budget",
        eq_id="E5",
        formula="d/dt int theta <= int_inflow d1 theta (+ discrete tol)",
        passed=bool(worst >= 0.0),
        margin=worst,
        details={"max_tolerance": float(np.max(tol))},
    )


def _v_norm_sq(sup_l2sq: float, int_gradsq: float) -> float:
    return (math.sqrt(sup_l2sq) + math.sqrt(max(int_gradsq, 0.0))) ** 2


def _mk_theta_energy_cert(run: RunResult, config: ScenarioConfig) -> Certificate:
    s = run.series
    t = run.times
    lhs = _v_norm_sq(float(np.max(s["th_l2sq"])), _trapz(s["th_gradsq"], t))
    d1_l3_6 = _trapz(s["d_l3_cap1"] ** 6, t)
    d1_l1 = _trapz(s["d_l1_cap1"], t)
    rhs = (
        config.c_theta * math.exp(d1_l3_6) * s["th_l2sq"][0]
        + d1_l1**2 * config.theta_star_upper**2
        + s["th_l1"][0] ** 2
    )
    margin = rhs - lhs
    return Certificate(
        name="temperature-energy",
        eq_id="E6",
        formula=(
            "||theta||_V^2 <= c exp(int ||d1||_L3^6) ||theta0||^2 "
            "+ ||d1||_L1^2 theta_hi^2 + ||theta0||_L1^2"
        ),
        passed=bool(margin >= -1e-9 * max(1.0, rhs)),
        margin=margin,
        details={"lhs": lhs, "rhs": rhs, "c": config.c_theta},
    )


def _mk_reconstruction_certs(run: RunResult, config: ScenarioConfig, psi: Callable) -> list:
    s = run.series
    t = run.times
    v_V = _v_norm_sq(float(np.max(s["v_l2sq"])), _trapz(s["v_gradsq"], t))
    w_V = _v_norm_sq(float(np.max(s["w_l2sq"])), _trapz(s["w_gradsq"], t))
    d_V = _v_norm_sq(float(np.max(s["delta_l2sq"])), _trapz(s["delta_gradsq"], t))

    tol = 1e-9 * max(1.0, v_V)
    margin2 = 2.0 * (w_V + d_V) - v_V
    tri2 = Certificate(
        name="reconstruction-triangle-2x",
        eq_id="E7",
        formula="||v||_V^2 <= 2 (||w||_V^2 + ||delta||_V^2)",
        passed=bool(margin2 >= -tol),
        margin=margin2,
        details={"v_V_sq": v_V, "w_V_sq": w_V, "delta_V_sq": d_V},
    )
    margin1 = (w_V + d_V) - v_V
    tri1 = Certificate(
        name="reconstruction-triangle-literal",
        eq_id="E7",
        formula="||v||_V^2 <= ||w||_V^2 + ||delta||_V^2 (sharp variant, informational)",
        passed=bool(margin1 >= -tol),
        margin=margin1,
        advisory=True,
        details={"v_V_sq": v_V, "w_V_sq": w_V, "delta_V_sq": d_V},
    )

    c = config.c_recon
    sup_w13 = float(np.max(s["d_w13_total"]))
    exp_factor = math.exp(sup_w13 / c)
    int_cap_l2sq = _trapz(s["d_l2_sq_sum"], t)
    delta_budget = (
        c * float(np.max(s["d_l2_ext"])) ** 2
        + c * _trapz(s["d_h1_ext"] ** 2, t)
        + c * sup_w13**4 * exp_factor * int_cap_l2sq
        + c * float(np.max(s["d_l2_sum"])) ** 2
    )
    lift = Certificate(
        name="lifting-energy",
        eq_id="E9",
        formula="||delta||_V^2 <= c [sup ||d~||_2^2 + int ||d~||_H1^2 "
        "+ sup ||d~||_W13x^4 exp(sup/c) int sum_i ||d_i||_2^2 + sup ||d||_(2,inf)^2]",
        passed=bool(delta_budget - d_V >= -1e-9 * max(1.0, delta_budget)),
        margin=delta_budget - d_V,
        details={"delta_V_sq": d_V, "budget": delta_budget, "c": c},
    )

    theta_V = _v_norm_sq(float(np.max(s["th_l2sq"])), _trapz(s["th_gradsq"], t))
    psi_sup = psi(sup_w13)
    a1_big_sq = (
        _trapz(s["omega_f_65sq"] + s["d_w13_sq_sum"] + s["ddt_w165_sq_sum"], t) * psi_sup
    )
    # one configured constant multiplies the whole structural sum; the
    # occurrences of the existential constant in the source bound differ
    # term to term anyway, and the V-norm cross term forces a factor > 1
    # on the initial-energy terms
    rhs = c * (
        a1_big_sq
        + s["w_l2sq"][0]
        + s["th_l2sq"][0]
        + float(np.max(s["d_l2_ext"])) ** 2
        + _trapz(s["d_h1_ext"] ** 2, t)
        + sup_w13**4 * exp_factor * int_cap_l2sq
        + _trapz(s["omega_f_65sq"], t)
    )
    lhs = v_V + theta_V
    agg = Certificate(
        name="aggregate-energy",
        eq_id="E8",
        formula="||v||_V^2 + ||theta||_V^2 <= c * A(T)^2 structural sum",
        passed=bool(rhs - lhs >= -1e-9 * max(1.0, rhs)),
        margin=rhs - lhs,
        details={"lhs": lhs, "rhs": rhs, "A1_big_sq": a1_big_sq, "c": c},
    )
    return [tri2, tri1, lift, agg]


def _mk_weighted_certs(solver: GalerkinSolver, config: ScenarioConfig) -> list:
    out = []
    if solver.hopf_params is None:
        out.append(
            Certificate(
                name="weighted-hessian",
                eq_id="E10",
                formula="||D^2 phi||_{L_{p,mu}} / ||div b||_{L_{p,mu}} finite",
                passed=True,
                margin=math.inf,
                applicable=False,
                note="no boundary flux in this scenario",
            )
        )
        out.append(
            Certificate(
                name="layer-bound",
                eq_id="E11",
                formula="||div b||_{L_{3,mu}} vs structural cap terms",
                passed=True,
                margin=math.inf,
                applicable=False,
                note="no boundary flux in this scenario",
            )
        )
        return out
    grid = solver.grid
    # the run's lifting of the cap shape g, i.e. of the data at s = 1
    ext, sol, _ = solver.delta_provider.lifting
    lhs, rhs = poisson_mod.certify_layer_bound(
        solver.profile.unit(), solver.hopf_params, ext, grid, config.mu
    )
    # lhs is the weighted norm of div b. With flux present it vanishes only
    # when the whole layer (r, rho] falls between two x3 nodes: the grid then
    # sees no lifting, and neither estimate says anything about it.
    resolved = lhs > 0.0
    note = "" if resolved else "cutoff layer not resolved by the x3 grid"
    if resolved:
        ratio = poisson_mod.certify_weighted_hessian(ext.div_b, sol, p=3, mu=config.mu)
    else:
        ratio = math.inf
    out.append(
        Certificate(
            name="weighted-hessian",
            eq_id="E10",
            formula="||D^2 phi||_{L_{3,mu}} / ||div b||_{L_{3,mu}} finite",
            passed=bool(math.isfinite(ratio)),
            margin=ratio,
            details={"ratio": ratio, "mu": config.mu, "residual": sol.residual,
                     "spectral_tail": sol.spectral_tail},
            note=note,
        )
    )
    const = lhs / rhs if rhs > 0 else math.inf
    out.append(
        Certificate(
            name="layer-bound",
            eq_id="E11",
            formula="||div b||_{L_{3,mu}} <= C_emp * structural cap terms",
            passed=bool(resolved and math.isfinite(const)),
            margin=const,
            details={"lhs": lhs, "rhs_structure": rhs, "C_emp": const, "mu": config.mu},
            note=note,
        )
    )
    return out


def _mk_compat_cert(run: RunResult) -> Certificate:
    worst = float(np.max(run.series["compat_residual"]))
    return Certificate(
        name="flux-compatibility",
        eq_id="E12",
        formula="|int d1 - int d2| / max(1, int d1) <= 1e-12",
        passed=bool(worst <= 1e-12),
        margin=1e-12 - worst,
        details={"worst_residual": worst},
    )


def _mk_dissipation_cert(run: RunResult, X: np.ndarray, config: ScenarioConfig) -> Certificate:
    applicable = is_free_decay(config)
    dX = np.diff(X)
    tol = 1e-12 * max(1.0, float(X[0]))
    worst = float(np.max(dX, initial=-math.inf))
    return Certificate(
        name="dissipation-monotone",
        eq_id="E13",
        formula="X(t) nonincreasing sample to sample",
        passed=bool(worst <= tol),
        margin=tol - worst,
        applicable=applicable,
        details={"max_increase": worst},
    )


# ---------------------------------------------------------------------------
# Driver


def run_calibration(config: ScenarioConfig, solver: Optional[GalerkinSolver] = None):
    """Run the free-decay companion; returns (RunResult, seed description).

    The companion shares the system (grid, bases, forms, factorizations) of
    ``solver``, the scenario's own solver, when one is given.
    """
    comp = companion_config(config)
    seed = (
        "scenario initial data"
        if (comp.init_v == config.init_v and comp.init_theta == config.init_theta)
        else "standard mean-zero seed"
    )
    comp_solver = GalerkinSolver(comp, reuse=solver)
    return comp_solver.run_windows(), seed


def audit_run(
    run: RunResult,
    solver: GalerkinSolver,
    cal_run: Optional[RunResult] = None,
    cal_seed: str = "scenario run (already free decay)",
    psi: Callable = default_psi,
) -> EnergyLedger:
    config = run.config
    if cal_run is None:
        if is_free_decay(config):
            cal_run = run
        else:
            cal_run, cal_seed = run_calibration(config, solver)
    cal = calibrate(run, cal_run, config, cal_seed)

    s = run.series
    X = cal.c1 * s["th_l2sq"] + s["w_l2sq"]
    Y = cal.c1 * s["th_h1sq"] + s["w_h1sq"]
    F = budget_series(run, config, psi)
    t = run.times
    joints = run.window_joint_indices()

    certs = []
    certs.append(_mk_energy_cert(X, Y, F, s["fric_sq"], cal.c2, config.dt, joints, t))
    rec_certs, A1, A2 = _mk_recurrence_certs(t, X, Y, F, cal.c2, run)
    certs.extend(rec_certs)
    certs.append(_mk_temperature_bounds_cert(run, config))
    certs.append(_mk_mean_budget_cert(run, config))
    certs.append(_mk_theta_energy_cert(run, config))
    certs.extend(_mk_reconstruction_certs(run, config, psi))
    certs.extend(_mk_weighted_certs(solver, config))
    certs.append(_mk_compat_cert(run))
    certs.append(_mk_dissipation_cert(run, X, config))

    return EnergyLedger(
        times=t, X=X, Y=Y, F=F, A1=A1, A2=A2, calibration=cal, certificates=certs
    )


# ---------------------------------------------------------------------------
# Reports


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def ledger_to_text(ledger: EnergyLedger, scenario_name: str = "") -> str:
    cal = ledger.calibration
    lines = []
    lines.append("energy audit report")
    if scenario_name:
        lines.append(f"scenario: {scenario_name}")
    lines.append(
        f"constants: c1={_fmt(cal.c1)} c2={_fmt(cal.c2)} "
        f"(fit r_w={_fmt(cal.r_w)} r_theta={_fmt(cal.r_theta)} "
        f"M65={_fmt(cal.M_65)} M3={_fmt(cal.M_3)}; seed: {cal.seed})"
    )
    lines.append(f"window budget: A1={_fmt(ledger.A1)} A2={_fmt(ledger.A2)}")
    lines.append(f"note: {BUDGET_NOTE}")
    lines.append("")
    for c in ledger.certificates:
        tag = c.status
        adv = " (advisory)" if c.advisory else ""
        lines.append(f"[{tag}] {c.eq_id} {c.name}{adv}")
        lines.append(f"       {c.formula}")
        lines.append(f"       margin = {_fmt(c.margin)}")
        for k, v in c.details.items():
            lines.append(f"       {k} = {_fmt(v)}")
        if c.note:
            lines.append(f"       note: {c.note}")
    lines.append("")
    n_fail = len(ledger.failed())
    lines.append(f"failed certificates (non-advisory): {n_fail}")
    return "\n".join(lines) + "\n"


def ledger_to_json_obj(ledger: EnergyLedger) -> dict:
    cal = ledger.calibration
    return {
        "constants": {
            "c1": cal.c1,
            "c2": cal.c2,
            "r_w": cal.r_w,
            "r_theta": cal.r_theta,
            "M_65": cal.M_65,
            "M_3": cal.M_3,
            "seed": cal.seed,
        },
        "A1": ledger.A1,
        "A2": ledger.A2,
        "budget_note": BUDGET_NOTE,
        "certificates": [
            {
                "name": c.name,
                "eq_id": c.eq_id,
                "formula": c.formula,
                "status": c.status,
                "passed": c.passed,
                "applicable": c.applicable,
                "advisory": c.advisory,
                "margin": c.margin,
                "details": c.details,
                "note": c.note,
            }
            for c in ledger.certificates
        ],
    }

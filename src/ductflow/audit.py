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
  E10 weighted Hessian    ||D^2 phi||_{L_{3,mu}} <= C ||div b||_{L_{3,mu}}
                          (empirical constant, finiteness asserted)
  E11 layer bound         ||div b||_{L_{3,mu}} vs structural cap-data terms
  E12 flux compatibility  inflow equals outflow at every sample
  E13 dissipation         X(t) nonincreasing when all data vanish

E1-E9, E12 and E13 come from `_inequality`: the margin is the smallest
rhs - lhs over the samples, and the check passes when margin >= -tol.

Constants are calibrated, never assumed: c2 is half the slowest decay rate
of the assembled Galerkin forms over the sectors the run puts energy in (a
temperature mean decays at rate 0), c1 follows the absorption recipe from
the measured forcing level and the temperature rate when the heat coupling
is active. Fractional-order boundary norms in the published budget are
replaced by the whole-order cap norms that dominate them; reports say so.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .solver import GalerkinSolver, RunResult, ScenarioConfig

BUDGET_NOTE = (
    "cap-data Sobolev norms replace fractional boundary norms in the budget; "
    "the whole-order norms dominate them"
)


BEYOND_FLOAT_NOTE = "bound exceeds the float range"
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def exp_product(exponent: float, *factors: float) -> tuple:
    """(exp(exponent) times the factors >= 0, the log10 of that).

    The log10 is summed in log space. The value is the left-to-right
    product, to the bit, when exp(exponent) neither overflows nor
    underflows, and inf when the product is beyond the float range; a zero
    factor gives 0 whatever the exponent.
    """
    factors = [float(f) for f in factors]
    if 0.0 in factors:
        return 0.0, -math.inf
    log_value = exponent + sum(math.log(f) for f in factors)
    if abs(exponent) <= LOG_FLOAT_MAX:
        value = math.prod(factors, start=math.exp(exponent))
    else:
        value = math.exp(log_value) if log_value <= LOG_FLOAT_MAX else math.inf
    return value, log_value / math.log(10.0)


def _psi_product(s: float, *factors: float) -> tuple:
    """exp_product of the default amplification psi(s) = (1 + s^2) s^4 exp(s)
    times the factors."""
    return exp_product(s, (1.0 + s * s) * s**4, *factors)


def _log10(x: float) -> float:
    return math.log10(x) if x > 0.0 else -math.inf


def _log10_sum(log10_terms) -> float:
    """log10 of the sum of terms given by their log10s, at least one finite."""
    top = max(log10_terms)
    return top + math.log10(math.fsum(10.0 ** (x - top) for x in log10_terms))


def _beyond_float(cert, bound: float, log10_terms):
    """Marks a certificate whose bound is beyond the float range, and so
    holds vacuously: a note, and ``log10_bound``, the log10 of the sum of
    the bound's terms, given by their log10s."""
    if not math.isinf(bound):
        return cert
    cert.note = BEYOND_FLOAT_NOTE
    cert.details["log10_bound"] = _log10_sum(log10_terms)
    return cert


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

    X: np.ndarray
    Y: np.ndarray
    F: np.ndarray
    A1: float
    A2: float
    calibration: Calibration
    certificates: list

    def failed(self):
        return [c for c in self.certificates if c.applicable and not c.passed and not c.advisory]

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


def is_free_decay(solver: GalerkinSolver) -> bool:
    """No flux (the solver picked no cutoff parameters) and zero forcing."""
    return solver.hopf_params is None and solver.config.forcing_is_zero


def calibrate(run: RunResult, solver: GalerkinSolver, config: ScenarioConfig) -> Calibration:
    """Decay rates of the Galerkin system, and c1, c2 from them.

    Both transport terms are skew, so the slowest decay of |c|^2 relative to
    the H1 norm over all velocity states is the smallest generalized
    eigenvalue of (2 (nu diag(rayleigh) + K_fric), I + diag(rayleigh / 2)).
    The H1 Gram matrix is diagonal, so this is the smallest eigenvalue of
    S 2 (nu diag(rayleigh) + K_fric) S with S = diag(1 / sqrt(1 + rayleigh / 2)).
    For the temperature, whose operator is kappa diag(lambda), it is
    min 2 kappa lambda / (1 + lambda) over the non-constant modes. A sector
    counts only if the run puts energy in it, for the temperature above
    1e-9 max(1, ||w||^2 + ||theta||^2) at some sample; a temperature mean
    above that floor is an undamped direction, so its rate is 0.
    """
    r_w = None
    if np.any(run.coeffs_w):
        rayleigh = solver.vb.rayleigh
        S = 1.0 / np.sqrt(1.0 + 0.5 * rayleigh)
        stiff = 2.0 * (np.diag(config.nu * rayleigh) + solver.forms.K_fric)
        r_w = float(np.linalg.eigvalsh(S[:, None] * stiff * S[None, :])[0])
    r_th = None
    # one floor at E1's tolerance scale: below it (the rounding noise of a
    # projection, say) energy is no temperature and no temperature mean
    floor = 1e-9 * np.maximum(1.0, run.series["w_l2sq"] + run.series["th_l2sq"])
    if np.any(run.series["th_l2sq"] > floor):
        lam = solver.tb.eigenvalues
        if np.any(np.sum(run.coeffs_th[:, lam == 0.0] ** 2, axis=1) > floor):
            r_th = 0.0
        else:
            lam = lam[lam > 0.0]
            r_th = float(np.min(2.0 * config.kappa_heat * lam / (1.0 + lam)))
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
    return Calibration(c1=c1, c2=c2, r_w=r_w, r_theta=r_th, M_65=M_65, M_3=M_3,
                       seed="exact rates of the assembled forms")


# ---------------------------------------------------------------------------
# Budget


def budget_series(run: RunResult, config: ScenarioConfig) -> tuple:
    """(F, log10_inf): the budget F = c (M + psi(sup ||d~||) D) at every
    sample, M = ||omega f||_{6/5}^2 and D = sum ||d~||_{W13}^2 + ||d~_t||_{W1,6/5}^2,
    and the largest log10 F over the samples where F is inf (-inf if none).

    psi times D is taken by _psi_product, in Python floats: it has the bits
    of the plain product where that is finite, and overflows to inf with no
    warning, its log10 kept.
    """
    s, c = run.series, config.c_budget
    data = s["d_w13_sq_sum"] + s["ddt_w165_sq_sum"]
    F, log10_inf = [], -math.inf
    for m, sup, d in zip(s["omega_f_65sq"].tolist(), s["d_w13_total"].tolist(), data.tolist()):
        amp, log10_amp = _psi_product(sup, d)
        F.append(c * (m + amp))
        if math.isinf(F[-1]):
            log10_inf = max(log10_inf, math.log10(c) + _log10_sum([_log10(m), log10_amp]))
    return np.array(F), log10_inf


# ---------------------------------------------------------------------------
# Individual certificates


def _inequality(name, eq_id, formula, lhs, rhs, tol=0.0, **kw) -> Certificate:
    """The certificate of lhs <= rhs at every sample (a scalar is one sample).

    Its margin is the smallest rhs - lhs and it passes when that margin is at
    least -tol; the other keywords (details, note, flags) are passed through.
    """
    margin = float(np.min(rhs - lhs))
    return Certificate(name=name, eq_id=eq_id, formula=formula, passed=bool(margin >= -tol),
                       margin=margin, **kw)


def _mk_energy_cert(ledger_X, Y, F, log10_inf, fric, c2, dt, joints, times) -> Certificate:
    """E1 at every sample, to the tolerance 1e-9 max(1, |X(t)|, F(t)) of
    that sample, reported as its largest finite value. Where F is inf the
    balance holds vacuously, and the certificate carries the float-range
    note with log10_inf, F's largest log10."""
    lhs = time_derivative(ledger_X, dt, joints) + c2 * Y + fric
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(ledger_X), F))
    cert = _inequality("energy-balance", "E1", "dX/dt + c2 Y + friction <= F", lhs, F)
    gap = F - lhs
    viol = np.flatnonzero(~(gap >= -tol))   # a nan gap is a violation
    near_joint = np.zeros(times.size, dtype=bool)
    for j in joints:
        near_joint[max(0, j - 1) : j + 2] = True
    off_joint = int(np.count_nonzero(~near_joint[viol]))
    frac = 1.0 - viol.size / times.size
    # the one-sided difference at a window joint may miss the balance: pass
    # if at most 1% of the samples fail, all of them at a joint, each by < 1e-6
    cert.passed = bool(frac >= 0.99 and off_joint == 0 and np.all(gap[viol] > -1e-6))
    cert.details = {
        "samples": int(times.size),
        "violations": int(viol.size),
        "violations_off_joint": off_joint,
        "max_violation": max(0.0, -cert.margin),
        "pass_fraction": frac,
        "tolerance": float(np.max(tol[np.isfinite(tol)], initial=1e-9)),
    }
    return _beyond_float(cert, float(np.max(F)), [log10_inf])


def _mk_recurrence_certs(times, X, Y, F, c2, run: RunResult) -> list:
    spw = run.config.steps_per_window
    nw = run.config.n_windows
    T = run.config.T
    windows = [slice(k * spw, (k + 1) * spw + 1) for k in range(nw)]
    A1 = max(_trapz(F[sl], times[sl]) for sl in windows)
    decay = math.exp(-c2 * T)
    if c2 * T < 1e-12:
        bound_base = A2 = math.inf
        note = "decay constant degenerate; recurrence bound is vacuous"
    else:
        bound_base = A1 / (1.0 - decay)
        A2 = A1 * (2.0 - decay) / (1.0 - decay) + X[0]
        # an infinite window integral of F makes both bounds hold vacuously
        note = BEYOND_FLOAT_NOTE if math.isinf(A1) else ""
    tol = 1e-9 * max(1.0, X[0], A1)

    bounds = np.array([bound_base + decay**k * X[0] for k in range(nw + 1)])
    rec = _inequality(
        "window-recurrence", "E2", "X(kT) <= A1/(1 - exp(-c2 T)) + exp(-c2 k T) X(0)",
        X[run.window_joint_indices()], bounds, tol,
        details={"A1": A1, "c2": c2, "T": T, "X0": float(X[0])}, note=note,
    )
    rec.details["per_window_margin_min"] = rec.margin

    # the integral form the balance law actually yields: at every t in the
    # window, X(t) + c2 int_{kT}^t Y <= int_{kT}^t F + X(kT) <= A2
    # (c2 = 0 takes nothing of the integral, which is not formed then)
    peaks = []
    for sl in windows:
        peak = X[sl]
        if c2:
            tw, Yw = times[sl], Y[sl]
            peak = peak + c2 * np.concatenate([[0.0], np.cumsum(0.5 * (Yw[1:] + Yw[:-1]) * np.diff(tw))])
        peaks.append(np.max(peak))
    absb = _inequality(
        "window-absorption", "E3", "max_t [X(t) + c2 int_kT^t Y] <= A2",
        np.array(peaks), A2, tol, details={"A2": A2}, note=note,
    )
    absb.details["per_window_margin_min"] = absb.margin
    return [rec, absb], A1, A2


def theta0_range(config: ScenarioConfig) -> tuple[float, float, bool]:
    """(lo, hi, inside): the analytic range of the configured initial
    temperature, and whether it lies in [theta_star, theta_star_upper] to
    1e-12, the hypothesis of E4 that `check` reports."""
    if config.init_theta == "zero":
        lo = hi = 0.0
    elif config.init_theta == "constant":
        lo = hi = config.init_theta_mean
    else:
        amp = abs(config.init_theta_amplitude)
        lo, hi = config.init_theta_mean - amp, config.init_theta_mean + amp
    inside = lo >= config.theta_star - 1e-12 and hi <= config.theta_star_upper + 1e-12
    return lo, hi, inside


def _mk_temperature_bounds_cert(run: RunResult, config: ScenarioConfig) -> Certificate:
    s = run.series
    lo, hi = config.theta_star, config.theta_star_upper
    allowance = config.tol_overshoot * (hi - lo)
    # hypotheses concern the analytic data; its spectral projection may
    # already overshoot, which is what the allowance is for
    hyp_ok = theta0_range(config)[2]
    n = s["th_min"].size
    overshoot = max(
        float(np.max(lo - s["th_min"])), float(np.max(s["th_max"] - hi)), 0.0
    )
    # the lower bound at every sample, then the upper one
    return _inequality(
        "temperature-bounds", "E4", "theta_lo - tol <= theta(t) <= theta_hi + tol",
        np.concatenate([np.full(n, lo - allowance), s["th_max"]]),
        np.concatenate([s["th_min"], np.full(n, hi + allowance)]),
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
    ints = s["th_integral"]
    d_int = time_derivative(ints, dt, run.window_joint_indices())
    # discrete-derivative tolerance from local third differences
    tol = np.full(t.size, 1e-8 * max(1.0, float(np.max(np.abs(ints)))))
    if t.size >= 4:
        est = np.zeros(t.size)
        est[2:-1] = np.abs(np.diff(ints, 3)) / (6.0 * dt)
        est[1] = est[2]
        est[-1] = est[-2]
        est[0] = est[1]
        tol = tol + est
    return _inequality(
        "mean-budget", "E5", "d/dt int theta <= int_inflow d1 theta (+ discrete tol)",
        d_int, s["inflow_theta"] + tol, details={"max_tolerance": float(np.max(tol))},
    )


def _v_norm_sq(sup_l2sq: float, int_gradsq: float) -> float:
    return (math.sqrt(sup_l2sq) + math.sqrt(max(int_gradsq, 0.0))) ** 2


def _mk_theta_energy_cert(run: RunResult, config: ScenarioConfig, theta0_l1: float) -> Certificate:
    s = run.series
    t = run.times
    lhs = _v_norm_sq(float(np.max(s["th_l2sq"])), _trapz(s["th_gradsq"], t))
    d1_l3_6 = _trapz(s["d_l3_cap1"] ** 6, t)
    d1_l1 = _trapz(s["d_l1_cap1"], t)
    growth, log10_growth = exp_product(d1_l3_6, config.c_theta, s["th_l2sq"][0])
    tsu = config.theta_star_upper
    d1_term, log10_d1 = exp_product(0.0, d1_l1, d1_l1, tsu, tsu)
    th0_term, log10_th0 = exp_product(0.0, theta0_l1, theta0_l1)
    rhs = growth + d1_term + th0_term
    cert = _inequality(
        "temperature-energy", "E6",
        "||theta||_V^2 <= c exp(int ||d1||_L3^6) ||theta0||^2 "
        "+ ||d1||_L1^2 theta_hi^2 + ||theta0||_L1^2",
        lhs, rhs, 1e-9 * max(1.0, rhs), details={"lhs": lhs, "rhs": rhs, "c": config.c_theta},
    )
    return _beyond_float(cert, rhs, [log10_growth, log10_d1, log10_th0])


def _mk_reconstruction_certs(run: RunResult, config: ScenarioConfig) -> list:
    s = run.series
    t = run.times
    v_V = _v_norm_sq(float(np.max(s["v_l2sq"])), _trapz(s["v_gradsq"], t))
    w_V = _v_norm_sq(float(np.max(s["w_l2sq"])), _trapz(s["w_gradsq"], t))
    d_V = _v_norm_sq(float(np.max(s["delta_l2sq"])), _trapz(s["delta_gradsq"], t))

    tol = 1e-9 * max(1.0, v_V)
    norms = {"v_V_sq": v_V, "w_V_sq": w_V, "delta_V_sq": d_V}
    tri2 = _inequality(
        "reconstruction-triangle-2x", "E7", "||v||_V^2 <= 2 (||w||_V^2 + ||delta||_V^2)",
        v_V, 2.0 * (w_V + d_V), tol, details=dict(norms),
    )
    tri1 = _inequality(
        "reconstruction-triangle-literal", "E7",
        "||v||_V^2 <= ||w||_V^2 + ||delta||_V^2 (sharp variant, informational)",
        v_V, w_V + d_V, tol, advisory=True, details=dict(norms),
    )

    c = config.c_recon
    sup_w13 = float(np.max(s["d_w13_total"]))
    l2_ext, h1_ext = float(np.max(s["d_l2_ext"])) ** 2, _trapz(s["d_h1_ext"] ** 2, t)
    l2_sum = float(np.max(s["d_l2_sum"])) ** 2
    # sup ||d~||_W13x^4 exp(sup/c) int sum_i ||d_i||_2^2
    layer, log10_layer = exp_product(sup_w13 / c, sup_w13**4, _trapz(s["d_l2_sq_sum"], t))
    delta_budget = c * l2_ext + c * h1_ext + c * layer + c * l2_sum
    lift = _inequality(
        "lifting-energy", "E9",
        "||delta||_V^2 <= c [sup ||d~||_2^2 + int ||d~||_H1^2 "
        "+ sup ||d~||_W13x^4 exp(sup/c) int sum_i ||d_i||_2^2 + sup ||d||_(2,inf)^2]",
        d_V, delta_budget, 1e-9 * max(1.0, delta_budget),
        details={"delta_V_sq": d_V, "budget": delta_budget, "c": c},
    )

    theta_V = _v_norm_sq(float(np.max(s["th_l2sq"])), _trapz(s["th_gradsq"], t))
    a1_big_sq, log10_a1 = _psi_product(
        sup_w13, _trapz(s["omega_f_65sq"] + s["d_w13_sq_sum"] + s["ddt_w165_sq_sum"], t)
    )
    # one configured constant multiplies the whole structural sum; the
    # occurrences of the existential constant in the source bound differ
    # term to term anyway, and the V-norm cross term forces a factor > 1
    # on the initial-energy terms
    w0, th0 = float(s["w_l2sq"][0]), float(s["th_l2sq"][0])   # floats overflow to inf quietly
    forcing = _trapz(s["omega_f_65sq"], t)
    rhs = c * (a1_big_sq + w0 + th0 + l2_ext + h1_ext + layer + forcing)
    lhs = v_V + theta_V
    agg = _inequality(
        "aggregate-energy", "E8", "||v||_V^2 + ||theta||_V^2 <= c * A(T)^2 structural sum",
        lhs, rhs, 1e-9 * max(1.0, rhs),
        details={"lhs": lhs, "rhs": rhs, "A1_big_sq": a1_big_sq, "c": c},
    )
    # the log10 of each term of the two bounds, over c
    log10_lift = (log10_layer, *map(_log10, (l2_ext, h1_ext, l2_sum)))
    log10_agg = (log10_a1, log10_layer, *map(_log10, (w0, th0, l2_ext, h1_ext, forcing)))
    log10_c = math.log10(c)
    return [
        tri2, tri1,
        _beyond_float(lift, delta_budget, [log10_c + x for x in log10_lift]),
        _beyond_float(agg, rhs, [log10_c + x for x in log10_agg]),
    ]


def _mk_weighted_certs(solver: GalerkinSolver, config: ScenarioConfig) -> list:
    hessian = "||D^2 phi||_{L_{3,mu}} / ||div b||_{L_{3,mu}} finite"
    layer = "||div b||_{L_{3,mu}} <= C_emp * structural cap terms"
    if solver.hopf_params is None:
        return [
            Certificate(name=name, eq_id=eq_id, formula=formula, passed=True, margin=math.inf,
                        applicable=False, note="no boundary flux in this scenario")
            for name, eq_id, formula in (("weighted-hessian", "E10", hessian), ("layer-bound", "E11", layer))
        ]
    # the numbers of the run's lifting of the cap shape g, i.e. of the data at s = 1
    wt = solver.couplings["weighted"]
    lhs, rhs, ratio = wt["lhs"], wt["rhs"], wt["ratio"]
    # lhs = 0 (and ratio = inf) when the cutoff layer falls between two x3
    # nodes: the grid sees no lifting, and neither estimate says anything
    resolved = lhs > 0.0
    note = "" if resolved else "cutoff layer not resolved by the x3 grid"
    const = lhs / rhs if rhs > 0 else math.inf
    return [
        Certificate(
            name="weighted-hessian",
            eq_id="E10",
            formula=hessian,
            passed=bool(math.isfinite(ratio)),
            margin=ratio,
            details={"ratio": ratio, "mu": config.mu, "residual": wt["residual"],
                     "spectral_tail": wt["spectral_tail"]},
            note=note,
        ),
        Certificate(
            name="layer-bound",
            eq_id="E11",
            formula=layer,
            passed=bool(resolved and math.isfinite(const)),
            margin=const,
            details={"lhs": lhs, "rhs_structure": rhs, "C_emp": const, "mu": config.mu},
            note=note,
        ),
    ]


def _mk_compat_cert(run: RunResult) -> Certificate:
    residual = run.series["compat_residual"]
    return _inequality(
        "flux-compatibility", "E12", "|int d1 - int d2| / max(1, int d1) <= 1e-12",
        residual, 1e-12, details={"worst_residual": float(np.max(residual))},
    )


def _mk_dissipation_cert(X: np.ndarray, solver: GalerkinSolver) -> Certificate:
    dX = np.diff(X)
    return _inequality(
        "dissipation-monotone", "E13", "X(t) nonincreasing sample to sample",
        dX, 1e-12 * max(1.0, float(X[0])), applicable=is_free_decay(solver),
        details={"max_increase": float(np.max(dX))},
    )


# ---------------------------------------------------------------------------
# Driver


def audit_run(run: RunResult, solver: GalerkinSolver) -> EnergyLedger:
    config = run.config
    cal = calibrate(run, solver, config)

    s = run.series
    X = cal.c1 * s["th_l2sq"] + s["w_l2sq"]
    Y = cal.c1 * s["th_h1sq"] + s["w_h1sq"]
    F, log10_inf = budget_series(run, config)
    t = run.times
    joints = run.window_joint_indices()

    rec_certs, A1, A2 = _mk_recurrence_certs(t, X, Y, F, cal.c2, run)
    certs = [
        _mk_energy_cert(X, Y, F, log10_inf, s["fric_sq"], cal.c2, config.dt, joints, t),
        *rec_certs,
        _mk_temperature_bounds_cert(run, config),
        _mk_mean_budget_cert(run, config),
        _mk_theta_energy_cert(
            run, config, solver.grid.integrate(np.abs(solver.theta_values(run.coeffs_th[0])))
        ),
        *_mk_reconstruction_certs(run, config),
        *_mk_weighted_certs(solver, config),
        _mk_compat_cert(run),
        _mk_dissipation_cert(X, solver),
    ]

    return EnergyLedger(X=X, Y=Y, F=F, A1=A1, A2=A2, calibration=cal, certificates=certs)


# ---------------------------------------------------------------------------
# Reports


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def ledger_to_text(ledger: EnergyLedger, scenario_name: str = "") -> str:
    cal = ledger.calibration
    lines = []
    lines.append("energy audit report")
    if scenario_name:
        lines.append(f"scenario: {scenario_name}")
    lines.append(
        f"constants: c1={_fmt(cal.c1)} c2={_fmt(cal.c2)} "
        f"(exact r_w={_fmt(cal.r_w)} r_theta={_fmt(cal.r_theta)} "
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


def _field_dict(obj) -> dict:
    """The fields of a dataclass by name, not copied: json.dumps writes what
    it would write of dataclasses.asdict's deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def ledger_to_json_obj(ledger: EnergyLedger) -> dict:
    return {
        "constants": _field_dict(ledger.calibration),
        "A1": ledger.A1,
        "A2": ledger.A2,
        "budget_note": BUDGET_NOTE,
        "certificates": [{**_field_dict(c), "status": c.status} for c in ledger.certificates],
    }

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from ductflow import cli
from ductflow.basis import (
    AssembledForms,
    DeltaEval,
    build_temperature_basis,
    build_velocity_basis,
)
from ductflow.errors import NumericalAbort, ScenarioError
from ductflow.domain import build_domain
import ductflow.hopf as hopf_mod
import ductflow.solver as solver_mod
from ductflow.hopf import build_b, cap_norms, compatibility_residual, sample_cap_shape
from ductflow.poisson import delta_field, solve_neumann
from ductflow.solver import (
    GalerkinSolver,
    ImexStepper,
    ScenarioConfig,
)


def sampled(solver, x, t=0.0) -> dict:
    """Every audit series at the row x = (c, dcoef) at time t, as the ledger
    derives them from the stored rows."""
    m = solver.config.m
    series = solver._ledger(solver.drive(np.array([t])), x[None, :m], x[None, m:])
    return {key: value[0] for key, value in series.items()}


def small_config(**kw) -> ScenarioConfig:
    base = dict(
        N1=8, N2=8, N3=16, m=6, T=0.1, n_windows=1, dt=5e-3,
        nu=1.0, kappa_heat=1.0, gamma=1.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


# --- IMEX stepper against the matrix exponential ---------------------------

def test_imex_linear_decay_matches_expm_to_second_order():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 8))
    L = A @ A.T + 8 * np.eye(8)
    x0 = rng.standard_normal(8)
    Lnorm = np.linalg.norm(L, 2)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        stepper = ImexStepper([L], dt)
        x1 = stepper.step(x0, np.zeros(8))
        ref = expm(-L * dt) @ x0
        errs.append(np.linalg.norm(x1 - ref))
        # per-step error within O(dt^2), constant scaled by the stiffness
        assert errs[-1] <= dt**2 * Lnorm**2 * np.linalg.norm(x0)
    # Crank-Nicolson: local error is actually third order, ratios near 8
    assert 6.0 < errs[0] / errs[1] < 10.0
    assert 6.0 < errs[1] / errs[2] < 10.0


def test_imex_step_matches_the_dense_solve():
    # the precomputed propagators give the Crank-Nicolson step
    # A x_new = B x + dt E, A = I + dt/2 L, B = I - dt/2 L, with E the
    # explicit part: E_now from a fresh window, AB2 1.5 E_now - 0.5 E_prev after
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((32, 32)))
    L = (Q * np.logspace(0, 4, 32)) @ Q.T   # stiff: dt/2 L reaches 10
    dt = 2e-3
    eye = np.eye(32)
    stepper = ImexStepper([L], dt)
    x, E_now, E_prev = rng.standard_normal((3, 32))
    for got, E in ((stepper.step(x, E_now), E_now),
                   (stepper.step(x, E_now, E_prev), 1.5 * E_now - 0.5 * E_prev)):
        ref = np.linalg.solve(eye + 0.5 * dt * L, (eye - 0.5 * dt * L) @ x + dt * E)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_stacked_propagators_are_the_separate_ones():
    # the solver steps x = (c, dcoef) with one stepper over blockdiag(L_w,
    # L_th): its M and N are the two separate propagators side by side, to
    # the bit, with exact zeros off the diagonal blocks, so a stacked step
    # is the two separate steps. Sizes 10 and 7 differ and are not
    # multiples of a SIMD width
    rng = np.random.default_rng(5)
    A = rng.standard_normal((10, 10))
    L_w = A @ A.T + np.diag(rng.uniform(1.0, 400.0, 10))
    L_th = np.diag(np.r_[0.0, rng.uniform(1.0, 900.0, 6)])
    dt = 2.5e-3
    stacked, w, th = ImexStepper([L_w, L_th], dt), ImexStepper([L_w], dt), ImexStepper([L_th], dt)
    for name in ("M", "N"):
        got = getattr(stacked, name)
        assert np.array_equal(got[:10, :10], getattr(w, name)), name
        assert np.array_equal(got[10:, 10:], getattr(th, name)), name
        assert not got[:10, 10:].any() and not got[10:, :10].any(), name
    x, E_now, E_prev = rng.standard_normal((3, 17))
    for args in ((), (E_prev,)):
        got = stacked.step(x, E_now, *args)
        ref = np.concatenate([w.step(x[:10], E_now[:10], *(a[:10] for a in args)),
                              th.step(x[10:], E_now[10:], *(a[10:] for a in args))])
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # the solver's own stepper, against propagators built from its forms
    solver = GalerkinSolver(small_config(m=12, nu=0.7, kappa_heat=0.6))
    cfg, m = solver.config, solver.config.m
    blocks = (np.diag(cfg.nu * solver.vb.rayleigh) + solver.forms.K_fric,
              np.diag(cfg.kappa_heat * solver.tb.eigenvalues))
    w, th = (ImexStepper([L], cfg.dt) for L in blocks)
    for name in ("M", "N"):
        got = getattr(solver._stepper, name)
        assert np.array_equal(got[:m, :m], getattr(w, name)), name
        assert np.array_equal(got[m:, m:], getattr(th, name)), name
        assert not got[:m, m:].any() and not got[m:, :m].any(), name


# --- basic dynamics ---------------------------------------------------------

def test_zero_everything_stays_zero():
    solver = GalerkinSolver(small_config())
    res = solver.run_windows()
    assert np.max(res.series["w_l2sq"]) == 0.0
    assert np.max(res.series["th_l2sq"]) == 0.0


def oracle_transport(solver):
    """(T_vel, T_th) of the solver's modes by quadrature of the formula fields."""
    cfg = solver.config
    ref = oracles.forms_by_quadrature(
        solver.vb.modes, solver.tb.modes, solver.grid, cfg.nu, cfg.gamma, cfg.kappa_heat
    )
    return ref["T_vel"], ref["T_th"]


def oracle_config(**kw) -> ScenarioConfig:
    # pulsed flux, shear forcing and linear omega: every weak-form term is on
    base = dict(
        flux_profile="pulsed", flux_amplitude=0.6, flux_beta=0.4, flux_period=0.5,
        forcing_kind="shear", forcing_amplitude=0.3,
        omega_kind="linear", omega0=1.0, omega1=0.2,
        init_theta="bump", init_theta_mean=1.5, init_theta_amplitude=0.4,
        init_v="modes", init_v_amplitude=0.4,
    )
    base.update(kw)
    return small_config(**base)


def test_rhs_consistency_with_explicit_split():
    # One step from a fresh window is Crank-Nicolson on the implicit forms
    # plus forward Euler on the rest. Rebuilt here from the oracle totals, it
    # puts the terms the stepper advances under the oracle. On the first six
    # modes the lifting functionals (bdry, F_vol, F_form) and the
    # temperature advection vanish by symmetry; m = 12 makes them nonzero.
    # On the caps bdry = B + F_bdry carries (nu - 1) n.D(delta).tau, which
    # cancels at nu = 1; nu = 0.7 keeps the cap stresses of the lifting in
    # the step.
    # The implicit matrices are the oracle's too, and kappa = 0.6 puts the
    # heat constant into the temperature step.
    for m, nu, kappa_heat in ((6, 1.0, 1.0), (12, 1.0, 1.0), (12, 0.7, 1.0), (12, 0.7, 0.6)):
        cfg = oracle_config(m=m, nu=nu, kappa_heat=kappa_heat)
        solver = GalerkinSolver(cfg)
        x0, t = solver.initial_state(), 0.03
        c, dcoef = x0[:m], x0[m:]
        delta, delta_t = oracles.scaled_lifting(solver, t)
        slow = oracles.slow_rhs_velocity(
            c, dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
            nu=cfg.nu, gamma=cfg.gamma, omega_fn=solver.omega,
            f_values=solver.f_values, delta=delta, delta_t=delta_t,
        )
        slow_th = oracles.slow_rhs_temperature(
            c, dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
            kappa_heat=cfg.kappa_heat, delta=delta,
        )
        ref_forms = oracles.forms_by_quadrature(
            solver.vb.modes, solver.tb.modes, solver.grid, cfg.nu, cfg.gamma, cfg.kappa_heat
        )
        stepped, _ = oracles.step_state(solver, x0, t)
        dt = cfg.dt
        cases = (
            (c, slow["total"], ref_forms["K_visc"] + ref_forms["K_fric"], stepped[:m]),
            (dcoef, slow_th["total"], ref_forms["K_theta"], stepped[m:]),
        )
        for x, total, L, got in cases:
            eye = np.eye(x.size)
            rhs = (eye - 0.5 * dt * L) @ x + dt * (total + L @ x)
            ref = np.linalg.solve(eye + 0.5 * dt * L, rhs)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-8 * scale, (m, nu)


def test_rhs_matches_slow_oracle_every_term():
    # direct-quadrature oracle of every weak-form term; on the first six
    # modes bdry, F_vol and F_form vanish by symmetry, m = 12 sees them,
    # and m = 24 also sees P(delta . grad delta), the s^2 part of F_vol
    for m in (6, 12, 24):
        cfg = oracle_config(m=m)
        solver = GalerkinSolver(cfg)
        x, t = solver.initial_state(), 0.03
        c, dcoef = x[:m], x[m:]
        delta, delta_t = oracles.scaled_lifting(solver, t)
        fast, fast_th = solver.rhs_terms(x, solver.drive(t))
        slow = oracles.slow_rhs_velocity(
            c, dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
            nu=cfg.nu, gamma=cfg.gamma, omega_fn=solver.omega,
            f_values=solver.f_values, delta=delta, delta_t=delta_t,
        )
        name_map = {
            "conv_www": "conv_www", "conv_wdelta": "conv_wdelta",
            "conv_deltaw": "conv_deltaw", "visc": "visc", "fric": "fric",
            "bdry": "bdry", "F_vol": "F_vol", "F_form": "F_form",
            "f_omega": "f_omega", "total": "total",
        }
        for fast_key, slow_key in name_map.items():
            a, b = fast[fast_key], slow[slow_key]
            scale = max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) <= 1e-8 * scale, (m, fast_key)

        slow_th = oracles.slow_rhs_temperature(
            c, dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
            kappa_heat=cfg.kappa_heat, delta=delta,
        )
        for key in ("diff", "adv", "total"):
            a, b = fast_th[key], slow_th[key]
            scale = max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(a - b)) <= 1e-8 * scale, (m, key)


def random_forcing_state(solver):
    # theta straddles the clamp interval [theta_star, theta_star_upper] = [1, 2]
    rng = np.random.default_rng(7)
    dcoef = 0.3 * rng.standard_normal(solver.tb.m)
    dcoef[0] = 1.5 * math.sqrt(solver.grid.spec.volume)
    return np.concatenate([0.2 * rng.standard_normal(solver.config.m), dcoef])


@pytest.mark.parametrize("forcing_kind", ["zero", "constant", "shear"])
@pytest.mark.parametrize("omega_kind", ["constant", "linear", "bounded_smooth"])
def test_forcing_term_matches_the_grid_in_every_case(omega_kind, forcing_kind):
    # the run loop reads omega(theta) f from data built once per run unless
    # omega is bounded_smooth; at a random state its projection must match
    # direct quadrature and its sampled norms the clamped grid formula
    cfg = small_config(
        omega_kind=omega_kind, omega0=0.9, omega1=0.0 if omega_kind == "constant" else 0.3,
        forcing_kind=forcing_kind, forcing_vector=(0.2, -0.1, 0.4), forcing_amplitude=0.3,
    )
    solver = GalerkinSolver(cfg)
    grid = solver.grid
    x = random_forcing_state(solver)
    c, dcoef = x[: cfg.m], x[cfg.m :]
    vel, _ = solver.rhs_terms(x, solver.drive(0.0))
    slow = oracles.slow_rhs_velocity(
        c, dcoef, solver.vb.modes, solver.tb.modes, grid,
        nu=cfg.nu, gamma=cfg.gamma, omega_fn=solver.omega, f_values=solver.f_values,
    )
    theta = oracles.slow_field_sum(
        dcoef, [oracles.temperature_mode_fields(md, grid)[0] for md in solver.tb.modes]
    )
    # |<g, psi_j>| <= ||g|| for orthonormal psi_j, so ||omega(theta) f|| is
    # the scale of every component; zero forcing must give exact zeros
    scale = math.sqrt(oracles.integrate(grid, np.sum((solver.omega(theta) * solver.f_values) ** 2, axis=0)))
    assert np.max(np.abs(vel["f_omega"] - slow["f_omega"])) <= 1e-12 * scale

    clamped = np.clip(theta, cfg.theta_star, cfg.theta_star_upper)
    mag = np.sqrt(np.sum((solver.omega(clamped) * solver.f_values) ** 2, axis=0))
    ref = {
        "omega_f_65sq": oracles.integrate(grid, mag ** 1.2) ** (5.0 / 3.0),
        "omega_f_l3sq": oracles.integrate(grid, mag**3) ** (2.0 / 3.0),
    }
    row = sampled(solver, x)
    for key, value in ref.items():
        assert abs(row[key] - value) <= 1e-12 * value, key
    assert (ref["omega_f_65sq"] == 0.0) == cfg.forcing_is_zero


def clamped_norms_on_the_grid(solver, theta):
    """The sampled norms of omega(theta~) f as the grid formula gives them:
    |omega(theta~) f| at every node, to the powers 6/5 and 3, integrated."""
    cfg, grid = solver.config, solver.grid
    clamped = np.clip(theta, cfg.theta_star, cfg.theta_star_upper)
    mag = np.sqrt(np.sum((solver.omega(clamped) * solver.f_values) ** 2, axis=0))
    return oracles.integrate(grid, mag ** 1.2) ** (5.0 / 3.0), oracles.integrate(grid, mag**3) ** (2.0 / 3.0)


@pytest.mark.parametrize("forcing_kind", ["zero", "shear"])
@pytest.mark.parametrize("omega_kind", ["constant", "linear", "bounded_smooth"])
def test_ledger_forcing_norms_match_the_grid_at_every_row(omega_kind, forcing_kind):
    # the ledger takes the clamped forcing norms of each stored row from
    # |omega(theta~)| and per-run weights of |f|; at every row of a run whose
    # theta crosses both clamp bounds (m = 8 holds the bump's carrier, and a
    # slow diffusion keeps it) they must match the grid formula. A
    # constant omega gives the per-run pair at every row, zero forcing
    # exact zeros
    cfg = small_config(
        omega_kind=omega_kind, omega0=0.9, omega1=0.0 if omega_kind == "constant" else 0.3,
        forcing_kind=forcing_kind, forcing_amplitude=0.3, m=8, kappa_heat=0.05,
        init_theta="bump", init_theta_mean=1.5, init_theta_amplitude=0.8,
    )
    solver = GalerkinSolver(cfg)
    run = solver.run_windows()
    series = (run.series["omega_f_65sq"], run.series["omega_f_l3sq"])
    modes = [oracles.temperature_mode_fields(md, solver.grid)[0] for md in solver.tb.modes]
    for i, dcoef in enumerate(run.coeffs_th):
        theta = oracles.slow_field_sum(dcoef, modes)
        assert theta.min() < cfg.theta_star and theta.max() > cfg.theta_star_upper, i
        for got, ref in zip(series, clamped_norms_on_the_grid(solver, theta)):
            assert abs(got[i] - ref) <= 1e-12 * ref, i
    if forcing_kind == "zero":
        assert all(np.array_equal(col, np.zeros(run.times.size)) and not np.signbit(col).any()
                   for col in series)
    elif omega_kind == "constant":
        assert all(np.all(col == norm) for col, norm in zip(series, solver._forcing["norms"]))


def test_stepping_forcing_needs_no_grid_field(monkeypatch):
    # with zero forcing or a linear omega the forcing term of a step is read
    # from coefficients: once its data are built, a step neither synthesizes
    # theta on the grid nor projects a grid field; bounded_smooth still does
    shear = dict(forcing_kind="shear", forcing_amplitude=0.3)
    for kw, grid_calls in (
        (dict(omega_kind="linear", omega1=0.3), []),
        (dict(omega_kind="linear", omega1=0.3, **shear), []),
        (dict(omega_kind="bounded_smooth", omega1=0.3), []),
        (shear, []),
        (dict(omega_kind="bounded_smooth", omega1=0.3, **shear), ["theta_values", "project_velocity"] * 3),
    ):
        solver = GalerkinSolver(small_config(**kw))
        x, E = oracles.step_state(solver, random_forcing_state(solver), 0.0)
        calls = []
        with monkeypatch.context() as mp:
            for owner, name in ((GalerkinSolver, "theta_values"), (AssembledForms, "project_velocity")):
                def counted(*args, _name=name, _orig=getattr(owner, name)):
                    calls.append(_name)
                    return _orig(*args)
                mp.setattr(owner, name, counted)
            for n in range(1, 4):
                x, E = oracles.step_state(solver, x, n * solver.config.dt, E)
        assert calls == grid_calls, kw


@pytest.mark.parametrize("kw", [
    dict(), dict(forcing_kind="constant"), dict(forcing_kind="shear", omega_kind="linear", omega1=0.3),
])
def test_zero_data_are_exact_zeros_without_grid_work(monkeypatch, kw):
    # zero forcing and the zero lifting: the forcing projection and norms and
    # the cap numbers of g are built without the grid, and equal the grid
    # expressions for f = 0 and g = 0 to the bit, signs of zero included
    solver = GalerkinSolver(small_config(**kw))
    grid, profile, forms = solver.grid, solver.profile, solver.forms
    lo = grid.caps[0]
    reference = dict(
        P=forms.project_velocity(solver.omega(0.0) * solver.f_values),
        norms=solver._omega_f_norms(np.zeros(grid.shape), solver._f_weights()),
        cap=cap_norms(sample_cap_shape(profile, grid), grid),
        inflow=forms.tb.factors.project_face(0, lo, profile.g(*lo.meshgrid())),
    )

    def refuse(*args):
        raise AssertionError("grid work for zero data")

    for owner, name in ((AssembledForms, "project_velocity"), (GalerkinSolver, "_omega_f_norms"),
                        (solver_mod, "cap_norms"), (type(forms.tb.factors), "project_face")):
        monkeypatch.setattr(owner, name, refuse)
    built = {**solver._forcing, **solver.couplings}
    for key, ref in reference.items():
        got = built[key]
        if key == "cap":
            got, ref = dataclasses.astuple(got), dataclasses.astuple(ref)
        got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref)), key
    assert solver._forcing["kind"] == "constant"


FLUXES = (
    dict(flux_profile="none"),
    dict(flux_profile="constant", flux_amplitude=0.6),
    dict(flux_profile="pulsed", flux_amplitude=0.6, flux_beta=0.4, flux_period=0.5),
)


@pytest.mark.parametrize("forcing_kind", ["zero", "constant", "shear"])
@pytest.mark.parametrize("omega_kind", ["constant", "linear", "bounded_smooth"])
def test_stepped_explicit_part_is_the_sum_of_the_terms(omega_kind, forcing_kind):
    # a step advances one explicit operator built once per run, with the
    # lifting couplings summed; what it hands the steppers must be the sum
    # of the weak-form terms of rhs_terms, for every forcing path and flux.
    # At t = 0.03 both s and s' of the pulsed flux are nonzero, and m = 24
    # makes every lifting term nonzero, the s^2 part of F_vol included
    for flux in FLUXES:
        cfg = small_config(
            m=24, omega_kind=omega_kind, omega0=0.9, omega1=0.0 if omega_kind == "constant" else 0.3,
            forcing_kind=forcing_kind, forcing_vector=(0.2, -0.1, 0.4), forcing_amplitude=0.3, **flux,
        )
        solver = GalerkinSolver(cfg)
        x, t = random_forcing_state(solver), 0.03
        stepped = []

        def record(x, E_now, E_prev=None, out=None, _step=solver._stepper.step):
            stepped.append(E_now.copy())
            return _step(x, E_now, E_prev, out)

        solver._stepper.step = record
        oracles.step_state(solver, x, t)
        vel, th = solver.rhs_terms(x, solver.drive(t))
        lifting = ("conv_wdelta", "conv_deltaw", "bdry", "F_vol", "F_form")
        if cfg.flux_profile == "pulsed":
            assert solver.profile.s_t(t) != 0.0
            assert all(np.any(vel[key]) for key in lifting)
            assert np.any(solver.couplings["F_adv"])
        terms_w = [-vel["conv_www"], vel["f_omega"], -vel["conv_wdelta"], -vel["conv_deltaw"],
                   vel["bdry"], vel["F_vol"], vel["F_form"]]
        (E,) = stepped
        for got, terms in zip((E[: cfg.m], E[cfg.m :]), (terms_w, [-th["adv"]])):
            scale = max(float(np.max(np.abs(term))) for term in terms)
            assert np.max(np.abs(got - sum(terms))) <= 1e-13 * scale, flux


def test_setup_builds_no_lifting():
    # the lifting's couplings (the explicit operator's rows among them) are
    # its one record, built on first use, by the first step, so the set-up
    # time carries none of it. init_v = modes needs no lifting for the first
    # row, so the step is what builds it
    solver = GalerkinSolver(oracle_config(init_v="modes"))
    assert "couplings" not in solver.__dict__
    x0 = solver.initial_state()
    assert "couplings" not in solver.__dict__
    oracles.step_state(solver, x0, 0.0)
    assert "couplings" in solver.__dict__
    assert not hasattr(solver, "lifting")


@pytest.mark.parametrize("kw", [
    dict(),
    dict(omega_kind="linear", omega1=0.3, forcing_kind="shear", forcing_amplitude=0.3),
])
def test_run_loop_only_steps_and_stores(monkeypatch, kw):
    # the loop steps and stores the coefficients; theta is synthesized on
    # the grid only afterwards, by the ledger over the stored rows. A
    # bounded_smooth omega is left out: its step synthesizes theta by design
    solver = GalerkinSolver(small_config(n_windows=2, **kw))
    n_steps = 2 * solver.config.steps_per_window
    steps, thetas = [], []

    def step(self, x, drive, out, E_prev=None, _orig=GalerkinSolver.step):
        steps.append(drive)
        return _orig(self, x, drive, out, E_prev)

    def theta_values(self, dcoef, out=None, _orig=GalerkinSolver.theta_values):
        thetas.append(len(steps))
        return _orig(self, dcoef, out)

    monkeypatch.setattr(GalerkinSolver, "step", step)
    monkeypatch.setattr(GalerkinSolver, "theta_values", theta_values)
    res = solver.run_windows()
    assert len(steps) == n_steps and res.times.size == n_steps + 1
    assert thetas and set(thetas) == {n_steps}, "theta synthesized before the last step"


def test_step_is_a_function_of_its_arguments():
    # the solver keeps no AB2 history: a step called twice with the same
    # row, drive and E_prev writes the same row and returns the same
    # explicit part, bit for bit, on a window's first step (no E_prev) and
    # after it; and a run leaves on the solver only its per-run constants
    # built on first use. Pulsed flux, shear and a linear omega put every
    # explicit term in E
    cfg = oracle_config(m=12, n_windows=2, T=0.03)
    solver = GalerkinSolver(cfg)
    x0 = solver.initial_state()
    drive = solver.drive(np.array([0.0, cfg.dt]))
    x1 = np.empty_like(x0)
    E0 = solver.step(x0, drive[0], x1)
    for x, d, E_prev in ((x0, drive[0], None), (x1, drive[1], E0)):
        a, b = np.empty_like(x0), np.empty_like(x0)
        E_a, E_b = solver.step(x, d, a, E_prev), solver.step(x, d, b, E_prev)
        assert np.array_equal(a, b) and np.array_equal(E_a, E_b)

    solver = GalerkinSolver(cfg)
    built = dict(vars(solver))
    solver.run_windows()
    assert set(vars(solver)) - set(built) == {"couplings", "_forcing"}
    assert all(vars(solver)[key] is value for key, value in built.items())


def test_sample_times_are_multiples_of_dt():
    # sample n is at n dt, so the last is the horizon: a running sum of dt,
    # the times once stepped, is 0.05000000000000001 after 20 steps of 0.0025
    run = GalerkinSolver(small_config(T=0.025, n_windows=2, dt=0.0025)).run_windows()
    running = [0.0]
    for _ in range(20):
        running.append(running[-1] + 0.0025)
    assert running[-1] != 0.05
    assert np.array_equal(run.times, np.arange(21) * 0.0025) and run.times[-1] == 0.05


def test_stored_trajectory_obeys_the_scheme():
    # every stored row is the Crank-Nicolson/AB2 step of the row before:
    # x_{n+1} = M x_n + N (1.5 E_n - 0.5 E_{n-1}), and M x_n + N E_n on the
    # first step of each window, where E_n is the explicit part rhs_terms
    # gives at the stored sample n and M, N are built here from the spectra
    # and the friction form. Pulsed flux (s and s' change every step),
    # shear forcing and a linear omega put every explicit term in E_n, so a
    # time table read one row off, a missed restart or a block out of place
    # shows
    solver = GalerkinSolver(oracle_config(m=12, n_windows=2, T=0.03))
    run = solver.run_windows()
    cfg, m = solver.config, solver.config.m
    dt, spw = cfg.dt, cfg.steps_per_window
    blocks = (np.diag(cfg.nu * solver.vb.rayleigh) + solver.forms.K_fric,
              np.diag(cfg.kappa_heat * solver.tb.eigenvalues))
    size = sum(len(L) for L in blocks)
    L = np.zeros((size, size))
    L[:m, :m], L[m:, m:] = blocks
    eye = np.eye(size)
    M = np.linalg.solve(eye + 0.5 * dt * L, eye - 0.5 * dt * L)
    N = dt * np.linalg.inv(eye + 0.5 * dt * L)
    X = np.hstack([run.coeffs_w, run.coeffs_th])
    E = np.array([np.concatenate([part["explicit"] for part in solver.rhs_terms(row, drive)])
                  for row, drive in zip(X, solver.drive(run.times))])
    assert np.any(E[:, :m] != 0.0) and np.any(E[:, m:] != 0.0)
    for n in range(len(X) - 1):
        expl = E[n] if n % spw == 0 else 1.5 * E[n] - 0.5 * E[n - 1]
        ref = M @ X[n] + N @ expl
        assert np.max(np.abs(X[n + 1] - ref)) <= 1e-13 * np.max(np.abs(ref)), n


def test_scaled_lifting_matches_direct_rebuild():
    # delta(t) = s(t) delta_1, delta_t = s'(t) delta_1 and the couplings
    # scaled by s, s' and s^2 must equal a lifting rebuilt from the data at t
    # and assembled anew; so must the velocity that reconstruct gives at c = 0.
    # m = 24: below it P(delta_1 . grad delta_1), the s^2 part of F_vol,
    # vanishes by symmetry
    cfg = oracle_config(m=24)
    solver = GalerkinSolver(cfg)
    grid, forms, prof, params = solver.grid, solver.forms, solver.profile, solver.hopf_params
    x0 = solver.initial_state()
    c0, dcoef0 = x0[: cfg.m], x0[cfg.m :]

    def rebuild(t):
        # the data at t as a steady profile of shape s(t) g
        s = prof.s(t)
        at_t = dataclasses.replace(
            prof,
            g=lambda x1, x2: s * prof.g(x1, x2),
            g1=lambda x1, x2: s * prof.g1(x1, x2),
            g2=lambda x1, x2: s * prof.g2(x1, x2),
        )
        ext = build_b(sample_cap_shape(at_t, grid), params, grid)
        return delta_field(ext, solve_neumann(ext.div_b, grid), grid)

    def close(got, ref, tol, label):
        scale = float(np.max(np.abs(ref)))
        assert scale > 0.0, label
        assert np.max(np.abs(got - ref)) <= tol * scale, label

    _, T_th = oracle_transport(solver)
    h = 1e-5
    for t in (0.03, 0.17, 0.41):
        delta, delta_t = oracles.scaled_lifting(solver, t)
        field = rebuild(t)
        _, v, _ = solver.reconstruct(np.concatenate([np.zeros(cfg.m), dcoef0]), solver.drive(t))
        close(v, field.values, 1e-12, ("reconstruct", t))
        close(delta.values, field.values, 1e-12, ("values", t))
        close(delta.grad, field.grad, 1e-12, ("grad", t))
        # the cap stress of the data s(t) g is s(t) (g1, g2) on each cap
        cap_grad = [[prof.s(t) * fn(*p.meshgrid()) for fn in (prof.g1, prof.g2)] for p in grid.caps]
        for patch, got, face in zip(grid.patches, delta.faces, field.faces):
            face_id = (patch.axis, patch.side)
            close(got.values, face, 1e-12, ("face", face_id, t))
            if patch.axis == 2:
                stress = np.stack([oracles.sym(got.grad)[2, c] for c in (0, 1)])
                close(stress, np.stack(cap_grad[patch.side]), 1e-12, ("cap stress", face_id, t))
        fd = (rebuild(t + h).values - rebuild(t - h).values) / (2.0 * h)
        close(delta_t, fd, 1e-6, ("delta_t", t))

        # delta_t enters F_vol only, as -P(delta_t); it is checked against
        # the rebuild above
        vel, th = solver.rhs_terms(x0, solver.drive(t))
        moments = forms.lifting_moments(field)
        g_wd, g_dw, g_dth = forms.delta_matrices(moments)
        _, F_adv, _, F_form = forms.delta_vectors(moments)
        expected = {
            "conv_wdelta": g_wd @ c0,
            "conv_deltaw": g_dw @ c0,
            "bdry": forms.boundary_functionals(field, cap_grad),
            "F_vol": F_adv - forms.project_velocity(delta_t),
            "F_form": F_form,
        }
        for key, ref in expected.items():
            close(vel[key], ref, 1e-12, (key, t))
        adv_w = oracles.dense_transport(c0, dcoef0, T_th)
        close(th["adv"] - adv_w, g_dth @ dcoef0, 1e-12, ("adv", t))


def test_sampled_cap_series_match_the_flux_definitions():
    # the ledger scales numbers of g computed once per run by |s| and |s'|;
    # each series must equal the one computed from d1, d2 and the cap norms
    # of d(t) = s(t) g at t: == where the ledger keeps that order of
    # operations, 1e-14 relative where it factors |s| out of a sum, a square
    # or a root. The norms of v = w + s delta_1 and of delta are closed forms
    # in c, s and numbers of delta_1; they must equal grid quadrature of the
    # fields. From v0 = 0 at m = 12 both cross terms c.P and c.Q are nonzero;
    # on the "modes" initial state they vanish by symmetry
    solver = GalerkinSolver(oracle_config(m=12, init_v="zero"))
    grid, prof, m = solver.grid, solver.profile, solver.config.m
    x0 = solver.initial_state()
    c0, dcoef0 = x0[:m], x0[m:]
    k = solver.couplings
    assert abs(c0 @ k["P"]) > 1e-5 and abs(c0 @ k["Q"]) > 1e-3
    gpsi = oracles.family_fields(solver.vb.factors)[1].reshape(solver.vb.m, 3, 3, -1)
    shape = cap_norms(sample_cap_shape(prof, grid), grid)
    for t in (0.0, 0.03, 0.17, 0.41):
        delta, _ = oracles.scaled_lifting(solver, t)
        row = sampled(solver, x0, t)
        # the cap norms of d(t) and of its time derivative
        a_s, a_st = abs(prof.s(t)), abs(prof.s_t(t))
        w13, l2, l3, l1, gl2 = (
            [a_s * x for x in norms]
            for norms in (shape.w13_cap, shape.l2_cap, shape.l3_cap, shape.l1_cap, shape.g_l2_cap)
        )
        w165_dt = [a_st * x for x in shape.w1_65_dt_cap]
        depth = 2.0 * grid.spec.a
        exact = {
            "d_l3_cap1": l3[0],
            "d_l1_cap1": l1[0],
            "compat_residual": compatibility_residual([p.integrate(prof.g(*p.meshgrid())) for p in grid.caps],
                                                      prof.s(t)),
        }
        close = {
            "d_w13_total": sum(w13),
            "d_w13_sq_sum": sum(x**2 for x in w13),
            "ddt_w165_sq_sum": sum(x**2 for x in w165_dt),
            "d_l2_sum": sum(l2),
            "d_l2_sq_sum": sum(x**2 for x in l2),
            "d_l2_ext": math.sqrt(depth) * sum(l2),
            "d_h1_ext": math.sqrt(depth) * sum(math.sqrt(a**2 + b**2) for a, b in zip(l2, gl2)),
        }
        lo = grid.caps[0]
        X, Y = lo.meshgrid()
        phi_lo = np.array([oracles.temperature_mode_on_face(md, grid, lo) for md in solver.tb.modes])
        th_face = np.einsum("i,ixy->xy", dcoef0, phi_lo)
        close["inflow_theta"] = lo.integrate(prof.s(t) * prof.g(X, Y) * th_face)
        err = 0.0
        for patch, face in zip(grid.patches, delta.faces):
            psi = np.array([oracles.velocity_mode_on_face(md, grid, patch) for md in solver.vb.modes])
            vals = np.einsum("i,icxy->cxy", c0, psi)
            vn = np.einsum("c,cxy->xy", oracles.outward_normal(solver.grid, patch), vals + face.values)
            X, Y = patch.meshgrid()
            target = (2 * patch.side - 1) * prof.s(t) * prof.g(X, Y) if patch.axis == 2 else 0.0
            err = max(err, float(np.max(np.abs(vn - target))))
        exact["flux_trace_err"] = err  # 0: b reproduces g on the caps exactly
        assert close["ddt_w165_sq_sum"] > 0.0 and close["inflow_theta"] != 0.0
        for key, ref in exact.items():
            assert row[key] == ref, (key, t)
        for key, ref in close.items():
            assert abs(row[key] - ref) <= 1e-14 * abs(ref), (key, t)

        v = solver.w_values(c0) + delta.values
        gv = np.einsum("i,icdg->cdg", c0, gpsi) + delta.grad.reshape(3, 3, -1)
        quadrature = {
            "v_l2sq": grid.integrate(np.sum(v**2, axis=0)),
            "v_gradsq": grid.integrate(np.sum(gv**2, axis=(0, 1))),
            "delta_l2sq": grid.integrate(np.sum(delta.values**2, axis=0)),
            "delta_gradsq": grid.integrate(np.sum(delta.grad**2, axis=(0, 1))),
        }
        for key, ref in quadrature.items():
            assert abs(row[key] - ref) <= 1e-12 * abs(ref), (key, t)

    # without flux the lifting norms are 0 and v is w
    solver = GalerkinSolver(small_config(init_v="modes", init_v_amplitude=0.4))
    row = sampled(solver, solver.initial_state())
    assert row["w_l2sq"] > 0.0 and row["delta_l2sq"] == row["delta_gradsq"] == 0.0
    assert row["v_l2sq"] == row["w_l2sq"] and row["v_gradsq"] == row["w_gradsq"]


def test_run_loop_never_evaluates_delta(monkeypatch):
    # the run loop reads the lifting only through the couplings of delta_1;
    # a grid evaluation of delta(t) is for snapshots
    def refuse(self, x, drive):
        raise AssertionError(f"delta evaluated at s = {drive[0]}")

    monkeypatch.setattr(GalerkinSolver, "reconstruct", refuse)
    solver = GalerkinSolver(oracle_config(init_v="zero"))
    res = solver.run_windows()
    assert res.times.size == solver.config.steps_per_window + 1
    assert np.max(res.series["delta_l2sq"]) > 0.0


def test_run_loop_and_ledger_read_no_boundary_data(monkeypatch):
    # once the run's numbers of g and delta_1 are built, neither the run loop
    # nor the ledger evaluates the data d = s(t) g: a pulsed run with g and
    # the validation of the data refused gives the same series
    def refuse(*args):
        raise AssertionError("boundary data evaluated")

    reference = GalerkinSolver(oracle_config(init_v="zero")).run_windows()
    solver = GalerkinSolver(oracle_config(init_v="zero"))
    solver.couplings
    monkeypatch.setattr(hopf_mod, "validate_profile", refuse)
    object.__setattr__(solver.profile, "g", refuse)
    res = solver.run_windows()
    assert res.series.keys() == reference.series.keys()
    for key, values in reference.series.items():
        assert np.array_equal(res.series[key], values), key
    assert np.max(res.series["d_w13_total"]) > 0.0


@pytest.mark.parametrize("kw", [
    dict(flux_profile="pulsed", flux_amplitude=0.6, flux_period=0.2),
    dict(flux_profile="parabolic-cap", flux_amplitude=0.6, hopf_mode="auto"),
])
def test_the_cap_shape_is_evaluated_once_per_run_and_per_check(monkeypatch, tmp_path, kw):
    # g, g1 and g2 are each called once per set-up and run, a manual pulsed
    # one and an auto-mode parabolic one, and once per `check`: the data
    # check, auto mode's norm, the lifting, its couplings and the ledger all
    # read the one sample that sample_cap_shape makes
    calls = []
    profile_of = solver_mod.profile_of

    def counted(config):
        prof = profile_of(config)

        def wrap(name):
            def fn(x1, x2):
                calls.append(name)
                return getattr(prof, name)(x1, x2)
            return fn

        return dataclasses.replace(prof, **{name: wrap(name) for name in ("g", "g1", "g2")})

    monkeypatch.setattr(solver_mod, "profile_of", counted)
    monkeypatch.setattr(cli, "profile_of", counted)
    config = small_config(**kw)
    res = GalerkinSolver(config).run_windows()
    assert np.max(res.series["d_w13_total"]) > 0.0
    assert sorted(calls) == ["g", "g1", "g2"]
    calls.clear()
    scn = tmp_path / "run.scn"
    scn.write_text("".join(f"{f.metadata['key']} = {getattr(config, f.name)}\n"
                           for f in dataclasses.fields(config) if f.name != "forcing_vector"))
    assert cli.main(["check", str(scn)]) == 0
    assert sorted(calls) == ["g", "g1", "g2"]


def test_th_integral_is_the_constant_mode():
    # midpoint quadrature integrates every non-constant cosine mode to 0, so
    # the grid integral of theta is |Omega| amplitude_0 dcoef_0
    solver = GalerkinSolver(small_config(L1=1.3, L2=0.8, a=0.7, N1=8, N2=12, N3=16, m=12))
    rng = np.random.default_rng(7)
    dcoef = rng.standard_normal(solver.tb.m)
    row = sampled(solver, np.concatenate([np.zeros(solver.config.m), dcoef]))
    theta = solver.theta_values(dcoef)
    direct = solver.grid.integrate(theta)
    assert abs(row["th_integral"] - direct) <= 1e-14 * solver.grid.integrate(np.abs(theta))
    assert row["th_integral"] != 0.0


def test_free_decay_monotone():
    cfg = small_config(init_v="modes", init_v_amplitude=0.5, T=0.2, dt=2e-3)
    solver = GalerkinSolver(cfg)
    res = solver.run_windows()
    X = res.series["w_l2sq"]
    assert np.all(np.diff(X) <= 1e-12 * X[0])
    assert X[-1] < X[0]


def test_constant_temperature_is_steady():
    cfg = small_config(init_theta="constant", init_theta_mean=1.0, T=0.05, dt=5e-3)
    solver = GalerkinSolver(cfg)
    res = solver.run_windows()
    assert np.max(np.abs(res.series["th_min"] - 1.0)) < 1e-10
    assert np.max(np.abs(res.series["th_max"] - 1.0)) < 1e-10


def test_heat_decay_at_box_eigenrates():
    cfg = small_config(T=0.1, dt=1e-3, kappa_heat=0.7)
    solver = GalerkinSolver(cfg)
    dcoef0 = np.zeros(solver.tb.m)
    dcoef0[1] = 1.0
    dcoef0[3] = -0.5
    x, E = np.concatenate([np.zeros(cfg.m), dcoef0]), None
    for n in range(cfg.steps_per_window):
        x, E = oracles.step_state(solver, x, n * cfg.dt, E)
    lam = solver.tb.eigenvalues
    expected = dcoef0 * np.exp(-cfg.kappa_heat * lam * cfg.T)
    assert np.max(np.abs(x[cfg.m :] - expected)) < 1e-5


def test_advection_preserves_temperature_mean():
    cfg = small_config(
        init_v="modes", init_v_amplitude=0.8,
        init_theta="bump", init_theta_mean=1.5, init_theta_amplitude=0.4,
        T=0.1, dt=2e-3,
    )
    solver = GalerkinSolver(cfg)
    res = solver.run_windows()
    ints = res.series["th_integral"]
    assert np.max(np.abs(ints - ints[0])) < 1e-10 * max(1.0, abs(ints[0]))


def test_step_accuracy_second_order_global():
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = small_config(init_v="modes", init_v_amplitude=0.6, T=0.2, dt=dt, n_windows=1)
        solver = GalerkinSolver(cfg)
        res = solver.run_windows()
        errs.append(res.series["w_l2sq"][-1])
    # Richardson: with order p, (X_dt - X_dt/2) / (X_dt/2 - X_dt/4) = 2^p
    r = (errs[0] - errs[1]) / (errs[1] - errs[2])
    assert 3.0 < r < 5.0


def test_reconstruction_traces():
    cfg = small_config(
        flux_profile="parabolic-cap", flux_amplitude=0.7,
        init_v="modes", init_v_amplitude=0.3,
    )
    solver = GalerkinSolver(cfg)
    x = solver.initial_state()
    err = sampled(solver, x)["flux_trace_err"]
    assert err < 1e-10
    w, v, theta = solver.reconstruct(x, solver.drive(0.0))
    assert w.shape == v.shape == (3, *solver.grid.shape)


def test_pure_extension_flow():
    # init_v = "extension" means v0 = delta(0), i.e. w0 = 0
    cfg = small_config(flux_profile="constant", flux_amplitude=0.5, init_v="extension")
    solver = GalerkinSolver(cfg)
    x = solver.initial_state()
    assert np.max(np.abs(x[: cfg.m])) == 0.0
    delta = solver.profile.s(0.0) * oracles.lifting(solver)[1].values
    _, v, _ = solver.reconstruct(x, solver.drive(0.0))
    assert np.max(np.abs(v - delta)) == 0.0


def test_window_bookkeeping():
    cfg = small_config(T=0.05, n_windows=3, dt=5e-3)
    solver = GalerkinSolver(cfg)
    res = solver.run_windows()
    joints = res.window_joint_indices()
    assert joints.tolist() == [0, 10, 20, 30]
    assert res.times.size == 31
    assert abs(res.times[-1] - 0.15) < 1e-12


@pytest.mark.parametrize("m", [1, 16, 32])
def test_transport_matches_the_dense_contraction(m):
    # rhs_terms takes the transport from forms.transport; the reference is
    # the three-operand contraction of the tensors built by quadrature of
    # the formula fields. Without flux th["adv"] is the transport alone. At
    # m = 1 both terms are exactly 0 (one velocity mode, and the constant
    # temperature mode), so only their rounding is bounded
    rng = np.random.default_rng(m)
    solver = GalerkinSolver(ScenarioConfig(m=m))
    c, dcoef = rng.standard_normal(m), rng.standard_normal(solver.tb.m)
    vel, th = solver.rhs_terms(np.concatenate([c, dcoef]), solver.drive(0.0))
    T_vel, T_th = oracle_transport(solver)
    kappa_max = math.sqrt(max(md.rayleigh for md in solver.vb.modes) / 2.0)
    for got, ref in ((vel["conv_www"], oracles.dense_transport(c, c, T_vel)),
                     (th["adv"], oracles.dense_transport(c, dcoef, T_th))):
        if m == 1:
            assert np.max(np.abs(got)) <= 1e-14 * float(c @ c) * kappa_max
        else:
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), m


@pytest.mark.parametrize("kw", [
    dict(L1=1.3, L2=0.8, a=0.7, N1=8, N2=12, N3=16, m=12),
    dict(m=1),
])
def test_theta_values_match_the_dense_synthesis(kw):
    # theta_values synthesizes theta axis by axis from the cosine band of
    # the temperature modes; the reference is the sum over the sampled modes
    solver = GalerkinSolver(small_config(**kw))
    tb = solver.tb
    dcoef = np.random.default_rng(4).standard_normal(tb.m)
    ref = (dcoef @ oracles.family_fields(tb.factors)[0].reshape(tb.m, -1)).reshape(solver.grid.shape)
    got = solver.theta_values(dcoef)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a stack of rows, as the ledger passes them, gives each row to the bit
    rows = np.random.default_rng(5).standard_normal((3, tb.m))
    assert all(np.array_equal(t, solver.theta_values(d)) for t, d in zip(solver.theta_values(rows), rows))


def test_factor_table_contractions_match_the_dense_fields():
    # every contraction of the modes with a grid field runs axis by axis
    # through the factor tables and a moment table of the field; on boxes
    # whose three node counts and three lengths all differ, an axis taken
    # for another cannot go unseen. The second box has m at the most its
    # temperature band admits, so that products of two modes reach
    # wavenumber 2 k_a > N_a - 1 on axes 1 and 2: a moment table cut off at
    # k_a, or at the grid's own N_a - 1, cannot pass. The reference sums the
    # dense per-mode fields over the nodes
    for box, at_edge in ((dict(L1=1.3, L2=0.8, a=0.7, N1=10, N2=12, N3=16, m=16), False),
                         (dict(L1=1.1, L2=0.7, a=0.9, N1=8, N2=4, N3=6, m=72), True)):
        _check_contractions(oracle_config(init_v="zero", **box), at_edge)


def _check_contractions(cfg, at_edge):
    solver = GalerkinSolver(cfg)
    forms, grid, m = solver.forms, solver.grid, cfg.m
    band = [max(kv, kt) for kv, kt in zip(solver.vb.k_max, solver.tb.k_max)]
    assert at_edge == all(2 * band[a] > grid.shape[a] - 1 for a in (1, 2)), band
    cv = grid.cell_volume
    psi, gpsi = oracles.family_fields(solver.vb.factors)
    psi, gpsi = psi.reshape(m, 3, -1), gpsi.reshape(m, 3, 3, -1)
    phi, gphi = oracles.family_fields(solver.tb.factors)
    phi, gphi = phi.reshape(solver.tb.m, -1), gphi.reshape(solver.tb.m, 3, -1)
    dpsi = gpsi + np.swapaxes(gpsi, 1, 2)   # D(psi_i)[a, b] = d_a psi_b + d_b psi_a

    rng = np.random.default_rng(11)
    field = rng.standard_normal((3, *grid.shape))
    c = rng.standard_normal(m)
    solver.f_values = field  # a generic forcing makes M a generic coupling
    k = solver.couplings
    delta = oracles.lifting(solver)[1]
    generic = DeltaEval(rng.standard_normal((15, *grid.shape)), faces=[])

    def couplings(d):
        dvals, dgrad = d.values.reshape(3, -1), d.grad.reshape(3, 3, -1)
        wd = np.einsum("iag,cag->icg", psi, dgrad)
        dw = np.einsum("ag,icag->icg", dvals, gpsi)
        dth = np.einsum("ag,iag->ig", dvals, gphi)
        return (cv * np.einsum("lcg,icg->li", psi, wd), cv * np.einsum("lcg,icg->li", psi, dw),
                cv * phi @ dth.T)

    dvals, dgrad = delta.values.reshape(3, -1), delta.grad.reshape(3, 3, -1)
    ddelta = oracles.sym(delta.grad).reshape(3, 3, -1)
    checks = {
        "P": (k["P"], cv * np.einsum("jcg,cg->j", psi, dvals)),
        "F_adv": (k["F_adv"], -cv * np.einsum("jcg,ag,cag->j", psi, dvals, dgrad)),
        "project_velocity": (forms.project_velocity(field),
                             cv * np.einsum("jcg,cg->j", psi, field.reshape(3, -1))),
        "project_temperature": (forms.project_temperature(field[1]), cv * phi @ field[1].ravel()),
        "w_values": (solver.w_values(c),
                     np.einsum("i,icg->cg", c, psi).reshape(field.shape)),
        "Q": (k["Q"], cv * np.einsum("icdg,cdg->i", gpsi, dgrad)),
        "F_form": (k["F_form"], -(cfg.nu / 2.0) * cv * np.einsum("cdg,icdg->i", ddelta, dpsi)),
        "M": (solver._forcing["M"],
              cv * np.einsum("jcg,kg->jk", np.einsum("jcg,cg->jcg", psi, field.reshape(3, -1)), phi)),
    }
    generic_matrices = forms.delta_matrices(forms.lifting_moments(generic))
    for name, got, ref in zip(("G_wd", "G_dw", "G_dth"), generic_matrices, couplings(generic)):
        checks[name + " generic"] = (got, ref)
    for name, ref in zip(("G_wd", "G_dw", "G_dth"), couplings(delta)):
        checks[name] = (k[name], ref)
    for name, (got, ref) in checks.items():
        assert got.shape == ref.shape, name
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def _arrays(obj, seen):
    """Every ndarray reachable from obj through attributes, dicts, lists and tuples."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = getattr(obj, "__dict__", {}).values()
    for child in children:
        yield from _arrays(child, seen)


def test_setup_keeps_no_per_mode_grid_array():
    # a flux run at m = 32 on 16x16x32: the bases once kept 16 grid-sized
    # arrays per mode, vb.grad alone m 9 N doubles (18.9 MB). Building the
    # solver and the lifting couplings must take less memory at its peak
    # than vb.grad did, and nothing the solver keeps may hold m N entries
    cfg = ScenarioConfig(m=32, flux_profile="pulsed", flux_amplitude=0.6, flux_beta=0.4,
                         flux_period=0.5)
    tracemalloc.start()
    try:
        solver = GalerkinSolver(cfg)
        solver.couplings
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = int(np.prod(solver.grid.shape))
    assert peak < cfg.m * 9 * nodes * 8, f"peak {peak / 1e6:.1f} MB"
    seen = set()
    for root in (solver, solver.vb, solver.tb, solver.forms):
        for arr in _arrays(root, seen):
            assert arr.size < cfg.m * nodes, arr.shape


def test_couplings_keep_no_grid_field_but_delta_1_values():
    # the lifting's build makes b's fields, phi's nine derivatives and
    # delta_1's values and gradient (about 30 grid fields); once the
    # couplings exist, the solver holds only delta_1's 3 values, which
    # reconstruct reads, beside the forcing's 3
    cfg = ScenarioConfig(m=32, flux_profile="pulsed", flux_amplitude=0.6, flux_beta=0.4,
                         flux_period=0.5)
    solver = GalerkinSolver(cfg)
    k = solver.couplings
    nodes = int(np.prod(solver.grid.shape))
    held = {id(arr): arr.size // nodes for arr in _arrays(solver, set())
            if arr.shape[-3:] == solver.grid.shape}
    assert sum(held.values()) <= 6, held
    assert held.keys() == {id(solver.f_values), id(k["values"])}


def test_assembly_allocates_no_cube_of_m():
    # at m = 128 on 16x16x32 no array of m^3 entries is reachable from the
    # forms, and assembly peaks below 32 MB, less than two m^3 float
    # tensors (34 MB)
    m = 128
    grid = build_domain(ScenarioConfig(m=m).domain_spec())
    vb, tb = build_velocity_basis(grid, m), build_temperature_basis(grid, m)
    tracemalloc.start()
    try:
        forms = AssembledForms(grid, vb, tb, nu=1.0, gamma=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(arr.size for arr in _arrays(forms, set())) < m**3
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def test_bases_keep_no_per_mode_face_array():
    # at m = 128 on 16x16x32 both bases are factor tables only: their build
    # peaks below 2 MB, where the velocity face traces alone took 8 MB
    m = 128
    grid = build_domain(ScenarioConfig(m=m).domain_spec())
    tracemalloc.start()
    try:
        build_velocity_basis(grid, m)
        build_temperature_basis(grid, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"peak {peak / 1e6:.2f} MB"


def test_coefficient_norms_match_grid_quadrature():
    cfg = small_config(
        init_v="modes", init_v_amplitude=0.5,
        init_theta="bump", init_theta_mean=1.2, init_theta_amplitude=0.3,
    )
    solver = GalerkinSolver(cfg)
    x = solver.initial_state()
    c, dcoef = x[: cfg.m], x[cfg.m :]
    w = solver.w_values(c)
    theta = solver.theta_values(dcoef)
    grid = solver.grid
    assert abs(grid.integrate(np.sum(w**2, axis=0)) - float(c @ c)) < 1e-8
    assert abs(grid.integrate(theta**2) - float(dcoef @ dcoef)) < 1e-8


def test_numerical_abort_on_blowup():
    # skew transport keeps moderate runs bounded, so force an overflow: the
    # run loop finds it in the rows it stored and aborts at the first
    # non-finite one, carrying the finite row before it
    cfg = small_config(init_v="modes", init_v_amplitude=1e200, dt=5e-2, T=2.0)
    solver = GalerkinSolver(cfg)
    with pytest.warns(RuntimeWarning, match="advective stability estimate"):
        with pytest.raises(NumericalAbort, match="non-finite state") as info:
            solver.run_windows()
    assert np.isfinite(info.value.c).all() and np.isfinite(info.value.dcoef).all()


def test_config_validation():
    with pytest.raises(ScenarioError):
        small_config(T=0.1, dt=3e-3).validate()  # T not a multiple of dt
    with pytest.raises(ScenarioError):
        small_config(theta_star=2.0, theta_star_upper=1.0).validate()
    with pytest.raises(ScenarioError):
        small_config(mu=0.5).validate()
    with pytest.raises(ScenarioError):
        small_config(omega_kind="cubic").validate()


def test_single_mode_rhs_identity():
    # delta = 0, f = 0, c = e1: c' = -(nu diag(rayleigh) + K_fric) e1 - transport,
    # and the transport self-term has no component along psi_1
    cfg = small_config()
    solver = GalerkinSolver(cfg)
    e1 = np.zeros(cfg.m)
    e1[0] = 1.0
    rhs = solver.rhs_terms(np.concatenate([e1, np.zeros(solver.tb.m)]), solver.drive(0.0))[0]["total"]
    L = np.diag(cfg.nu * solver.vb.rayleigh) + solver.forms.K_fric
    conv = oracles.dense_transport(e1, e1, oracle_transport(solver)[0])
    assert abs(conv[0]) <= 1e-10  # skew transport: <psi1.grad psi1, psi1> = 0
    assert np.max(np.abs(rhs - (-L @ e1 - conv))) < 1e-12


def test_constant_temperature_mode_is_fixed_point():
    cfg = small_config()
    solver = GalerkinSolver(cfg)
    dcoef = np.zeros(solver.tb.m)
    dcoef[0] = 3.0  # constant mode only
    rhs = solver.rhs_terms(np.concatenate([np.zeros(cfg.m), dcoef]), solver.drive(0.0))[1]["total"]
    assert np.max(np.abs(rhs)) <= 1e-12


def test_cap_flux_integral_of_reconstruction():
    cfg = small_config(flux_profile="parabolic-cap", flux_amplitude=0.8,
                       init_v="modes", init_v_amplitude=0.4)
    solver = GalerkinSolver(cfg)
    c = solver.initial_state()[: cfg.m]
    delta, _ = oracles.scaled_lifting(solver, 0.0)
    patch = solver.grid.caps[1]
    psi = np.array([oracles.velocity_mode_on_face(md, solver.grid, patch) for md in solver.vb.modes])
    vals = np.einsum("i,icxy->cxy", c, psi)
    vals = vals + delta.faces[-1].values
    vn = np.einsum("c,cxy->xy", oracles.outward_normal(solver.grid, patch), vals)
    X, Y = patch.meshgrid()
    flux_out = patch.integrate(vn)
    target = patch.integrate(solver.profile.s(0.0) * solver.profile.g(X, Y))
    assert abs(flux_out - target) <= 1e-8 * max(1.0, abs(target))


def test_discrete_energy_consistency():
    # the realized step-to-step change of |c|^2 / 2 tracks c . rhs, with rhs
    # the total velocity right-hand side of rhs_terms, to integrator
    # accuracy (second order in dt)
    cfg = small_config(init_v="modes", init_v_amplitude=0.5, T=0.05, dt=1e-3)
    solver = GalerkinSolver(cfg)
    x, E, m = solver.initial_state(), None, cfg.m
    worst = 0.0
    for n in range(20):
        nxt, E = oracles.step_state(solver, x, n * cfg.dt, E)
        mid = 0.5 * (x + nxt)
        rate = float(mid[:m] @ solver.rhs_terms(mid, solver.drive(n * cfg.dt))[0]["total"])
        realized = (float(nxt[:m] @ nxt[:m]) - float(x[:m] @ x[:m])) / (2.0 * cfg.dt)
        worst = max(worst, abs(realized - rate))
        x = nxt
    scale = max(1.0, float(x[:m] @ x[:m]))
    assert worst <= 50.0 * cfg.dt**2 * scale

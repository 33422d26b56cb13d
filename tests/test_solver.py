import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from ductflow.errors import NumericalAbort, ScenarioError
from ductflow.solver import (
    GalerkinSolver,
    ImexStepper,
    ScenarioConfig,
    State,
)


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
        stepper = ImexStepper(L, dt)
        x1 = stepper.step(x0, np.zeros(8))
        ref = expm(-L * dt) @ x0
        errs.append(np.linalg.norm(x1 - ref))
        # per-step error within O(dt^2), constant scaled by the stiffness
        assert errs[-1] <= dt**2 * Lnorm**2 * np.linalg.norm(x0)
    # Crank-Nicolson: local error is actually third order, ratios near 8
    assert 6.0 < errs[0] / errs[1] < 10.0
    assert 6.0 < errs[1] / errs[2] < 10.0


# --- basic dynamics ---------------------------------------------------------

def test_zero_everything_stays_zero():
    solver = GalerkinSolver(small_config())
    res = solver.run_windows()
    assert np.max(res.series["w_l2sq"]) == 0.0
    assert np.max(res.series["th_l2sq"]) == 0.0


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
    # modes the lifting functionals (B, F_bdry, F_vol, F_form) and the
    # temperature advection vanish by symmetry; m = 12 makes them nonzero.
    for m in (6, 12):
        cfg = oracle_config(m=m)
        solver = GalerkinSolver(cfg)
        st0 = solver.initial_state()
        state = State(t=0.03, c=st0.c, dcoef=st0.dcoef)
        delta = solver.delta_provider(state.t)
        slow = oracles.slow_rhs_velocity(
            state.c, state.dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
            nu=cfg.nu, gamma=cfg.gamma, omega_fn=solver.omega,
            f_values=solver.f_values, delta=delta,
        )
        slow_th = oracles.slow_rhs_temperature(
            state.c, state.dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
            kappa_heat=cfg.kappa_heat, delta=delta,
        )
        forms = solver.forms
        solver.reset_window()
        stepped = solver.step(state)
        dt = cfg.dt
        cases = (
            (state.c, slow["total"], forms.K_visc + forms.K_fric, stepped.c),
            (state.dcoef, slow_th["total"], forms.K_theta, stepped.dcoef),
        )
        for x, total, L, got in cases:
            eye = np.eye(x.size)
            rhs = (eye - 0.5 * dt * L) @ x + dt * (total + L @ x)
            ref = np.linalg.solve(eye + 0.5 * dt * L, rhs)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-8 * scale, m


def test_rhs_matches_slow_oracle_every_term():
    # direct-quadrature oracle of every weak-form term, m <= 6
    cfg = oracle_config()
    solver = GalerkinSolver(cfg)
    state = solver.initial_state()
    t = 0.03
    state = State(t=t, c=state.c, dcoef=state.dcoef)
    delta = solver.delta_provider(t)
    _, fast = solver.rhs_velocity(state, delta, return_terms=True)
    slow = oracles.slow_rhs_velocity(
        state.c, state.dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
        nu=cfg.nu, gamma=cfg.gamma, omega_fn=solver.omega,
        f_values=solver.f_values, delta=delta,
    )
    name_map = {
        "conv_www": "conv_www", "conv_wdelta": "conv_wdelta",
        "conv_deltaw": "conv_deltaw", "visc": "visc", "fric": "fric",
        "B": "B", "F_bdry": "F_bdry", "F_vol": "F_vol", "F_form": "F_form",
        "f_omega": "f_omega", "total": "total",
    }
    for fast_key, slow_key in name_map.items():
        a, b = fast[fast_key], slow[slow_key]
        scale = max(1.0, np.max(np.abs(b)))
        assert np.max(np.abs(a - b)) <= 1e-8 * scale, fast_key

    _, fast_th = solver.rhs_temperature(state, delta, return_terms=True)
    slow_th = oracles.slow_rhs_temperature(
        state.c, state.dcoef, solver.vb.modes, solver.tb.modes, solver.grid,
        kappa_heat=cfg.kappa_heat, delta=delta,
    )
    for key in ("diff", "adv", "total"):
        a, b = fast_th[key], slow_th[key]
        scale = max(1.0, np.max(np.abs(b)))
        assert np.max(np.abs(a - b)) <= 1e-8 * scale, key


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
    state = State(t=0.0, c=np.zeros(cfg.m), dcoef=dcoef0)
    for _ in range(cfg.steps_per_window):
        state = solver.step(state)
    lam = solver.tb.eigenvalues
    expected = dcoef0 * np.exp(-cfg.kappa_heat * lam * cfg.T)
    assert np.max(np.abs(state.dcoef - expected)) < 1e-5


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
    state = solver.initial_state()
    delta = solver.delta_provider(0.0)
    err = solver.flux_trace_error(state, delta)
    assert err < 1e-10
    v, theta = solver.reconstruct(state, delta)
    assert v.shape == (3, *solver.grid.shape)


def test_pure_extension_flow():
    # init_v = "extension" means v0 = delta(0), i.e. w0 = 0
    cfg = small_config(flux_profile="constant", flux_amplitude=0.5, init_v="extension")
    solver = GalerkinSolver(cfg)
    state = solver.initial_state()
    assert np.max(np.abs(state.c)) == 0.0
    delta = solver.delta_provider(0.0)
    v, _ = solver.reconstruct(state, delta)
    assert np.max(np.abs(v - delta.values)) == 0.0


def test_window_bookkeeping():
    cfg = small_config(T=0.05, n_windows=3, dt=5e-3)
    solver = GalerkinSolver(cfg)
    res = solver.run_windows()
    joints = res.window_joint_indices()
    assert joints.tolist() == [0, 10, 20, 30]
    assert res.times.size == 31
    assert abs(res.times[-1] - 0.15) < 1e-12


def test_coefficient_norms_match_grid_quadrature():
    cfg = small_config(
        init_v="modes", init_v_amplitude=0.5,
        init_theta="bump", init_theta_mean=1.2, init_theta_amplitude=0.3,
    )
    solver = GalerkinSolver(cfg)
    state = solver.initial_state()
    w = solver.w_values(state)
    theta = solver.theta_values(state)
    grid = solver.grid
    assert abs(grid.integrate(np.sum(w**2, axis=0)) - float(state.c @ state.c)) < 1e-8
    assert abs(grid.integrate(theta**2) - float(state.dcoef @ state.dcoef)) < 1e-8


def test_numerical_abort_on_blowup():
    # skew transport keeps moderate runs bounded, so force an overflow
    cfg = small_config(init_v="modes", init_v_amplitude=1e200, dt=5e-2, T=2.0)
    solver = GalerkinSolver(cfg)
    state = solver.initial_state()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((NumericalAbort, ValueError)):
            for _ in range(200):
                state = solver.step(state)


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
    # delta = 0, f = 0, c = e1: c' = -(K_visc + K_fric) e1 - transport,
    # and the transport self-term has no component along psi_1
    cfg = small_config()
    solver = GalerkinSolver(cfg)
    e1 = np.zeros(cfg.m)
    e1[0] = 1.0
    state = State(t=0.0, c=e1, dcoef=np.zeros(solver.tb.m))
    rhs = solver.rhs_velocity(state, None)
    L = solver.forms.K_visc + solver.forms.K_fric
    conv = np.einsum("i,j,ijl->l", e1, e1, solver.forms.T_vel)
    assert abs(conv[0]) <= 1e-10  # skew transport: <psi1.grad psi1, psi1> = 0
    assert np.max(np.abs(rhs - (-L @ e1 - conv))) < 1e-12


def test_constant_temperature_mode_is_fixed_point():
    cfg = small_config()
    solver = GalerkinSolver(cfg)
    dcoef = np.zeros(solver.tb.m)
    dcoef[0] = 3.0  # constant mode only
    state = State(t=0.0, c=np.zeros(cfg.m), dcoef=dcoef)
    rhs = solver.rhs_temperature(state, None)
    assert np.max(np.abs(rhs)) <= 1e-12


def test_cap_flux_integral_of_reconstruction():
    cfg = small_config(flux_profile="parabolic-cap", flux_amplitude=0.8,
                       init_v="modes", init_v_amplitude=0.4)
    solver = GalerkinSolver(cfg)
    state = solver.initial_state()
    delta = solver.delta_provider(0.0)
    from ductflow.domain import PatchKind

    patch = solver.grid.patch(PatchKind.CAP_HI)
    vals = np.einsum("i,icxy->cxy", state.c, solver.vb.face_samples[patch.kind])
    vals = vals + delta.faces[patch.kind].values
    vn = np.einsum("c,cxy->xy", patch.normal, vals)
    X, Y = patch.meshgrid()
    flux_out = patch.integrate(vn)
    target = patch.integrate(solver.profile.d2(X, Y, 0.0))
    assert abs(flux_out - target) <= 1e-8 * max(1.0, abs(target))


def test_discrete_energy_consistency():
    # the realized step-to-step change of |c|^2 / 2 tracks c . rhs_velocity
    # to integrator accuracy (second order in dt)
    cfg = small_config(init_v="modes", init_v_amplitude=0.5, T=0.05, dt=1e-3)
    solver = GalerkinSolver(cfg)
    state = solver.initial_state()
    worst = 0.0
    for _ in range(20):
        nxt = solver.step(state)
        mid = State(
            t=state.t, c=0.5 * (state.c + nxt.c), dcoef=0.5 * (state.dcoef + nxt.dcoef)
        )
        rate = float(mid.c @ solver.rhs_velocity(mid, None))
        realized = (float(nxt.c @ nxt.c) - float(state.c @ state.c)) / (2.0 * cfg.dt)
        worst = max(worst, abs(realized - rate))
        state = nxt
    scale = max(1.0, float(state.c @ state.c))
    assert worst <= 50.0 * cfg.dt**2 * scale

"""Exact symmetries of the equations, checked on whole runs.

The oracle tests compare each weak-form term with quadrature of its own
formula, so a wrong formula passes them. These relations test the pipeline
from the outside: the scaled or permuted run must give the same audit.

R1, axis permutation: swapping the horizontal axes (L1 <-> L2, N1 <-> N2
and the first two forcing components) with a parabolic cap, which is
symmetric, gives the same series and margins. This permutes the four side
walls and the tangents of the caps.

R2, time scaling: multiplying nu, kappa, gamma and the initial velocity by
lam and the forcing by lam^2, and dividing the period, T and dt by lam,
scales w by lam, leaves theta unchanged and divides the sample times by
lam. It is checked on runs without flux; with flux and nu != 1 the cap
stress term breaks it (ROADMAP item 22).
"""

import dataclasses

import numpy as np
import pytest

from ductflow.audit import audit_run
from ductflow.solver import GalerkinSolver, ScenarioConfig

REL = 1e-13


def audited(cfg):
    solver = GalerkinSolver(cfg)
    run = solver.run_windows()
    return run, audit_run(run, solver)


def assert_series_close(got, ref, what, rel=REL):
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    gap = float(np.max(np.abs(got - ref)))
    assert gap <= rel * scale, (what, gap / scale)


def swapped(cfg: ScenarioConfig) -> ScenarioConfig:
    f1, f2, f3 = cfg.forcing_vector
    return dataclasses.replace(cfg, L1=cfg.L2, L2=cfg.L1, N1=cfg.N2, N2=cfg.N1, forcing_vector=(f2, f1, f3))


def test_r1_swapping_the_horizontal_axes_keeps_every_series_and_margin():
    cfg = ScenarioConfig(
        L2=0.7, N2=12, m=24, flux_profile="pulsed", flux_amplitude=0.6, flux_period=0.1,
        forcing_kind="constant", forcing_vector=(0.8, -0.3, 0.5),
        T=0.02, n_windows=2, dt=2e-3, c_recon=4.0,
    )
    run, ledger = audited(cfg)
    run_s, ledger_s = audited(swapped(cfg))
    assert np.array_equal(run.times, run_s.times)
    assert run.series.keys() == run_s.series.keys()
    for key in run.series:
        assert_series_close(run_s.series[key], run.series[key], key)
    for name in ("X", "Y", "F"):
        assert_series_close(getattr(ledger_s, name), getattr(ledger, name), name)
    for cert, cert_s in zip(ledger.certificates, ledger_s.certificates):
        assert (cert.name, cert.status) == (cert_s.name, cert_s.status)
        assert margin_gap(cert_s, cert) <= REL, cert.name


def margin_gap(got, ref) -> float:
    """|got - ref| of two margins relative to the size of the certificate's
    numbers: a margin is a difference of them, so its own size may be far
    below their rounding."""
    numbers = [abs(x) for x in ref.details.values() if isinstance(x, float) and np.isfinite(x)]
    scale = max([abs(ref.margin), *numbers]) if np.isfinite(ref.margin) else 1.0
    if got.margin == ref.margin:
        return 0.0
    return abs(got.margin - ref.margin) / scale


def time_scaled(cfg: ScenarioConfig, lam: float) -> ScenarioConfig:
    return dataclasses.replace(
        cfg, nu=lam * cfg.nu, kappa_heat=lam * cfg.kappa_heat, gamma=lam * cfg.gamma,
        init_v_amplitude=lam * cfg.init_v_amplitude,
        forcing_vector=tuple(lam * lam * f for f in cfg.forcing_vector),
        forcing_amplitude=lam * lam * cfg.forcing_amplitude,
        flux_period=cfg.flux_period / lam, T=cfg.T / lam, dt=cfg.dt / lam,
    )


R2_CASES = {
    "decay": {},
    "shear-linear-omega": dict(forcing_kind="shear", forcing_amplitude=3.0, omega_kind="linear", omega1=0.5),
    "constant-bounded-omega": dict(
        forcing_kind="constant", forcing_vector=(0.4, -1.2, 2.0), omega_kind="bounded_smooth", omega1=0.5
    ),
}


@pytest.mark.parametrize("case", list(R2_CASES))
def test_r2_time_scaling_without_flux(case):
    lam = 2.0
    cfg = ScenarioConfig(
        N1=8, N2=8, N3=16, L2=0.7, m=16, nu=0.7, kappa_heat=0.6, gamma=1.3,
        init_v="modes", init_v_amplitude=0.8, init_theta="bump", init_theta_mean=1.5,
        init_theta_amplitude=0.4, T=0.05, n_windows=2, dt=2.5e-3, **R2_CASES[case],
    )
    run = GalerkinSolver(cfg).run_windows()
    run_s = GalerkinSolver(time_scaled(cfg, lam)).run_windows()
    assert_series_close(run_s.times, run.times / lam, "times")
    for key in ("w_l2sq", "w_gradsq", "v_l2sq", "v_gradsq"):
        assert_series_close(run_s.series[key], lam * lam * run.series[key], key)
    for key in ("th_l2sq", "th_gradsq", "th_min", "th_max", "th_integral"):
        assert_series_close(run_s.series[key], run.series[key], key)
    assert_series_close(run_s.series["omega_f_65sq"], lam**4 * run.series["omega_f_65sq"], "omega_f_65sq")

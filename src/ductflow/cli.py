"""Command line front end: run, check and sweep scenarios.

Exit codes: 0 success, 1 configuration error or input the library rejects
(any ValueError, reported in one line), 2 numerical abort, 3 certificate
failure (only with --strict).

Outputs of `run` (all under --out, default out/<scenario-stem>):
  timeseries.csv      fixed columns t, X, Y, F, w_l2, theta_l2, theta_min,
                      theta_max, flux_residual
  certificates.txt    human-readable audit report
  certificates.json   machine-readable audit report
  basis_manifest.txt  velocity/temperature mode tables
  run_manifest.json   scenario hash, code version, timestamps, output list
  snapshots/          optional field dumps (w, vartheta, v, theta)
  plots/              optional SVG charts

The CSV and certificate files are byte-deterministic for a fixed scenario;
timestamps live only in the run manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .audit import EnergyLedger, audit_run, ledger_to_json_obj, ledger_to_text
from .domain import build_domain
from .errors import NumericalAbort, RegimeError, ScenarioError
from .hopf import check_compatibility, profile_by_name
from .scenario import KEY_MAP, load_scenario, parse_scenario_text, scenario_hash, set_key
from .solver import GalerkinSolver, RunResult, ScenarioConfig, horizon_times, pick_hopf_params
from .svg import polyline_chart


@dataclass
class PipelineResult:
    solver: GalerkinSolver
    run: RunResult
    ledger: EnergyLedger


def execute(config: ScenarioConfig, snapshot_cb=None) -> PipelineResult:
    """domain -> flux -> cutoff -> lifting -> bases -> windows -> audit."""
    solver = GalerkinSolver(config)
    run = solver.run_windows(snapshot_cb=snapshot_cb)
    return PipelineResult(solver=solver, run=run, ledger=audit_run(run, solver))


# ---------------------------------------------------------------------------
# Output writers


def _fmt(x) -> str:
    return repr(float(x))


def write_timeseries_csv(path: Path, run: RunResult, ledger: EnergyLedger) -> None:
    s = run.series
    cols = [
        ("t", run.times),
        ("X", ledger.X),
        ("Y", ledger.Y),
        ("F", ledger.F),
        ("w_l2", np.sqrt(s["w_l2sq"])),
        ("theta_l2", np.sqrt(s["th_l2sq"])),
        ("theta_min", s["th_min"]),
        ("theta_max", s["th_max"]),
        ("flux_residual", s["flux_trace_err"]),
    ]
    lines = [",".join(name for name, _ in cols)]
    n = run.times.size
    for i in range(n):
        lines.append(",".join(_fmt(arr[i]) for _, arr in cols))
    path.write_text("\n".join(lines) + "\n")


def write_basis_manifest(path: Path, solver: GalerkinSolver) -> None:
    lines = ["velocity modes (wavevector, branch, amplitudes, rayleigh)"]
    for i, md in enumerate(solver.vb.modes):
        coef = " ".join(_fmt(c) for c in md.coef)
        lines.append(f"v{i:03d} k={md.k} branch={md.branch} coef=({coef}) rq={_fmt(md.rayleigh)}")
    lines.append("")
    lines.append("temperature modes (wavevector, amplitude, eigenvalue)")
    for i, md in enumerate(solver.tb.modes):
        lines.append(f"t{i:03d} k={md.k} amp={_fmt(md.amplitude)} lam={_fmt(md.eigenvalue)}")
    path.write_text("\n".join(lines) + "\n")


def make_snapshot_writer(out_dir: Path, cadence: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []

    def cb(idx, state, solver, delta):
        if cadence <= 0 or idx % cadence != 0:
            return
        v, theta = solver.reconstruct(state, delta)
        w = solver.w_values(state)
        files = {}
        for name, arr in (("w", w), ("vartheta", theta), ("v", v), ("theta", theta)):
            fname = f"{name}_{idx:06d}.npy"
            np.save(out_dir / fname, arr)
            files[name] = fname
        entries.append({"index": idx, "time": state.t, "files": files})

    def finalize(grid_shape):
        manifest = {
            "grid_dims": list(grid_shape),
            "fields": ["w", "vartheta", "v", "theta"],
            "snapshots": entries,
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    return cb, finalize


def write_plots(out_dir: Path, run: RunResult, ledger: EnergyLedger) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    t = run.times
    polyline_chart(
        {"X(t)": (t, ledger.X), "Y(t)": (t, ledger.Y), "F(t)": (t, ledger.F)},
        out_dir / "energy.svg",
        title="energy audit series",
        xlabel="t",
    )
    polyline_chart(
        {
            "theta_min": (t, run.series["th_min"]),
            "theta_max": (t, run.series["th_max"]),
        },
        out_dir / "temperature_bounds.svg",
        title="temperature extremes",
        xlabel="t",
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_run(args) -> int:
    try:
        config = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    scen_path = Path(args.scenario)
    out_dir = Path(args.out) if args.out else Path("out") / scen_path.stem
    started = time.time()

    snapshot_cb, snapshot_finalize = (None, None)
    if args.snapshots:
        snapshot_cb, snapshot_finalize = make_snapshot_writer(
            out_dir / "snapshots", args.snapshots
        )
    try:
        result = execute(config, snapshot_cb=snapshot_cb)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except RegimeError as exc:
        print(f"config error (cutoff regime): {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        dump = {
            "error": str(exc),
            "t": exc.t,
            "c": None if exc.state is None else exc.state.c.tolist(),
            "dcoef": None if exc.state is None else exc.state.dcoef.tolist(),
        }
        (out_dir / "abort_dump.json").write_text(json.dumps(dump, sort_keys=True, indent=2) + "\n")
        print(f"numerical abort: {exc} (diagnostics in {out_dir / 'abort_dump.json'})", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    csv_path = out_dir / "timeseries.csv"
    write_timeseries_csv(csv_path, result.run, result.ledger)
    outputs.append(csv_path.name)
    (out_dir / "certificates.txt").write_text(
        ledger_to_text(result.ledger, scen_path.name)
    )
    outputs.append("certificates.txt")
    (out_dir / "certificates.json").write_text(
        json.dumps(ledger_to_json_obj(result.ledger), sort_keys=True, indent=2) + "\n"
    )
    outputs.append("certificates.json")
    write_basis_manifest(out_dir / "basis_manifest.txt", result.solver)
    outputs.append("basis_manifest.txt")
    if snapshot_finalize is not None:
        snapshot_finalize(result.solver.grid.shape)
        outputs.append("snapshots/manifest.json")
    if args.plots:
        write_plots(out_dir / "plots", result.run, result.ledger)
        outputs.extend(["plots/energy.svg", "plots/temperature_bounds.svg"])

    manifest = {
        "scenario": str(scen_path),
        "scenario_sha256": scenario_hash(scen_path),
        "code_version": __version__,
        "started_unix": started,
        "finished_unix": time.time(),
        "outputs": outputs,
        "seed": None,  # dynamics are deterministic; no RNG in the pipeline
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )

    failed = result.ledger.failed()
    for cert in result.ledger.certificates:
        print(f"[{cert.status}] {cert.eq_id} {cert.name} margin={cert.margin:.6g}")
    if failed and args.strict:
        print(f"{len(failed)} certificate(s) failed", file=sys.stderr)
        return 3
    return 0


def _check_line(ok: bool, name: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def cmd_check(args) -> int:
    try:
        config = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    ok = True
    _, grid = build_domain(config.domain_spec())
    profile = profile_by_name(
        config.flux_profile, config.domain_spec(),
        amplitude=config.flux_amplitude, beta=config.flux_beta, period=config.flux_period,
    )
    # flux compatibility at sampled times over the whole horizon
    ts = horizon_times(config, 8)
    worst = max(check_compatibility(profile, grid, float(t)) for t in ts)
    ok &= _check_line(worst <= 1e-12, "flux-compatibility", f"worst residual {worst:.3e}")

    # cutoff parameter regime: the decision the solver makes
    try:
        params = pick_hopf_params(config, profile, grid)
    except RegimeError as exc:
        ok &= _check_line(False, "cutoff-regime", str(exc))
    else:
        if params is None:
            _check_line(True, "cutoff-regime", "no flux; lifting inactive")
        else:
            _check_line(
                True, "cutoff-regime",
                f"{config.hopf_mode} eps={params.eps} rho={params.rho} (0 < rho < min(1, a))",
            )

    ok &= _check_line(
        config.mu > 2.0 / 3.0,
        "weighted-exponent",
        f"mu = {config.mu} (> 2/3 required: the layer integral diverges at 2/3)",
    )
    hyp = config.theta_star < config.theta_star_upper
    ok &= _check_line(
        hyp, "temperature-hypotheses",
        f"theta_star={config.theta_star} < theta_star_upper={config.theta_star_upper}",
    )
    from .audit import _theta0_range

    lo0, hi0 = _theta0_range(config)
    applicable = lo0 >= config.theta_star - 1e-12 and hi0 <= config.theta_star_upper + 1e-12
    print(
        f"[INFO] temperature-bounds applicability: "
        f"{'yes' if applicable else 'no (certificate will be skipped)'} "
        f"(theta0 range [{lo0}, {hi0}])"
    )
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    if not args.values:
        print("usage error: --values must list at least one value", file=sys.stderr)
        return 1
    if args.axis not in KEY_MAP:
        print(f"usage error: unknown axis key {args.axis!r}", file=sys.stderr)
        return 1
    scen_path = Path(args.scenario)
    try:
        base_text = scen_path.read_text()
        parse_scenario_text(base_text)
    except (OSError, ScenarioError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path("out") / f"{scen_path.stem}-sweep"
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    xt_series = {}
    for raw_value in args.values.split(","):
        value = raw_value.strip()
        label = f"{args.axis}={value}"
        try:
            config = parse_scenario_text(set_key(base_text, args.axis, value))
            result = execute(config)
        except ValueError as exc:
            rows.append({"value": value, "status": f"skipped ({exc})"})
            print(f"[SKIP] {label}: {exc}")
            continue
        except NumericalAbort as exc:
            rows.append({"value": value, "status": f"aborted ({exc})"})
            print(f"[ABORT] {label}: {exc}")
            continue
        ledger = result.ledger
        wh = ledger.by_name("weighted-hessian")
        layer = ledger.by_name("layer-bound")
        rows.append(
            {
                "value": value,
                "status": "ok" if not ledger.failed() else "certificate-failures",
                "c2": ledger.calibration.c2,
                "weighted_hessian_ratio": wh.details.get("ratio", float("nan")),
                "layer_bound_constant": layer.details.get("C_emp", float("nan")),
                "X_final": float(ledger.X[-1]),
                "failed": ",".join(c.name for c in ledger.failed()) or "-",
            }
        )
        xt_series[label] = (result.run.times, ledger.X)
        print(f"[OK] {label}: c2={ledger.calibration.c2:.4g} X_final={ledger.X[-1]:.4g}")

    header = ["value", "status", "c2", "weighted_hessian_ratio", "layer_bound_constant", "X_final", "failed"]
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(str(r.get(k, "-")) for k in header))
    (out_dir / "sweep_summary.csv").write_text("\n".join(lines) + "\n")

    if xt_series:
        polyline_chart(
            xt_series, out_dir / "X_vs_t.svg",
            title=f"X(t) across {args.axis}", xlabel="t", ylabel="X",
        )
        numeric = [
            (float(r["value"]), r) for r in rows if r.get("status", "").startswith("ok")
            and _is_number(r["value"])
        ]
        if numeric:
            xs = [v for v, _ in numeric]
            polyline_chart(
                {
                    "c2": (xs, [r["c2"] for _, r in numeric]),
                    "weighted_hessian_ratio": (
                        xs, [r["weighted_hessian_ratio"] for _, r in numeric]
                    ),
                },
                out_dir / "constants_vs_axis.svg",
                title=f"empirical constants vs {args.axis}",
                xlabel=args.axis,
            )
    return 0


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ductflow",
        description="spectral Galerkin duct-flow simulator with runtime energy audit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and audit it")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--snapshots", type=int, default=0, metavar="CADENCE",
                       help="write field snapshots every CADENCE samples")
    p_run.add_argument("--plots", action="store_true", help="emit SVG charts")
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 when a non-advisory certificate fails")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="static validation, no time integration")
    p_check.add_argument("scenario")
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="repeat run over one parameter axis")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--axis", required=True, help="scenario key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

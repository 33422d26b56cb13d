"""Command line front end: run, check and sweep scenarios.

Exit codes: 0 success, 1 usage or configuration error, input the library
rejects (any ValueError) or an output path that cannot be written (any
OSError), each reported in one line by main, 2 numerical abort, 3
certificate failure (only with --strict).

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
import csv
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .audit import EnergyLedger, _fmt, audit_run, ledger_to_json_obj, ledger_to_text, theta0_range
from .basis import dealias_cap, temperature_modes, velocity_modes
from .domain import build_domain
from .errors import AliasingError, NumericalAbort, RegimeError, ScenarioError
from .hopf import sample_cap_shape, validate_profile
from .scenario import _FIELD_TYPES, KEY_MAP, load_scenario, parse_scenario_text, read_scenario, set_key
from .solver import GalerkinSolver, RunResult, ScenarioConfig, pick_hopf_params, profile_of
from .svg import polyline_chart


@dataclass
class PipelineResult:
    solver: GalerkinSolver
    run: RunResult
    ledger: EnergyLedger


def execute(config: ScenarioConfig) -> PipelineResult:
    """domain -> flux -> cutoff -> lifting -> bases -> windows -> audit."""
    solver = GalerkinSolver(config)
    run = solver.run_windows()
    return PipelineResult(solver=solver, run=run, ledger=audit_run(run, solver))


# ---------------------------------------------------------------------------
# Output writers


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
    # rows of Python floats, whose repr is _fmt's, without a numpy scalar per cell
    rows = np.column_stack([arr for _, arr in cols]).tolist()
    lines = [",".join(name for name, _ in cols), *(",".join(map(repr, row)) for row in rows)]
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


def write_snapshots(out_dir: Path, cadence: int, run: RunResult, solver: GalerkinSolver) -> None:
    """The fields of every cadence-th stored sample, reconstructed from its
    trajectory row, and a manifest of grid dims, times and file names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx in range(0, run.times.size, cadence):
        x = np.concatenate([run.coeffs_w[idx], run.coeffs_th[idx]])
        w, v, theta = solver.reconstruct(x, solver.drive(run.times[idx]))
        files = {}
        for name, arr in (("w", w), ("vartheta", theta), ("v", v), ("theta", theta)):
            fname = f"{name}_{idx:06d}.npy"
            np.save(out_dir / fname, arr)
            files[name] = fname
        entries.append({"index": idx, "time": float(run.times[idx]), "files": files})
    manifest = {
        "grid_dims": list(solver.grid.shape),
        "fields": ["w", "vartheta", "v", "theta"],
        "snapshots": entries,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


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
    if args.snapshots < 0:
        raise _UsageError(f"--snapshots CADENCE must be 0 (off) or more, got {args.snapshots}")
    text, sha256 = read_scenario(args.scenario)
    config = parse_scenario_text(text)
    scen_path = Path(args.scenario)
    out_dir = Path(args.out) if args.out else Path("out") / scen_path.stem
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)  # before any compute, so a bad --out fails fast
    rc = 1
    try:
        rc = _run_into(args, config, scen_path, sha256, out_dir)
    finally:
        # a run rejected with exit 1 leaves no empty directory of its own behind
        while rc == 1 and created and not any(created[0].iterdir()):
            created.pop(0).rmdir()
    return rc


def _run_into(args, config: ScenarioConfig, scen_path: Path, sha256: str, out_dir: Path) -> int:
    started = time.time()
    try:
        result = execute(config)
    except NumericalAbort as exc:
        dump = {
            "error": str(exc),
            "t": exc.t,
            "c": None if exc.c is None else exc.c.tolist(),
            "dcoef": None if exc.dcoef is None else exc.dcoef.tolist(),
        }
        (out_dir / "abort_dump.json").write_text(json.dumps(dump, sort_keys=True, indent=2) + "\n")
        print(f"numerical abort: {exc} (diagnostics in {out_dir / 'abort_dump.json'})", file=sys.stderr)
        return 2

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
    if args.snapshots:
        write_snapshots(out_dir / "snapshots", args.snapshots, result.run, result.solver)
        outputs.append("snapshots/manifest.json")
    if args.plots:
        write_plots(out_dir / "plots", result.run, result.ledger)
        outputs.extend(["plots/energy.svg", "plots/temperature_bounds.svg"])

    manifest = {
        "scenario": str(scen_path),
        "scenario_sha256": sha256,
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
    config = load_scenario(args.scenario)
    ok = True
    grid = build_domain(config.domain_spec())
    profile = profile_of(config)
    shape = sample_cap_shape(profile, grid)
    # the flux data over the whole horizon, as `run` validates them
    try:
        worst = validate_profile(shape, profile.s_sup(config.n_windows * config.T))
    except ValueError as exc:
        ok &= _check_line(False, "flux-compatibility", str(exc))
    else:
        _check_line(True, "flux-compatibility", f"worst residual {worst:.3e}")

    # mode count: the decision the bases make, from closed forms only
    kcap = tuple(dealias_cap(n) for n in grid.shape)
    try:
        velocity_modes(grid.spec.lengths, kcap, config.m)
        temperature_modes(grid.spec.lengths, kcap, config.m)
        _check_line(True, "galerkin-modes", f"m = {config.m} below the dealiased band {kcap}")
    except AliasingError as exc:
        ok &= _check_line(False, "galerkin-modes", str(exc))

    # cutoff parameter regime: the decision the solver makes
    try:
        params = pick_hopf_params(config, profile, shape, grid)
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

    lo0, hi0, applicable = theta0_range(config)
    print(
        f"[INFO] temperature-bounds applicability: "
        f"{'yes' if applicable else 'no (certificate will be skipped)'} "
        f"(theta0 range [{lo0}, {hi0}])"
    )
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    if not args.values:
        raise _UsageError("--values must list at least one value")
    if args.axis not in KEY_MAP:
        raise _UsageError(f"unknown axis key {args.axis!r}")
    if _FIELD_TYPES[KEY_MAP[args.axis]] is tuple:
        raise _UsageError(f"axis {args.axis!r} holds a vector, and --values is split at commas")
    scen_path = Path(args.scenario)
    base_text = read_scenario(scen_path)[0]  # read once, then varied
    parse_scenario_text(base_text)  # a missing or invalid base file ends in main's one line
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
    with open(out_dir / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a field holding a comma
        writer.writerows([header, *([r.get(k, "-") for k in header] for r in rows)])

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


class _UsageError(Exception):
    """A command line that the parser or a command rejects."""


class _Parser(argparse.ArgumentParser):
    """A parser, and through add_subparsers each subparser, whose errors
    end in main's one usage-error line instead of argparse's exit 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# each error a command may end in and the start of its one stderr line, the
# first match winning; all exit 1 (`run` reports a numerical abort itself)
_ERRORS = (
    (_UsageError, "usage error"),
    (RegimeError, "config error (cutoff regime)"),
    (ScenarioError, "config error"),
    (ValueError, "input error"),   # any other input the library rejects
    (OSError, "output error"),     # an output that cannot be created or written
)


def main(argv=None) -> int:
    parser = _Parser(
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

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(cls for cls, _ in _ERRORS) as exc:
        print(f"{next(line for cls, line in _ERRORS if isinstance(exc, cls))}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

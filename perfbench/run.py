"""Time-to-certificate benchmark for ductflow.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a ductflow checkout. NAME is one of WORKLOADS, or `all`
to run each in turn. From the seed the driver writes one scenario file,
checks it with `ductflow check`, then runs it again and again through
`ductflow run --strict` until the time is up: a closed loop with one client,
one run at a time, each run in a fresh process (child.py). It checks every
run's outputs, prints a report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json. With
--trace 1 traced runs alternate with untraced ones and the metrics are the
per-layer ones, derived from the traced runs' spans (layers.py).

Results, with the environment, go to perfbench/results/; run directories
live in perfbench/.work/ while the benchmark runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import THREAD_VARS
from layers import OVERHEAD_METRIC, layer_metrics, span_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# BLAS is pinned to one thread, the baseline setting, recorded in every result
BLAS_THREADS = 1
# keeps even the three-run minimum of a traced invocation under three minutes
CHILD_TIMEOUT_S = 40
CSV_COLUMNS = "t,X,Y,F,w_l2,theta_l2,theta_min,theta_max,flux_residual"
DETERMINISTIC_FILES = ("timeseries.csv", "certificates.txt", "certificates.json")
# The speed probe's time at the reference speed; setup_s and run_wall_s are
# seconds at that speed (see scaled_run_s).
PROBE_REF_S = 0.05
# ms per step at the ROADMAP baseline, for the cross-check in the traced report
ROADMAP_STEP_MS = {"static-forced": 50.0, "pulsed-lift": 80.0}

COMMON = """\
domain.L1 = 1.0
domain.L2 = 1.0
domain.a = 1.0
domain.N1 = 16
domain.N2 = 16
domain.N3 = 32
physics.nu = 1.0
physics.kappa = 1.0
physics.gamma = 1.0
time.dt = 0.0025
audit.mu = 0.8
audit.c_recon = 4.0
"""


def _u(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def pulsed_lift(rng: random.Random) -> str:
    return f"""\
# pulsed-flux family: time-dependent flux, lifting rebuilt every step
flux.profile = pulsed
flux.amplitude = {_u(rng, 0.45, 0.65)}
flux.beta = {_u(rng, 0.3, 0.7)}
flux.period = {_u(rng, 0.25, 0.75)}
hopf.mode = manual
hopf.eps = 0.5
hopf.rho = 0.5
forcing.kind = zero
init.v = zero
init.theta = zero
time.T = 0.025
time.windows = 2
galerkin.m = 16
"""


def static_forced(rng: random.Random) -> str:
    return f"""\
# forced-warm family: constant flux, shear forcing, linear omega(theta)
omega.kind = linear
omega.omega0 = 1.0
omega.omega1 = {_u(rng, 0.05, 0.15)}
forcing.kind = shear
forcing.amplitude = {_u(rng, 0.15, 0.35)}
flux.profile = constant
flux.amplitude = {_u(rng, 0.1, 0.2)}
hopf.mode = manual
hopf.eps = 0.5
hopf.rho = 0.5
init.v = zero
init.theta = constant
init.theta_mean = 1.5
time.T = 0.025
time.windows = 2
galerkin.m = 16
audit.theta_star = 1.0
audit.theta_star_upper = 2.0
"""


def decay_m32(rng: random.Random) -> str:
    return f"""\
# free decay at m = 32: velocity mode mix and a temperature front, no flux
flux.profile = none
forcing.kind = zero
init.v = modes
init.v_amplitude = {_u(rng, 0.4, 0.8)}
init.v_nmodes = 4
init.theta = front
init.theta_mean = 1.5
init.theta_amplitude = {_u(rng, 0.3, 0.43)}
time.T = 0.25
time.windows = 2
galerkin.m = 32
audit.theta_star = 1.0
audit.theta_star_upper = 2.0
audit.tol_overshoot = 0.01
"""


WORKLOADS = {"pulsed-lift": pulsed_lift, "static-forced": static_forced, "decay-m32": decay_m32}


def expected_rows(text: str) -> int:
    """Samples a scenario records: windows * T / dt steps plus the initial one."""
    kv = dict(line.split(" = ") for line in text.splitlines() if line and not line.startswith("#"))
    return int(kv["time.windows"]) * round(float(kv["time.T"]) / float(kv["time.dt"])) + 1


# ---------------------------------------------------------------------------
# environment


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# one run and its correctness gate


def run_child(scenario: Path, run_dir: Path, traced: bool, env: dict) -> dict | None:
    """Start child.py, wait for it, return its result or None if it crashed."""
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    with open(run_dir / "child.log", "w") as log:
        try:
            # on timeout the child is killed and waited for before the raise
            returncode = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(scenario), str(run_dir / "out"),
                 str(result_path), "1" if traced else "0"],
                stdout=log, stderr=subprocess.STDOUT, env=env, timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            returncode = "timeout"
    if returncode != 0 or not result_path.is_file():
        tail = (run_dir / "child.log").read_text().splitlines()[-5:]
        print(f"run crashed (exit {returncode}): " + " | ".join(tail), file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def output_problems(out: Path, samples: int, reference: dict) -> list[str]:
    """Why a run's outputs are wrong; empty when they are right.

    The first run's deterministic files become the reference that every
    later run of the same scenario must match byte for byte.
    """
    problems = []
    try:
        files = {name: (out / name).read_bytes() for name in DETERMINISTIC_FILES}
    except OSError as exc:
        return [f"missing output: {exc}"]
    try:
        certs = [(c["eq_id"], c["name"], c["status"], c["advisory"])
                 for c in json.loads(files["certificates.json"])["certificates"]]
        lines = files["timeseries.csv"].decode().splitlines()
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    for eq_id, cert_name, status, advisory in certs:
        if not advisory and status not in ("PASS", "SKIP"):
            problems.append(f"certificate {eq_id} {cert_name}: {status}")
    if not lines or lines[0] != CSV_COLUMNS:
        problems.append("timeseries.csv header changed")
    if len(lines) - 1 != samples:
        problems.append(f"timeseries.csv has {len(lines) - 1} rows, expected {samples}")
    for row in lines[1:]:
        try:
            values = [float(x) for x in row.split(",")]
        except ValueError:
            values = [math.nan]
        if len(values) != len(CSV_COLUMNS.split(",")) or not all(map(math.isfinite, values)):
            problems.append(f"timeseries.csv row not finite: {row[:60]}")
            break
    for name, data in files.items():
        if reference.setdefault(name, data) != data:
            problems.append(f"{name} differs from the first run of this scenario")
    return problems


# ---------------------------------------------------------------------------
# one workload


def median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


# Other tenants of the host slow a run by up to 2x, in spells that can
# outlast a whole measurement, so raw seconds drift between two sets of runs
# of the same code. Each time is therefore scaled to the reference speed:
# raw seconds * PROBE_REF_S / the mean of the speed probes around it.


def scaled_setup_s(run: dict) -> float:
    return run["setup_s"] * PROBE_REF_S / statistics.mean(run["probe_s"][:2])


def scaled_run_s(run: dict) -> float:
    return run["run_wall_s"] * PROBE_REF_S / statistics.mean(run["probe_s"][1:])


def bench_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    text = COMMON + WORKLOADS[name](random.Random(f"{name}:{seed}"))
    samples = expected_rows(text)
    scenario = work / f"{name}-seed{seed}.scn"
    scenario.write_text(text)
    env = child_env()
    check = subprocess.run(
        [sys.executable, "-m", "ductflow.cli", "check", str(scenario)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if check.returncode != 0:
        raise SystemExit(
            f"generated scenario {scenario.name} fails `ductflow check` "
            f"(exit {check.returncode}):\n{check.stdout}{check.stderr}"
        )

    # traced runs alternate with untraced ones, so the overhead is measured
    # under the same conditions; a run is started only if it should fit
    min_runs = 3 if trace else 2
    results, problems_by_run, reference, durations = [], [], {}, []
    start = time.perf_counter()
    i = 0
    while i < min_runs or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        res = run_child(scenario, work / f"run{i:03d}", trace and i % 2 == 0, env)
        durations.append(time.perf_counter() - t0)
        if res is None:
            problems = ["process crashed"]
        elif res["rc"] != 0:
            problems = [f"ductflow run --strict exited {res['rc']}"]
        else:
            problems = output_problems(work / f"run{i:03d}" / "out", samples, reference)
            if res["traced"] and not problems:
                counts = span_counts(res["spans"])
                if reference.setdefault("span counts", counts) != counts:
                    problems.append("span counts differ from the first traced run")
        results.append(res)
        problems_by_run.append(problems)
        shutil.rmtree(work / f"run{i:03d}" / "out", ignore_errors=True)
        i += 1

    ok = [r for r, p in zip(results, problems_by_run) if r is not None and not p]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load": "closed loop, 1 client, 1 run at a time, fresh process per run",
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "env": next((r["env"] for r in results if r is not None), None),
        "attempted": len(results),
        "failed": sum(1 for p in problems_by_run if p),
        "problems": [p for p in problems_by_run if p],
        "runs": [
            None if r is None else
            {k: r[k] for k in ("rc", "setup_s", "run_wall_s", "probe_s", "peak_rss_mb", "traced")}
            for r in results
        ],
        "probe_median_s": median_or_nan([p for r in ok for p in r["probe_s"]]),
    }
    report["end_to_end"] = {
        "setup_s": {"value": median_or_nan([scaled_setup_s(r) for r in ok]), "unit": "s",
                    "n": len(ok), "raw": median_or_nan([r["setup_s"] for r in ok])},
        "run_wall_s": {"value": median_or_nan([scaled_run_s(r) for r in untraced]), "unit": "s",
                       "n": len(untraced),
                       "raw": median_or_nan([r["run_wall_s"] for r in untraced])},
        "peak_rss_mb": {"value": median_or_nan([r["peak_rss_mb"] for r in untraced]),
                        "unit": "MB", "n": len(untraced)},
    }
    report["metrics"] = {k: {"value": m["value"], "unit": m["unit"]}
                         for k, m in report["end_to_end"].items()}
    if trace:
        if not traced:
            raise SystemExit(f"no traced run of {name} succeeded: {report['problems']}")
        metrics = layer_metrics([r["spans"] for r in traced])
        wall_traced = statistics.median(scaled_run_s(r) for r in traced)
        overhead_name, unit = OVERHEAD_METRIC
        metrics[overhead_name] = {
            "value": wall_traced / report["end_to_end"]["run_wall_s"]["value"] - 1.0,
            "unit": unit,
        }
        report["metrics"] = metrics
        report["traced_runs"] = len(traced)
        report["traced_run_wall_s"] = wall_traced
        report["absent"] = sorted({a for r in traced for a in r["absent"]})
        report["span_counts"] = reference["span counts"]
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  seconds={report['seconds']}  "
          f"trace={report['trace']}  ({report['load']}; BLAS threads={report['blas_threads']})")
    for key, m in report["end_to_end"].items():
        raw = f"; unscaled {m['raw']:.6g} {m['unit']}" if "raw" in m else ""
        print(f"  {key:<14} {m['value']:.6g} {m['unit']}  (median of {m['n']}{raw})")
    print(f"  speed probe    {report['probe_median_s']:.6g} s  (median; reference {PROBE_REF_S} s)")
    frac = report["failed"] / report["attempted"]
    print(f"  {'failed_frac':<14} {frac:.6g} ratio  ({report['failed']} of {report['attempted']} runs failed)")
    for problems in report["problems"]:
        print(f"  failed run: {'; '.join(problems)}")
    if report["trace"]:
        for key, m in report["metrics"].items():
            print(f"  {key:<36} {m['value']:.6g} {m['unit']}")
        print(f"  traced runs: {report['traced_runs']}, absent boundaries: "
              f"{', '.join(report['absent']) or 'none'}")
        ref = ROADMAP_STEP_MS.get(report["workload"])
        if ref is not None:
            m = report["metrics"]
            step = m["solver.step.ms_p50"]["value"]
            # the ROADMAP figure is stepping time over steps, sampling included
            loop = 1e3 * m["solver.run_windows.s"]["value"] / m["solver.step.count"]["value"]
            print(f"  cross-check vs ROADMAP ~{ref:.0f} ms/step: solver.step.ms_p50 {step:.4g} ms, "
                  f"run_windows per step {loop:.4g} ms (ratio {loop / ref:.3g})")
    print("  env: " + json.dumps({k: report[k] for k in ("git_revision", "env")}, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ductflow" / "cli.py").is_file():
        print(f"no ductflow sources under {SRC}; run from a ductflow checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = HERE / ".work" / f"{os.getpid()}"
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    reports = []
    try:
        for name in names:
            wdir = work / name
            wdir.mkdir(parents=True)
            report = bench_workload(name, args.seed, args.seconds, bool(args.trace), wdir)
            (results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(report, indent=1, sort_keys=True) + "\n"
            )
            print_report(report)
            reports.append(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other invocations may still use it
            work.parent.rmdir()

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in reports for k, m in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

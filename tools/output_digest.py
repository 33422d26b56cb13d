"""Digest of every deterministic output of ductflow, for byte-identity checks.

    python3 tools/output_digest.py [ROOT] [OTHER] [--rel TOL]
    python3 tools/output_digest.py [ROOT] --write-golden PATH

Runs `ductflow run --strict --snapshots N` and `ductflow check`, each in a
fresh process, on the bundled scenarios, on the benchmark workloads at
seeds 1 and 2 and on the VARIANTS of two bundled scenarios, using the
source tree of the ductflow checkout at ROOT (default: the one holding
this script). N is chosen per scenario so that a
run writes SNAPSHOTS field snapshots from its first sample on (fewer if it
has fewer samples), so the reconstruction of the fields is digested too;
for every run here the last one is the last sample. Prints one line per
scenario: the name, the exit code of the run, a sha256 prefix of each
deterministic output, `manifest=<sha256 prefix>` of `run_manifest.json`
without the keys in MANIFEST_VOLATILE (so `scenario_sha256`, the outputs
list and the version are covered), `snapshots=<sha256 prefix>` over
`snapshots/manifest.json` and then the `.npy` files in sorted order, and
last `check=<exit code>:<sha256 prefix of check's stdout>`.

With a second checkout OTHER, the same runs are made on both source trees
(the workload and variant scenarios of ROOT are used for both) and only the lines that
differ are printed, ROOT's prefixed with "-" and OTHER's with "+", each
pair followed, indented, by the unified diff of the two `check` stdouts
when they differ. The exit code is 1 if any line differs and 0 if none
does, so a refactor that must not change results is checked by one command
against a copy of its parent.

With `--rel TOL` (two checkouts only) each run that differs is also compared
by value: its exit code, its `manifest` column (the manifest holds no
computed number), its `check` column (`check` prints no rounding) and the
status of each certificate must be equal, and the largest relative
difference is printed for each `timeseries.csv` column (relative to the
largest magnitude in that column), for each float in `certificates.json`
(relative to the larger of the two magnitudes) and for each snapshot field
(relative to its largest magnitude over both snapshots). A
difference above TOL is printed with its absolute size too, so a relative
change of a quantity that is itself roundoff shows as such. The quantities
in ABSOLUTE are roundoff by construction, so any change of rounding moves
them by a large fraction of themselves; they are printed the same way but
judged by their absolute difference against TOL. The exit code is then 1
only on a changed exit code, `manifest` or `check` column or status, or on
a difference above TOL, so a refactor that may move results by rounding is
checked by one command too.

With `--write-golden PATH` the bundled scenarios of ROOT are run in this
process on ROOT's source tree, and the golden record of each (golden_record:
every certificate's status and margin, the calibration constants, and X, Y
and F at the first, middle and last sample) is written to PATH as JSON.
The Tier-1 test that reads `tests/golden/bundled.json` holds the package's
results against that file with judged_diff, the rule `--rel` applies to the
floats of `certificates.json`, to 1e-10. A change that moves results
regenerates the file with this command.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

FILES = ("timeseries.csv", "certificates.txt", "certificates.json", "basis_manifest.txt")
SEEDS = (1, 2)
# field snapshots written per run, from the first sample on
SNAPSHOTS = 5
# run_manifest.json keys left out of its digest: the clock, and the path of
# the scenario, which differs between checkouts
MANIFEST_VOLATILE = ("started_unix", "finished_unix", "scenario")
# the columns of a digest line that --rel holds equal; no rounding moves them
EXACT = ("rc=", "manifest=", "check=")
# quantities that vanish up to rounding, judged by absolute difference:
# the grid L2 norm of lap(phi) + data, the residual of the Neumann solve
ABSOLUTE = ("certificates.json certificates.weighted-hessian.details.residual",)
# bundled scenarios with keys changed, for code no bundled run reaches: a
# moving velocity under pulsed flux exercises the lifting's nonlinear
# coupling G_wd c, bounded_smooth omega the per-step projection of
# omega(theta) f, a steady parabolic cap the time factor of a steady
# profile, nu != 1 the cap stress, which the boundary functional weighs
# by (nu - 1), auto mode select_params with the sup of |s| over the
# horizon, and on a parabolic pulse the W^1_3 norm of the cap shape with its
# gradient, which a constant cap lacks (its layer is unresolved at N3 = 32,
# so E10 and E11 fail and `run --strict` exits 3); name -> (bundled
# scenario, {key: value})
VARIANTS = {
    "pulsed-flux-moving": ("pulsed-flux", {"init.v": "modes", "init.v_amplitude": 0.5, "init.v_nmodes": 4}),
    "pulsed-flux-steady": ("pulsed-flux", {"flux.profile": "parabolic-cap"}),
    "pulsed-flux-viscous": ("pulsed-flux", {"physics.nu": 0.7}),
    "forced-warm-smooth": ("forced-warm", {"omega.kind": "bounded_smooth", "omega.omega1": 0.1}),
    "forced-warm-auto": ("forced-warm", {"hopf.mode": "auto", "flux.amplitude": 0.08}),
    "pulsed-flux-auto": ("pulsed-flux", {"hopf.mode": "auto"}),
}


def variant_text(text: str, keys: dict) -> str:
    """Scenario text with the lines of the keys dropped and the keys
    appended with their values."""
    lines = [line for line in text.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.is_file() else "-" * 12


def manifest_digest(path: Path) -> str:
    """sha256 prefix of a run manifest without its MANIFEST_VOLATILE keys."""
    if not path.is_file():
        return "-" * 12
    manifest = json.loads(path.read_text())
    for key in MANIFEST_VOLATILE:
        manifest.pop(key, None)
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()[:12]


def snapshot_digest(folder: Path) -> str:
    """sha256 prefix over manifest.json and then the .npy files in sorted order."""
    manifest = folder / "manifest.json"
    if not manifest.is_file():
        return "-" * 12
    h = hashlib.sha256(manifest.read_bytes())
    for path in sorted(folder.glob("*.npy")):
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def digest_lines(root: Path, workloads: list, work: Path, base_env: dict, rows) -> dict:
    """{run name: digest line} of the bundled scenarios of root and the given
    workload scenarios, run on the source tree of root; rows(text) is the
    number of samples a scenario records. The outputs of a run are left in
    work/out/<name> and the stdout of its `check` in work/check/<name>.txt."""
    env = dict(base_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = [(p.stem, p) for p in sorted((root / "src/ductflow/scenarios").glob("*.scn"))] + workloads
    (work / "check").mkdir(parents=True)
    lines = {}
    for name, scenario in runs:
        out = work / "out" / name
        cadence = max(1, (rows(scenario.read_text()) - 1) // (SNAPSHOTS - 1))
        rc = subprocess.run(
            [sys.executable, "-m", "ductflow.cli", "run", str(scenario), "--out", str(out), "--strict",
             "--snapshots", str(cadence)],
            env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        check = subprocess.run(
            [sys.executable, "-m", "ductflow.cli", "check", str(scenario)],
            env=env, cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        (work / "check" / f"{name}.txt").write_bytes(check.stdout)
        lines[name] = " ".join([
            name, f"rc={rc}", *(f"{f}={digest(out / f)}" for f in FILES),
            f"manifest={manifest_digest(out / 'run_manifest.json')}",
            f"snapshots={snapshot_digest(out / 'snapshots')}",
            f"check={check.returncode}:{hashlib.sha256(check.stdout).hexdigest()[:12]}",
        ])
    return lines


def rel_diff(a: float, b: float, scale: float) -> float:
    """|a - b| / scale; 0 for equal values (infinities and nan included),
    inf when only one of them is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)) or scale == 0.0:
        return math.inf
    return abs(a - b) / scale


def judged_diff(key: str, a: float, b: float) -> float:
    """The difference of two values of the quantity key that is held against
    TOL: absolute for a quantity in ABSOLUTE, else relative to the larger of
    the two magnitudes; 0 for equal values, inf when only one is finite."""
    return rel_diff(a, b, 1.0 if key in ABSOLUTE else max(abs(a), abs(b)))


def golden_record(result) -> dict:
    """The values of one pipeline result (ductflow.cli.execute) that the
    golden file holds, keyed by the output file that writes them, so that
    json_floats names them as value_diffs does."""
    ledger = result.ledger
    picks = (0, ledger.X.size // 2, ledger.X.size - 1)
    return {
        "certificates.json": {
            "constants": asdict(ledger.calibration),
            "certificates": [{"name": c.name, "status": c.status, "margin": float(c.margin)}
                             for c in ledger.certificates],
        },
        "timeseries.csv": {"sample": list(picks),
                           **{s: [float(getattr(ledger, s)[i]) for i in picks] for s in "XYF"}},
    }


def write_golden(root: Path, path: Path) -> None:
    """Run the bundled scenarios of root on its source tree, in this process,
    and write their golden records to path."""
    sys.path.insert(0, str(root / "src"))
    from ductflow.cli import execute
    from ductflow.scenario import load_scenario

    scenarios = sorted((root / "src/ductflow/scenarios").glob("*.scn"))
    golden = {p.stem: golden_record(execute(load_scenario(p))) for p in scenarios}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n")


def json_floats(node, path: str = "") -> dict:
    """{dotted path: value} of every float in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        # a certificate is named by its name, any other item by its index
        items = ((str(v["name"]) if isinstance(v, dict) and "name" in v else str(i), v)
                 for i, v in enumerate(node))
    else:
        return {path: node} if isinstance(node, float) else {}
    out = {}
    for key, value in items:
        out.update(json_floats(value, f"{path}.{key}" if path else key))
    return out


def read_series(path: Path) -> dict:
    """{column: values} of a timeseries.csv."""
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def value_diffs(ours: Path, theirs: Path) -> tuple[list, dict]:
    """(changed certificate statuses, {quantity: (largest relative
    difference, its absolute size)}) between the outputs of one run on the
    two trees."""
    certs = [json.loads((out / "certificates.json").read_text()) for out in (ours, theirs)]
    statuses = [{c["name"]: c["status"] for c in doc["certificates"]} for doc in certs]
    changed = [
        f"{name}: {statuses[0].get(name, 'absent')} -> {statuses[1].get(name, 'absent')}"
        for name in sorted(statuses[0].keys() | statuses[1].keys())
        if statuses[0].get(name) != statuses[1].get(name)
    ]
    diffs = {}
    series = [read_series(out / "timeseries.csv") for out in (ours, theirs)]
    for col in series[0].keys() | series[1].keys():
        a, b = series[0].get(col, []), series[1].get(col, [])
        if len(a) != len(b) or not a:
            diffs[f"timeseries.csv {col}"] = (math.inf, math.inf)
            continue
        scale = max((abs(x) for x in a + b if math.isfinite(x)), default=0.0)
        rel = max(rel_diff(x, y, scale) for x, y in zip(a, b))
        diffs[f"timeseries.csv {col}"] = (rel, rel * scale if rel else 0.0)
    floats = [json_floats(doc) for doc in certs]
    for key in floats[0].keys() | floats[1].keys():
        a, b = floats[0].get(key), floats[1].get(key)
        if a is None or b is None:
            diffs[f"certificates.json {key}"] = (math.inf, math.inf)
            continue
        rel = rel_diff(a, b, max(abs(a), abs(b)))
        diffs[f"certificates.json {key}"] = (rel, abs(a - b) if rel else 0.0)
    folders = [out / "snapshots" for out in (ours, theirs)]
    for name in sorted({p.name for folder in folders for p in folder.glob("*.npy")}):
        key = f"snapshots {name.rsplit('_', 1)[0]}"   # one entry per field
        paths = [folder / name for folder in folders]
        arrays = [np.load(p) for p in paths if p.is_file()]
        if len(arrays) < 2 or arrays[0].shape != arrays[1].shape:
            diffs[key] = (math.inf, math.inf)
            continue
        absolute = float(np.max(np.abs(arrays[0] - arrays[1])))
        scale = max(float(np.max(np.abs(a))) for a in arrays)
        rel = 0.0 if absolute == 0.0 else (absolute / scale if scale else math.inf)
        diffs[key] = max(diffs.get(key, (0.0, 0.0)), (rel, absolute))
    return changed, diffs


def check_diff(name: str, work: Path) -> list:
    """The unified diff of the `check` stdout of one run on the two trees."""
    paths = [work / str(i) / "check" / f"{name}.txt" for i in range(2)]
    texts = [p.read_text().splitlines() if p.is_file() else [] for p in paths]
    return list(difflib.unified_diff(*texts, "check", "check", lineterm=""))


def compare_by_value(name: str, digests: list, work: Path, tol: float) -> bool:
    """Print the value comparison of one differing run; True when it passes."""
    exact = [[col for col in d.get(name, "").split(" ") if col.startswith(EXACT)] for d in digests]
    if exact[0] != exact[1]:
        print(f"  exit code, manifest or check output changed: {exact[0]} -> {exact[1]}")
        return False
    try:
        changed, diffs = value_diffs(*(work / str(i) / "out" / name for i in range(2)))
    except (OSError, ValueError, KeyError) as exc:
        print(f"  cannot compare: {exc!r}")
        return False
    for line in changed:
        print(f"  status {line}")
    judged = {key: absolute if key in ABSOLUTE else rel for key, (rel, absolute) in diffs.items()}
    for key, (rel, absolute) in sorted(diffs.items(), key=lambda kv: (-kv[1][0], kv[0])):
        if rel > 0.0:
            above = f"  above TOL, {absolute:.3e} absolute" if judged[key] > tol else ""
            judge = ", judged absolute" if key in ABSOLUTE else ""
            print(f"  {rel:.3e} {key}{above}{judge}")
    return not changed and all(x <= tol for x in judged.values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, metavar="ROOT")
    parser.add_argument("--rel", type=float, metavar="TOL",
                        help="compare the runs that differ by value, to TOL relative")
    parser.add_argument("--write-golden", type=Path, metavar="PATH",
                        help="write the golden records of ROOT's bundled scenarios to PATH")
    args = parser.parse_args()
    if len(args.roots) > 2 or (args.rel is not None and len(args.roots) != 2):
        parser.error("give at most two checkouts, and two with --rel")
    if args.write_golden is not None and (len(args.roots) > 1 or args.rel is not None):
        parser.error("--write-golden takes at most one checkout and no --rel")
    roots = [p.resolve() for p in args.roots] or [Path(__file__).resolve().parents[1]]
    if args.write_golden is not None:
        write_golden(roots[0], args.write_golden)
        return 0
    # the benchmark's workload generators and child environment, used as they are
    sys.path.insert(0, str(roots[0] / "perfbench"))
    from run import COMMON, WORKLOADS, child_env, expected_rows

    with tempfile.TemporaryDirectory(prefix="ductflow-digest-") as tmp:
        work = Path(tmp)
        workloads = []
        for name, make in WORKLOADS.items():
            for seed in SEEDS:
                scenario = work / f"{name}-seed{seed}.scn"
                scenario.write_text(COMMON + make(random.Random(f"{name}:{seed}")))
                workloads.append((scenario.stem, scenario))
        for name, (base, keys) in VARIANTS.items():
            scenario = work / f"{name}.scn"
            scenario.write_text(variant_text((roots[0] / f"src/ductflow/scenarios/{base}.scn").read_text(), keys))
            workloads.append((name, scenario))
        digests = [digest_lines(root, workloads, work / str(i), child_env(), expected_rows)
                   for i, root in enumerate(roots)]
        if len(digests) == 1:
            print(*digests[0].values(), sep="\n")
            return 0
        ours, theirs = digests
        differ = failed = 0
        for name in sorted(ours.keys() | theirs.keys()):
            if ours.get(name) != theirs.get(name):
                differ += 1
                print(f"- {ours.get(name, name + ' (absent)')}")
                print(f"+ {theirs.get(name, name + ' (absent)')}")
                for line in check_diff(name, work):
                    print(f"  {line}")
                if args.rel is not None and not compare_by_value(name, digests, work, args.rel):
                    failed += 1
    summary = f"{len(ours.keys() | theirs.keys())} runs, {differ} differ"
    if args.rel is None:
        print(summary, file=sys.stderr)
        return 1 if differ else 0
    print(f"{summary}, {failed} with a changed status or beyond {args.rel:g}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Digest of every deterministic output of ductflow, for byte-identity checks.

    python3 tools/output_digest.py [ROOT] [OTHER]

Runs `ductflow run --strict`, each in a fresh process, on the bundled
scenarios and on the benchmark workloads at seeds 1 and 2, using the source
tree of the ductflow checkout at ROOT (default: the one holding this script).
Prints one line per run: the name, the exit code and a sha256 prefix of each
deterministic output.

With a second checkout OTHER, the same runs are made on both source trees
(the workload scenarios of ROOT are used for both) and only the lines that
differ are printed, ROOT's prefixed with "-" and OTHER's with "+". The exit
code is 1 if any line differs and 0 if none does, so a refactor that must
not change results is checked by one command against a copy of its parent.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = ("timeseries.csv", "certificates.txt", "certificates.json", "basis_manifest.txt")
SEEDS = (1, 2)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.is_file() else "-" * 12


def digest_lines(root: Path, workloads: list, work: Path, base_env: dict) -> dict:
    """{run name: digest line} of the bundled scenarios of root and the given
    workload scenarios, run on the source tree of root."""
    env = dict(base_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = [(p.stem, p) for p in sorted((root / "src/ductflow/scenarios").glob("*.scn"))] + workloads
    work.mkdir()
    lines = {}
    for name, scenario in runs:
        out = work / "out" / name
        rc = subprocess.run(
            [sys.executable, "-m", "ductflow.cli", "run", str(scenario), "--out", str(out), "--strict"],
            env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        lines[name] = " ".join([name, f"rc={rc}", *(f"{f}={digest(out / f)}" for f in FILES)])
    return lines


def main() -> int:
    default = Path(__file__).resolve().parents[1]
    roots = [Path(arg).resolve() for arg in sys.argv[1:3]] or [default]
    # the benchmark's workload generators and child environment, used as they are
    sys.path.insert(0, str(roots[0] / "perfbench"))
    from run import COMMON, WORKLOADS, child_env

    with tempfile.TemporaryDirectory(prefix="ductflow-digest-") as tmp:
        work = Path(tmp)
        workloads = []
        for name, make in WORKLOADS.items():
            for seed in SEEDS:
                scenario = work / f"{name}-seed{seed}.scn"
                scenario.write_text(COMMON + make(random.Random(f"{name}:{seed}")))
                workloads.append((scenario.stem, scenario))
        digests = [digest_lines(root, workloads, work / str(i), child_env()) for i, root in enumerate(roots)]
    if len(digests) == 1:
        print(*digests[0].values(), sep="\n")
        return 0
    ours, theirs = digests
    differ = 0
    for name in sorted(ours.keys() | theirs.keys()):
        if ours.get(name) != theirs.get(name):
            differ += 1
            print(f"- {ours.get(name, name + ' (absent)')}")
            print(f"+ {theirs.get(name, name + ' (absent)')}")
    print(f"{len(ours.keys() | theirs.keys())} runs, {differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

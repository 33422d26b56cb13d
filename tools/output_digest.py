"""Digest of every deterministic output of ductflow, for byte-identity checks.

    python3 tools/output_digest.py [ROOT]

Runs `ductflow run --strict`, each in a fresh process, on the bundled
scenarios and on the benchmark workloads at seeds 1 and 2, using the source
tree of the ductflow checkout at ROOT (default: the one holding this script).
Prints one line per run: the name, the exit code and a sha256 prefix of each
deterministic output. A refactor that must not change results prints the
same lines before and after; compare them with diff.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = ("timeseries.csv", "certificates.txt", "certificates.json", "basis_manifest.txt")
SEEDS = (1, 2)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:12] if path.is_file() else "-" * 12


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]).resolve()
    # the benchmark's workload generators and child environment, used as they are
    sys.path.insert(0, str(root / "perfbench"))
    from run import COMMON, WORKLOADS, child_env

    env = child_env()
    with tempfile.TemporaryDirectory(prefix="ductflow-digest-") as tmp:
        work = Path(tmp)
        runs = [(p.stem, p) for p in sorted((root / "src/ductflow/scenarios").glob("*.scn"))]
        for name, make in WORKLOADS.items():
            for seed in SEEDS:
                scenario = work / f"{name}-seed{seed}.scn"
                scenario.write_text(COMMON + make(random.Random(f"{name}:{seed}")))
                runs.append((scenario.stem, scenario))
        for name, scenario in runs:
            out = work / "out" / name
            rc = subprocess.run(
                [sys.executable, "-m", "ductflow.cli", "run", str(scenario), "--out", str(out), "--strict"],
                env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            print(name, f"rc={rc}", *(f"{f}={digest(out / f)}" for f in FILES))
    return 0


if __name__ == "__main__":
    sys.exit(main())

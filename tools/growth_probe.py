"""How set-up time, lifting time, step time and peak memory grow with m.

    python3 tools/growth_probe.py --m 64 128 256 [--grid 16 16 32]
        [--scenario NAME] [--src DIR]

For each m, in a fresh process with one BLAS thread, the probe builds a
`GalerkinSolver` for the bundled scenario NAME (default free-decay) with
that m on the given grid (the set-up time), builds its lifting couplings
(the lifting time: the first `solver.couplings`, 0 without flux), steps it
STEPS times from its initial row as the run loop does, each step written
into the next row of a trajectory and handed the explicit part the step
before returned (the mean step time), and reads the process's peak
resident set size. The sizes run one after another, so no two probes
share the machine. It prints one Markdown table row per size:
m, grid, set-up, lifting, step, peak RSS. A size whose process fails gets a
`failed` row, and the probe then exits 1.

--src names the `src/` directory to import ductflow from (default: the one
of the checkout holding this script), so one command measures another
checkout, such as a copy of a parent commit, the same way, if its
`GalerkinSolver.step(x, drive, out, E_prev)` steps a row and returns its
explicit part as here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
STEPS = 20


def probe(m: int, grid: list[int], scenario: str) -> dict:
    """Set-up, lifting and mean step time and peak RSS of one size, in this
    process."""
    import dataclasses
    import resource
    import time

    import numpy as np

    from ductflow.scenario import bundled_scenario_path, load_scenario
    from ductflow.solver import GalerkinSolver

    cfg = dataclasses.replace(
        load_scenario(bundled_scenario_path(scenario)), m=m, N1=grid[0], N2=grid[1], N3=grid[2]
    )
    t0 = time.perf_counter()
    solver = GalerkinSolver(cfg)
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    lifting = 0.0
    if solver.hopf_params is not None:
        solver.couplings
        lifting = time.perf_counter() - t0
    X = np.empty((STEPS + 1, cfg.m + solver.tb.m))
    X[0] = solver.initial_state()
    drive = solver.drive(np.arange(STEPS + 1) * cfg.dt)
    E = None
    t0 = time.perf_counter()
    for n in range(STEPS):
        E = solver.step(X[n], drive[n], X[n + 1], E)
    step = (time.perf_counter() - t0) / STEPS
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return dict(m=m, setup_s=setup, lifting_ms=1e3 * lifting, step_ms=1e3 * step, peak_rss_mb=rss)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", required=True, help="mode counts, one process each")
    ap.add_argument("--grid", type=int, nargs=3, default=[16, 16, 32], metavar=("N1", "N2", "N3"))
    ap.add_argument("--scenario", default="free-decay", help="bundled scenario name")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if min(args.m) < 1 or min(args.grid) < 1:
        ap.error("--m and --grid must be positive")
    if args.child:
        print(json.dumps(probe(args.m[0], args.grid, args.scenario)))
        return 0

    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()))
    env.update({var: "1" for var in THREAD_VARS})
    grid = "×".join(str(n) for n in args.grid)
    print("| m | grid | set-up | lifting | step | peak RSS |")
    print("| --- | --- | --- | --- | --- | --- |")
    failed = False
    for m in args.m:
        cmd = [sys.executable, __file__, "--child", "--m", str(m), "--grid", *map(str, args.grid),
               "--scenario", args.scenario]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if out.returncode != 0:
            err = out.stderr.strip().splitlines()
            print(f"| {m} | {grid} | failed: {err[-1] if err else out.returncode} | | | |")
            failed = True
            continue
        r = json.loads(out.stdout)
        print(f"| {m} | {grid} | {r['setup_s']:.3f} s | {r['lifting_ms']:.1f} ms | {r['step_ms']:.2f} ms "
              f"| {r['peak_rss_mb']:.0f} MB |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

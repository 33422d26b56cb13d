"""One benchmark run in a fresh process.

    python3 perfbench/child.py SCENARIO OUT_DIR RESULT_JSON TRACE

Times one `GalerkinSolver` construction (the set-up time, first in the fresh
process as a user pays it), then one `ductflow run SCENARIO --out OUT_DIR
--strict` call in-process (the time to certificate). Before, between and
after the two, it times a fixed reference kernel (`speed_probe`), so the
driver can tell how fast the machine was at the time. It writes timings,
peak memory, the exit code and the environment to RESULT_JSON. With TRACE = 1 the run is traced and its spans
are written there too. The driver, run.py, starts this script with `src/` on
PYTHONPATH and the BLAS thread variables set.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

from layers import ROOT_SPAN, Tracer

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def speed_probe() -> float:
    """Seconds for fixed interpreter and small-array numpy work (~50 ms).

    The mix is that of a ductflow step: Python bookkeeping around einsum
    contractions on cache-resident arrays. It never calls ductflow, so no
    change to the program moves it; only the speed of the machine does.
    """
    import numpy

    a = numpy.linspace(0.0, 1.0, 16 * 3 * 2048).reshape(16, 3, 2048)
    c = numpy.ones(16)
    t0 = time.perf_counter()
    s = 0
    for k in range(600_000):
        s += k
    for _ in range(600):
        numpy.einsum("i,icg->cg", c, a)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    scenario, out_dir, result_path, trace = argv
    from ductflow import cli
    from ductflow.scenario import load_scenario
    from ductflow.solver import GalerkinSolver

    config = load_scenario(scenario)
    probe_s = [speed_probe()]
    t0 = time.perf_counter()
    solver = GalerkinSolver(config)
    setup_s = time.perf_counter() - t0
    del solver
    probe_s.append(speed_probe())

    run = cli.main
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
        run = tracer.span(ROOT_SPAN, cli.main)
    t0 = time.perf_counter()
    rc = run(["run", scenario, "--out", out_dir, "--strict"])
    run_wall_s = time.perf_counter() - t0
    probe_s.append(speed_probe())

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "probe_s": probe_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "traced": tracer is not None,
        "spans": tracer.spans if tracer else None,
        "absent": tracer.absent if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

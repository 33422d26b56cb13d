"""Spans around ductflow's layer boundaries, recorded from outside the package.

`Tracer.install` replaces each boundary in `BOUNDARIES` with a wrapper that
appends one span `[name, start, end, parent]` to an in-memory list; the list
is written out once, when the traced run ends. `layer_metrics` turns the
spans of several traced runs into the per-layer figures of BENCHMARK.json.

Only the standard library is used here, so the driver can import this file
without importing numpy or ductflow.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# span name -> use sites "module:attribute" (an attribute may be Class.method).
# Names the solver imports directly are patched where the solver looks them
# up, so a call through the imported name is seen. A span name whose sites
# are all missing (a later refactor removed the boundary) is reported absent.
BOUNDARIES = {
    "basis.velocity_basis": ("ductflow.solver:build_velocity_basis",),
    "basis.temperature_basis": ("ductflow.solver:build_temperature_basis",),
    # the dataclass constructor, not the assemble_forms wrapper around it
    "basis.forms": ("ductflow.basis:AssembledForms.__init__",),
    "basis.delta_matrices": ("ductflow.basis:AssembledForms.delta_matrices",),
    "basis.boundary_functionals": ("ductflow.basis:AssembledForms.boundary_functionals",),
    "solver.lifting": ("ductflow.solver:DeltaProvider.__call__",),
    "solver.run_windows": ("ductflow.solver:GalerkinSolver.run_windows",),
    "solver.step": ("ductflow.solver:GalerkinSolver.step",),
    "solver.sample": ("ductflow.solver:GalerkinSolver._sample",),
    "hopf.build_b": ("ductflow.hopf:build_b",),
    "hopf.b_on_face": ("ductflow.hopf:b_on_face",),
    "hopf.flux_norms": ("ductflow.solver:flux_norms",),
    "poisson.solve_neumann": ("ductflow.poisson:solve_neumann",),
    "poisson.face_synth": ("ductflow.poisson:grad_on_face", "ductflow.poisson:hess_on_face"),
    "spectral.axes_for": ("ductflow.spectral:axes_for",),
    # both places that may decide to run the companion
    "audit.run_calibration": ("ductflow.cli:run_calibration", "ductflow.audit:run_calibration"),
    "audit.audit_run": ("ductflow.cli:audit_run",),
    "cli.execute": ("ductflow.cli:execute",),
}

ROOT_SPAN = "cli.main"
# Spans under the calibration companion describe the companion, not the
# scenario's own run; only the companion's total is reported.
COMPANION = "audit.run_calibration"

# (metric, unit, kind, span): how each per-layer figure is derived
#   count     spans per traced run (identical in every traced run)
#   ms_p50/99 percentile of the span durations pooled over the traced runs
#   self_p50  the same for self time (duration minus child spans)
#   s_total   sum of the durations in one run, median over the traced runs
LAYER_METRICS = [
    ("basis.delta_matrices.ms_p50", "ms", "ms_p50", "basis.delta_matrices"),
    ("basis.delta_matrices.count", "count", "count", "basis.delta_matrices"),
    ("basis.boundary_functionals.ms_p50", "ms", "ms_p50", "basis.boundary_functionals"),
    ("basis.boundary_functionals.count", "count", "count", "basis.boundary_functionals"),
    ("solver.lifting.calls", "count", "count", "solver.lifting"),
    ("solver.lifting.s_total", "s", "s_total", "solver.lifting"),
    ("hopf.build_b.count", "count", "count", "hopf.build_b"),
    ("hopf.build_b.ms_p50", "ms", "ms_p50", "hopf.build_b"),
    ("hopf.b_on_face.count", "count", "count", "hopf.b_on_face"),
    ("poisson.solve_neumann.count", "count", "count", "poisson.solve_neumann"),
    ("poisson.solve_neumann.ms_p50", "ms", "ms_p50", "poisson.solve_neumann"),
    ("poisson.face_synth.count", "count", "count", "poisson.face_synth"),
    ("spectral.axes_for.count", "count", "count", "spectral.axes_for"),
    ("solver.run_windows.s", "s", "s_total", "solver.run_windows"),
    ("solver.step.ms_p50", "ms", "ms_p50", "solver.step"),
    ("solver.step.ms_p99", "ms", "ms_p99", "solver.step"),
    ("solver.step.count", "count", "count", "solver.step"),
    ("solver.step.self_ms_p50", "ms", "self_p50", "solver.step"),
    ("solver.sample.ms_p50", "ms", "ms_p50", "solver.sample"),
    ("solver.sample.count", "count", "count", "solver.sample"),
    ("hopf.flux_norms.count", "count", "count", "hopf.flux_norms"),
    ("hopf.flux_norms.s_total", "s", "s_total", "hopf.flux_norms"),
    ("basis.velocity_basis.s", "s", "s_total", "basis.velocity_basis"),
    ("basis.temperature_basis.s", "s", "s_total", "basis.temperature_basis"),
    ("basis.forms.s", "s", "s_total", "basis.forms"),
    ("audit.run_calibration.s", "s", "s_total", "audit.run_calibration"),
    ("audit.audit_run.s", "s", "s_total", "audit.audit_run"),
]
# derived in layer_metrics / by the driver rather than from one span name
WRITERS_METRIC = ("cli.writers.s", "s")
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio")


def _resolve(site: str):
    """(owner, attribute name, current value) for a use site, or None if gone."""
    module_name, _, dotted = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # read a class attribute from the class dict, so a method is not bound
    value = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Records spans once installed; one instance per traced run, which ends
    with its process, so the patched names are never restored."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        wrapped = {}  # id(original) -> wrapper, so a re-exported name is wrapped once
        for name, sites in BOUNDARIES.items():
            found = False
            for site in sites:
                resolved = _resolve(site)
                if resolved is None:
                    continue
                owner, attr, original = resolved
                setattr(owner, attr, wrapped.setdefault(id(original), self.span(name, original)))
                found = True
            if not found:
                self.absent.append(name)


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _run_tables(spans: list[list]):
    """Durations and self times per span name, leaving out the spans inside the
    companion, and the writer time: from `cli.execute` returning to the end."""
    n = len(spans)
    child_time = [0.0] * n
    in_companion = [False] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            in_companion[i] = in_companion[parent] or spans[parent][0] == COMPANION
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        if in_companion[i]:
            continue
        durations.setdefault(name, []).append(end - start)
        selfs.setdefault(name, []).append(end - start - child_time[i])
    root_end = max((s[2] for s in spans if s[0] == ROOT_SPAN), default=None)
    exec_end = max((s[2] for s in spans if s[0] == "cli.execute"), default=None)
    writers = root_end - exec_end if root_end is not None and exec_end is not None else 0.0
    return durations, selfs, writers


def span_counts(spans: list[list]) -> dict[str, int]:
    """Spans per name outside the companion; these must repeat exactly."""
    return {name: len(durs) for name, durs in _run_tables(spans)[0].items()}


def layer_metrics(runs: list[list[list]]) -> dict:
    """Per-layer figures over several traced runs (at least one)."""
    tables = [_run_tables(spans) for spans in runs]
    metrics = {}
    for metric, unit, kind, span in LAYER_METRICS:
        pooled = [d for durations, _, _ in tables for d in durations.get(span, [])]
        if kind == "count":
            value = len(tables[0][0].get(span, []))
        elif kind == "ms_p50":
            value = 1e3 * _percentile(pooled, 0.50)
        elif kind == "ms_p99":
            value = 1e3 * _percentile(pooled, 0.99)
        elif kind == "self_p50":
            value = 1e3 * _percentile(
                [d for _, selfs, _ in tables for d in selfs.get(span, [])], 0.50
            )
        else:  # s_total
            value = statistics.median(sum(durations.get(span, [])) for durations, _, _ in tables)
        metrics[metric] = {"value": value, "unit": unit}
    name, unit = WRITERS_METRIC
    metrics[name] = {"value": statistics.median(w for _, _, w in tables), "unit": unit}
    return metrics

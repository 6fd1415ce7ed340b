"""Per-layer spans recorded from outside the program.

``Tracer`` replaces module attributes of presstopo (and ``scipy.sparse.
linalg.splu``, which ``darcy`` and ``elasticity`` reach as ``spla.splu``) by
wrappers that record a span per call: name, start, end and the enclosing
span.  Spans stay in memory; ``layer_metrics`` reduces them when the run
ends.  A span's self time is its duration minus the time of its child spans.
Optimisation iterations are not functions of the driver, so their windows
come from the ``progress`` callback timestamps.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter
from pathlib import Path

import scipy.sparse.linalg as spla

from presstopo import (_element_data, adjoint, darcy, driver, elasticity,
                       fields, honeymesh, outputs)

_FACTOR_OWNER = {"darcy.solve_pressure": "darcy.factor",
                 "elasticity.solve_displacements": "elasticity.factor"}


def _written_bytes(paths):
    return sum(Path(p).stat().st_size for p in paths)


# (owner, attribute, span name, value recorded from the return value)
TARGETS = (
    (driver, "build_problem", "driver.build_problem", None),
    (honeymesh, "generate_mesh", "honeymesh.generate_mesh", None),
    (fields, "build_filter", "fields.build_filter", lambda f: f.H.nnz),
    # mesh_integrals() is a cache lookup; the tables are built by the class
    (_element_data, "MeshIntegrals", "element_data.mesh_integrals", None),
    (driver, "make_design", "driver.make_design", None),
    (driver, "analyze", "driver.analyze", None),
    (darcy, "assemble_flow", "darcy.assemble_flow", None),
    (darcy, "solve_pressure", "darcy.solve_pressure", None),
    (elasticity, "assemble_stiffness", "elasticity.assemble_stiffness", None),
    (elasticity, "solve_displacements", "elasticity.solve_displacements", None),
    (spla, "splu", None, lambda lu: lu.nnz),
    (adjoint, "compliance_sensitivity", "adjoint.compliance_sensitivity", None),
    (driver, "mma_update", "mma.mma_update", None),
    (outputs, "write_outputs", "outputs.write_outputs", _written_bytes),
)

# per-call median self time, reported as <name>_s
TIMED = ("driver.build_problem", "honeymesh.generate_mesh", "fields.build_filter",
         "element_data.mesh_integrals", "driver.make_design",
         "darcy.assemble_flow", "elasticity.assemble_stiffness",
         "darcy.solve_pressure", "elasticity.solve_displacements",
         "darcy.factor", "elasticity.factor", "adjoint.compliance_sensitivity",
         "mma.mma_update", "driver.analyze", "outputs.write_outputs")
# per-call median of the value recorded from the return value
COUNTED = {"fields.filter_nnz": "fields.build_filter",
           "darcy.lu_nnz": "darcy.factor",
           "elasticity.lu_nnz": "elasticity.factor",
           "outputs.bytes": "outputs.write_outputs"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "value")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = self.children_s = 0.0
        self.value = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.children_s


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, value in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, value))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, original, name, value):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_name = name or _FACTOR_OWNER.get(
                parent.name if parent else None, "splu")
            span = Span(span_name, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.children_s += span.duration
            if value is not None:
                span.value = value(out)
            return out
        # updated=(): a class (MeshIntegrals) has no __dict__ to merge
        return functools.update_wrapper(traced, original, updated=())


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def span_cost(calls=20000, repeats=5):
    """Seconds one span adds to a call: a traced no-op against the bare no-op."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop", None)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - mid) - (mid - start))
    return _median(costs) / calls


def layer_metrics(spans, windows, iterations, step_s, cost):
    """Per-layer metrics from the spans of the traced rounds.

    ``windows`` are the (start, end) times of the steps: the optimisation
    iterations after the first when ``iterations`` is true, else the rounds.
    ``step_s`` is the traced figure that ``iter_s`` reports, and ``cost``
    the seconds one span adds (``span_cost``).
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    metrics = {}
    for name in TIMED:
        metrics[f"{name}_s"] = (_median([s.self_s for s in by_name.get(name, [])]), "s")
    for metric, name in COUNTED.items():
        metrics[metric] = (_median([s.value for s in by_name.get(name, [])]), "count")

    # the spans inside each step window; the top-level ones are its children
    per_step = [[s for s in spans if lo <= s.start and s.end <= hi]
                for lo, hi in windows]
    step_self = [(hi - lo) - sum(s.duration for s in step if s.parent is None)
                 for (lo, hi), step in zip(windows, per_step)]
    iteration_self = _median(step_self) if iterations else 0.0
    metrics["driver.iteration_self_s"] = (iteration_self, "s")

    calls = Counter(s.name for step in per_step for s in step)
    n_steps = max(len(windows), 1)
    # factorizations per iteration, or per analysis where there are no iterations
    per = n_steps if iterations else max(calls["driver.analyze"], 1)
    for module in ("darcy", "elasticity"):
        metrics[f"{module}.factorizations"] = (calls[f"{module}.factor"] / per, "count")

    # per-call medians times calls per step, plus the step's own time
    rebuilt = iteration_self + sum(
        _median([s.self_s for s in by_name[name]]) * n / n_steps
        for name, n in calls.items())
    window_s = _median([hi - lo for lo, hi in windows])
    metrics["trace.iter_s"] = (step_s, "s")
    # comparing traced with untraced rounds measures the drift in machine
    # speed between them more than the spans, so the spans' cost is counted
    spans_per_step = sum(calls.values()) / n_steps
    metrics["trace.overhead_pct"] = (100.0 * cost * spans_per_step / window_s, "%")
    metrics["trace.accounted_pct"] = (100.0 * rebuilt / window_s, "%")
    return metrics

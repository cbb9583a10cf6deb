"""In-memory spans around calls into fpf_lab, and the per-layer metrics
computed from them.

Spans are recorded from outside the package: `instrumented` replaces a
function at the attribute its caller looks it up (a module global, a class
attribute) with a wrapper that records one span per call, and puts the
original back on exit. Nothing under src/ changes.

A span is (id, parent id, name, unit id, start, end, counts). Spans opened
on a worker thread whose own stack is empty take the main thread's
innermost open span as parent, so the compare pool's run_filter calls
nest under cli.cmd_compare. Self time is a span's duration minus the part
of its interval covered by the union of its children, so overlapping
children from several threads are not subtracted twice.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np


class Span(NamedTuple):
    id: int
    parent: int          # 0 = no parent
    name: str
    unit: int            # workload unit (one timed program call) it ran in
    start: float
    end: float
    counts: Optional[Tuple[Tuple[str, float], ...]] = None


class Tracer:
    """Collects spans from every thread. list.append is atomic under the
    interpreter lock, so recording needs no lock of its own; spans are
    stored as plain tuples, which keeps the garbage collector's work and
    so the tracing overhead small."""

    def __init__(self):
        self.spans: List[tuple] = []     # rows in Span field order
        self.unit = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[Tuple[int, str]] = []
        self._local.stack = self._main_stack

    def _stack(self) -> List[Tuple[int, str]]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _parent(self, stack: List[Tuple[int, str]]) -> Tuple[int, str]:
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0, ""

    def wrap(self, fn: Callable, name, count: Optional[Callable] = None):
        """Return fn recording a span per call.

        name is a string or a function of the call's positional arguments;
        count(args, result, parent name) returns a tuple of (counter,
        value) pairs stored on the span, or None.
        """
        perf_counter = time.perf_counter
        record = self.spans.append
        ids = self._ids

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            stack = self._stack()
            parent, parent_label = self._parent(stack)
            sid = next(ids)
            stack.append((sid, label))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            counts = (count(args, result, parent_label)
                      if count is not None else None)
            record((sid, parent, label, self.unit, start, end, counts))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def unit_span(self, unit: int):
        """Root span of one workload unit; module spans nest below it."""
        self.unit = unit
        sid = next(self._ids)
        self._main_stack.append((sid, "unit"))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._main_stack.pop()
            self.spans.append((sid, 0, "unit", unit, start, end, None))

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            for s in self.spans:
                counts = ";".join(f"{k}={v:g}" for k, v in s[6] or ())
                writer.writerow([*s[:4], f"{s[4]:.9f}", f"{s[5]:.9f}",
                                 counts])


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(children[s.id], s.start, s.end)
            for s in spans}


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _file_bytes(args, result, _parent):
    return (("bytes", os.path.getsize(args[0])),)


def _rng_count(args, result, parent):
    # standard_normal draws its uniforms through uniform01: count only the
    # variates handed to callers outside rng
    if parent.startswith("rng."):
        return None
    return (("draws", result.size),)


def _galerkin_count(args, result, _parent):
    n, d = args[0].shape
    # psi, its gradient, and the second and third partials: C(d+3, 3)
    # monomial evaluations per (particle, basis function)
    return (("basis_evals", n * len(result.exponents) * comb(d + 3, 3)),)


def _admissible_count(args, result, _parent):
    flags = result[0]
    return (("particles", len(flags)), ("flagged", int(flags.sum())))


def _kde_count(args, result, _parent):
    return (("kernel_evals", np.size(args[0]) * np.size(args[1])),)


def _bpf_count(args, result, _parent):
    return (("resamples", int(result[2])),)


def _suite_count(args, result, _parent):
    return (("checks", len(result)),
            ("failed", sum(not r.passed for r in result)))


def _public_methods(cls) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value)
                 or isinstance(value, (classmethod, staticmethod)))]


def plan() -> List[Tuple[object, str, object, Optional[Callable]]]:
    """(owner, attribute, span name, counter) for every wrapped call site.

    Each owner is the object the caller looks the name up on: a module's
    globals for module functions, the class for methods.
    """
    from fpf_lab import (cli, fields, filter as filt, gain, grid, identities,
                         model, reference, rng, sde, verify)
    sites = [
        (rng, "standard_normal", "rng.standard_normal", _rng_count),
        (rng, "uniform01", "rng.uniform01", _rng_count),
        (filt, "euler_maruyama_step", "sde.euler_maruyama_step", None),
        (reference, "euler_maruyama_step", "sde.euler_maruyama_step", None),
        (sde, "euler_maruyama_step", "sde.euler_maruyama_step", None),
        (cli, "simulate_truth", "sde.simulate_truth", None),
        (cli, "synthesize_observations", "sde.synthesize_observations", None),
        (cli, "write_truth_csv", "sde.csv", _file_bytes),
        (cli, "write_observations_csv", "sde.csv", _file_bytes),
        (cli, "read_observations_csv", "sde.csv", _file_bytes),
        (filt, "ensemble_stats", "model.ensemble_stats", None),
        (filt, "sample_initial_ensemble", "model.sample_initial_ensemble",
         None),
        (cli, "sample_initial_ensemble", "model.sample_initial_ensemble",
         None),
        (cli, "validate_model", "model.validate_model", None),
        (model.SdeModel, "obs_grad_at", "model.obs_grad_at", None),
        (filt, "compute_gain", "gain.compute_gain", None),
        (gain, "exact_gain", "gain.exact", None),
        (gain, "constant_gain", "gain.constant", None),
        (gain, "galerkin_gain", "gain.galerkin", _galerkin_count),
        (filt, "check_admissible", "gain.check_admissible",
         _admissible_count),
        (filt, "fpf_step", "filter.fpf_step", None),
        (filt, "run_filter", "filter.run_filter", None),
        (cli, "run_filter", "filter.run_filter", None),
        (cli, "kalman_bucy_step", "reference.kalman_bucy_step", None),
        (cli, "bootstrap_pf_step", "reference.bootstrap_pf_step", _bpf_count),
        (cli, "weighted_stats", "reference.weighted_stats", None),
        (cli, "kushner_grid_step", "reference.kushner_grid_step", None),
        (reference, "fokker_planck_substeps",
         "reference.fokker_planck_substeps", None),
        (reference, "bayes_update_on_grid", "reference.bayes_update_on_grid",
         None),
        (grid.GridDensity, "mean", "grid.moments", None),
        (grid.GridDensity, "var", "grid.moments", None),
        (cli, "kde_density", "divergence.kde_density", _kde_count),
        (cli, "f_divergence_grid", "divergence.f_divergence", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
        (cli, "cmd_compare", "cli.cmd_compare", None),
        (verify, "run_suite", lambda args: f"verify.{args[0]}",
         _suite_count),
    ]
    # identity checks as verify looks them up, and every public method of
    # the probe-field classes they evaluate
    for name, value in vars(verify).items():
        if inspect.isfunction(value) and value.__module__ == identities.__name__:
            sites.append((verify, name, "identities", None))
    for cls in (fields.Polynomial, fields.PolyScalarField,
                fields.PolyVectorField, fields.ExpPolyDensity):
        for name in _public_methods(cls):
            sites.append((cls, name, "fields", None))
    sites.append((identities, "fd_grad", "fields", None))
    return sites


@contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers at every site of `plan`; restore on exit."""
    saved = []
    try:
        for owner, attr, name, count in plan():
            raw = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(raw.__func__, name, count))
            else:
                wrapped = tracer.wrap(raw, name, count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SUITES = ("piola", "appendixB", "lm2", "el-invariance", "poincare", "lemmaD",
          "taylor")

# (metric, unit, better, how, span selector). how is "self" (summed self
# time), "calls" (number of spans) or a counter key; a selector ending in
# "." matches every span name with that prefix. Values are per pass.
LAYER_METRICS = [
    ("rng.draws", "count", "lower", "draws", "rng."),
    ("rng.self_s", "s", "lower", "self", "rng."),
    ("sde.euler_maruyama_step.self_s", "s", "lower", "self",
     "sde.euler_maruyama_step"),
    ("model.ensemble_stats.self_s", "s", "lower", "self",
     "model.ensemble_stats"),
    ("model.obs_grad_at.self_s", "s", "lower", "self", "model.obs_grad_at"),
    ("gain.exact.self_s", "s", "lower", "self", "gain.exact"),
    ("gain.galerkin.self_s", "s", "lower", "self", "gain.galerkin"),
    ("gain.galerkin.calls", "count", "lower", "calls", "gain.galerkin"),
    ("gain.galerkin.basis_evals", "count", "lower", "basis_evals",
     "gain.galerkin"),
    ("gain.check_admissible.self_s", "s", "lower", "self",
     "gain.check_admissible"),
    ("gain.check_admissible.particles", "count", "lower", "particles",
     "gain.check_admissible"),
    ("gain.flagged", "count", "lower", "flagged", "gain.check_admissible"),
    ("filter.fpf_step.self_s", "s", "lower", "self", "filter.fpf_step"),
    ("filter.run_filter.calls", "count", "lower", "calls",
     "filter.run_filter"),
    ("reference.fokker_planck_substeps.self_s", "s", "lower", "self",
     "reference.fokker_planck_substeps"),
    ("reference.bayes_update_on_grid.self_s", "s", "lower", "self",
     "reference.bayes_update_on_grid"),
    ("reference.kushner_grid_step.calls", "count", "lower", "calls",
     "reference.kushner_grid_step"),
    ("grid.moments.self_s", "s", "lower", "self", "grid.moments"),
    ("reference.bootstrap_pf_step.self_s", "s", "lower", "self",
     "reference.bootstrap_pf_step"),
    ("reference.resamples", "count", "lower", "resamples",
     "reference.bootstrap_pf_step"),
    ("reference.kalman_bucy_step.self_s", "s", "lower", "self",
     "reference.kalman_bucy_step"),
    ("divergence.kde_density.self_s", "s", "lower", "self",
     "divergence.kde_density"),
    ("divergence.kde_density.kernel_evals", "count", "lower", "kernel_evals",
     "divergence.kde_density"),
    ("divergence.f_divergence.self_s", "s", "lower", "self",
     "divergence.f_divergence"),
    ("sde.csv.self_s", "s", "lower", "self", "sde.csv"),
    ("sde.csv.bytes", "count", "lower", "bytes", "sde.csv"),
    ("config.load_config.self_s", "s", "lower", "self", "config.load_config"),
    ("cli.cmd_compare.self_s", "s", "lower", "self", "cli.cmd_compare"),
] + [(f"verify.{suite}.self_s", "s", "lower", "self", f"verify.{suite}")
     for suite in SUITES] + [
    ("identities.self_s", "s", "lower", "self", "identities"),
    ("fields.self_s", "s", "lower", "self", "fields"),
    ("verify.checks", "count", "higher", "checks", "verify."),
    ("verify.failed", "count", "lower", "failed", "verify."),
    ("unattributed.self_s", "s", "lower", "self", "unit"),
]

# computed in layer_metrics / by the runner rather than summed over spans
DERIVED_METRICS = [
    ("rng.ns_per_draw", "ns", "lower"),
    ("cli.fpf_concurrency", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _matches(name: str, selector: str) -> bool:
    if selector.endswith("."):
        return name.startswith(selector)
    return name == selector


def layer_metrics(spans: Sequence[Span], n_passes: int) -> Dict[str, float]:
    """Every LAYER_METRICS value and the span-derived DERIVED_METRICS,
    averaged per pass; metrics of layers a workload never calls read 0."""
    spans = [Span._make(s) for s in spans]
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for metric, _unit, _better, how, selector in LAYER_METRICS:
        total = 0.0
        for s in spans:
            if not _matches(s.name, selector):
                continue
            if how == "self":
                total += selfs[s.id]
            elif how == "calls":
                total += 1
            elif s.counts:
                total += dict(s.counts).get(how, 0)
        out[metric] = total / n_passes
    out["rng.ns_per_draw"] = (1e9 * out["rng.self_s"] / out["rng.draws"]
                              if out["rng.draws"] else 0.0)
    out["cli.fpf_concurrency"] = fpf_concurrency(spans)
    out["trace.spans"] = len(spans) / n_passes
    return out


def fpf_concurrency(spans: Sequence[Span]) -> float:
    """Summed run_filter time inside cmd_compare over the wall time of the
    compare's FPF phase (first run_filter start to last end); 0 without a
    compare."""
    compares = {s.id for s in spans if s.name == "cli.cmd_compare"}
    phases: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.name == "filter.run_filter" and s.parent in compares:
            phases[s.parent].append(s)
    busy = sum(s.end - s.start for runs in phases.values() for s in runs)
    wall = sum(max(s.end for s in runs) - min(s.start for s in runs)
               for runs in phases.values())
    return busy / wall if wall > 0 else 0.0

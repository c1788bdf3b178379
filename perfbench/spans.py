"""Spans for the traced benchmark run, and their per-layer summary.

Child side: `install` wraps the public functions of the covrecon layer
modules (and `KlOracle.tail_sq`) so that a call records a span: name, start,
end and parent.  The functions named in TIMED always record one; any other
function records one only when called from another module, so a call a
module makes to its own helpers (such as `fields.sample_generators` inside
`draw_batch`) counts towards its caller's self time.  A few functions also
attach computed counts derived from their arguments or results.  Spans are
held in memory and written once, by the caller, when the process ends.

Parent side: `summarize` turns the spans of one traced process into the
per-layer metrics named in LAYER_METRICS.  Only the standard library is used
here, so run.py can import this module without numpy.
"""

import functools
import importlib
import inspect
import sys
import time

LAYER_MODULES = ("fields", "fem", "estimators", "spectral", "mercer",
                 "planner", "artifacts")

# Spans reported one by one as calls / busy_s / self_s.
TIMED = ("fields.draw_batch", "fields.tail_sq", "fem.assemble_mass",
         "fem.kernel_l2_norm", "fem.basis_matrix",
         "mercer.error_decomposition", "mercer.run_cell",
         "spectral.transform", "spectral.eigensolve", "spectral.diagnostics",
         "spectral.align_signs", "estimators.estimate_covariance",
         "planner.p0_bound")

# Counts derived from arguments and results; each repeats exactly for a
# given workload and seed, so a later change can cite it as a count.
COMPUTED = {
    "fields.draw_batch.samples": "count",
    "fields.draw_batch.normals": "count",
    "fields.tail_sq.useful_ratio": "ratio",
    "fem.assemble_mass.useful_ratio": "ratio",
    "fem.kernel_l2_norm.kernel_evals": "count",
    "spectral.eigensolve.dof_cubed": "count",
    "spectral.eigensolve.exact_per_mesh": "ratio",
    "artifacts.bytes_written": "bytes",
}


def _metric_units():
    units = {}
    for name in TIMED:
        units[name + ".calls"] = "count"
        units[name + ".busy_s"] = "s"
        units[name + ".self_s"] = "s"
    units.update({"artifacts.calls": "count", "artifacts.busy_s": "s",
                  "artifacts.self_s": "s", "cli.self_s": "s",
                  "other.self_s": "s"})
    units.update(COMPUTED)
    units.update({"trace.spans": "count", "trace.run_s": "s",
                  "trace.untraced_run_s": "s", "trace.overhead_s": "s"})
    return units


LAYER_METRICS = _metric_units()


# ---------------------------------------------------------------------------
# child side


class Recorder:
    """In-memory span list: [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[4] = count(fn, args, kwargs, result)
        return result


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _mesh_key(mesh):
    return "d%d-n%d" % (mesh.dim, mesh.elements_per_axis)


def _count_draw(fn, args, kwargs, batch):
    mesh = batch.space.mesh
    per_sample = (batch.kl_trunc if batch.kl_trunc is not None
                  else mesh.elements_per_axis ** mesh.dim)
    return {"samples": batch.sample_count,
            "normals": batch.sample_count * per_sample}


def _count_tail(fn, args, kwargs, result):
    return {"key": "L%d" % (int(_bound(fn, args, kwargs)["L"]),)}


def _count_mass(fn, args, kwargs, mass):
    return {"key": _mesh_key(mass.space.mesh)}


def _count_kernel_norm(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    mesh = a["space"].mesh
    points = (mesh.elements_per_axis * int(a["q"])) ** mesh.dim
    return {"kernel_evals": points * points}


def _count_eigensolve(fn, args, kwargs, spec):
    return {"dof_cubed": spec.dof_count ** 3, "source": spec.source,
            "key": _mesh_key(spec.mass.space.mesh)}


_COUNTERS = {"fields.draw_batch": _count_draw,
             "fields.tail_sq": _count_tail,
             "fem.assemble_mass": _count_mass,
             "fem.kernel_l2_norm": _count_kernel_norm,
             "spectral.eigensolve": _count_eigensolve}


def _wrap(recorder, module_name, name, fn):
    count = _COUNTERS.get(name)
    always = name in TIMED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if (not always and sys._getframe(1).f_globals.get("__name__")
                == module_name):
            return fn(*args, **kwargs)
        return recorder.call(name, fn, args, kwargs, count)

    return wrapper


def install(recorder):
    """Wrap the public layer functions of an imported covrecon package."""
    for short in LAYER_MODULES:
        module = importlib.import_module("covrecon." + short)
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            setattr(module, attr, _wrap(recorder, module.__name__,
                                        "%s.%s" % (short, attr), obj))
    from covrecon import fields
    fields.KlOracle.tail_sq = _wrap(recorder, fields.__name__,
                                    "fields.tail_sq", fields.KlOracle.tail_sq)


# ---------------------------------------------------------------------------
# parent side


def _ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def summarize(spans):
    """Per-layer metrics of one traced process (see LAYER_METRICS).

    Self time is a span's duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, busy, self_ = {}, {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        self_[name] = self_.get(name, 0.0) + (end - start - child_time[i])

    out = {"trace.spans": len(spans)}
    for name in TIMED:
        out[name + ".calls"] = calls.get(name, 0)
        out[name + ".busy_s"] = busy.get(name, 0.0)
        out[name + ".self_s"] = self_.get(name, 0.0)
    art = [n for n in calls if n.startswith("artifacts.")]
    out["artifacts.calls"] = sum(calls[n] for n in art)
    out["artifacts.busy_s"] = sum(busy[n] for n in art)
    out["artifacts.self_s"] = sum(self_[n] for n in art)
    out["cli.self_s"] = self_.get("cli", 0.0)
    out["other.self_s"] = sum(
        v for n, v in self_.items()
        if n not in TIMED and n != "cli" and not n.startswith("artifacts."))

    def counts(name):
        return [(i, s[4]) for i, s in enumerate(spans) if s[0] == name]

    draws = counts("fields.draw_batch")
    out["fields.draw_batch.samples"] = sum(c["samples"] for _, c in draws)
    out["fields.draw_batch.normals"] = sum(c["normals"] for _, c in draws)
    tails = counts("fields.tail_sq")
    # a result is reusable within one study cell (or one reconstruct)
    useful = {(_ancestor(spans, i, "mercer.run_cell"), c["key"])
              for i, c in tails}
    out["fields.tail_sq.useful_ratio"] = len(useful) / max(len(tails), 1)
    masses = counts("fem.assemble_mass")
    out["fem.assemble_mass.useful_ratio"] = (
        len({c["key"] for _, c in masses}) / max(len(masses), 1))
    out["fem.kernel_l2_norm.kernel_evals"] = sum(
        c["kernel_evals"] for _, c in counts("fem.kernel_l2_norm"))
    solves = counts("spectral.eigensolve")
    out["spectral.eigensolve.dof_cubed"] = sum(c["dof_cubed"]
                                               for _, c in solves)
    exact = [c["key"] for _, c in solves if c["source"] == "ExactDiscrete"]
    out["spectral.eigensolve.exact_per_mesh"] = (
        len(exact) / max(len(set(exact)), 1))
    return out

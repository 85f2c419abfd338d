"""Per-layer spans recorded around quadshape's public functions.

The wrappers live here, in the benchmark, and are patched into the loaded
quadshape modules only for traced passes; the program's source does not
change.  Every wrapper records one span (name, start, end, parent span,
pass id) in memory.  Self time is a span's duration minus the durations of
its child spans, which nest exactly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric name, module, attribute path).  Class attributes are patched on the
# class, so calls through any instance or module alias see the wrapper.
LAYERS = (
    ("geometry.Curve", "geometry", "Curve.__init__"),
    ("geometry.Curve.diameter", "geometry", "Curve.diameter"),
    ("geometry.flow_curve", "geometry", "flow_curve"),
    ("geometry.resample_by_arclength", "geometry", "resample_by_arclength"),
    ("geometry.curve_to_csv", "geometry", "curve_to_csv"),
    ("potential.eval_potential", "potential", "eval_potential"),
    ("potential.source_quadrature", "potential", "source_quadrature"),
    ("potential.clearance_margin", "potential", "clearance_margin"),
    ("bem.BoundaryOperators", "bem", "BoundaryOperators.__init__"),
    # a lazy property: calls are accesses, the first per bundle builds it
    ("bem.dtn_matrix", "bem", "BoundaryOperators.dtn_matrix"),
    ("bem.eval_interior", "bem", "BoundaryOperators.eval_interior"),
    ("riemannian.riemannian_gradient", "riemannian", "riemannian_gradient"),
    ("riemannian.covariant_derivative", "riemannian", "covariant_derivative"),
    ("shape.solve_state", "shape", "solve_state"),
    ("shape.evaluate_J", "shape", "evaluate_J"),
    ("shape.fd_second_derivative", "shape", "fd_second_derivative"),
    ("shape.hessian_report", "shape", "hessian_report"),
    ("shape.stability_controls", "shape", "stability_controls"),
    ("shape.symmetric_spectrum", "shape", "symmetric_spectrum"),
    ("flow.descend", "flow", "descend"),
    ("config.load_config", "config", "load_config"),
    ("reports.write_json", "reports", "write_json"),
    ("reports.write_csv", "reports", "write_csv"),
    ("reports.write_curves_svg", "reports", "write_curves_svg"),
    ("cli.main", "cli", "main"),
)

# Metrics derived from spans and counters, with unit and direction.
DERIVED = (
    ("bem.lu_gflop", "GFLOP", "lower"),
    ("bem.get_operators.hits", "count", "higher"),
    ("bem.get_operators.misses", "count", "lower"),
    ("bem.get_operators.hit_ratio", "ratio", "higher"),
    ("bem.SolverError.count", "count", "lower"),
    ("shape.evaluate_J.compute_ratio", "ratio", "lower"),
    ("flow.iterations", "count", "lower"),
    ("flow.trials", "count", "lower"),
    ("flow.rejected.geometry", "count", "lower"),
    ("flow.rejected.solver", "count", "lower"),
    ("flow.rejected.armijo", "count", "lower"),
    ("flow.accept_ratio", "ratio", "higher"),
    ("flow.solves_per_iteration", "count", "lower"),
    ("flow.resamples", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + list(DERIVED)


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket the
    traced passes so untraced passes run the unmodified program."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, pass_id, exc, n]
        self.errors = {}         # exception class name -> distinct raises
        self._stack = []
        self._seen = []          # exceptions already counted, by identity
        self._restore = []
        self.pass_id = None

    def _wrap(self, name, fn):
        spans, stack, seen, errors = (self.spans, self._stack, self._seen,
                                      self.errors)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.pass_id, None, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                # count each exception once, though it leaves several spans
                if not any(e is exc for e in seen):
                    seen.append(exc)
                    errors[span[5]] = errors.get(span[5], 0) + 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if name == "bem.BoundaryOperators":
                    span[6] = args[1].n   # (self, curve)
        return wrapper

    def install(self, package):
        """Patch every wrapped function into all loaded ``package`` modules
        that hold a reference to it."""
        mods = {k: v for k, v in sys.modules.items()
                if v is not None and (k == package or k.startswith(package + "."))}
        for name, modname, path in LAYERS:
            owner = mods[f"{package}.{modname}"]
            *cls_path, attr = path.split(".")
            if cls_path:
                cls = getattr(owner, cls_path[0])
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget))
                else:
                    new = self._wrap(name, orig)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, orig))
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:5]) + "\n")


def summarize(tracer, passes, cache_deltas):
    """Per-pass layer metrics from the spans of ``passes`` traced passes.

    ``cache_deltas`` is the summed (hits, misses) of the operator cache over
    those passes.  ``descend`` computes the metric gradient once at the start
    and once per accepted iteration, which counts the iterations.  A flow trial is a ``flow_curve`` call made by ``descend``; it is rejected
    for geometry or solver when that exception leaves one of ``descend``'s
    direct callees, and by Armijo otherwise when it is not accepted.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    calls, self_s = {}, {}
    for sid, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (span[2] - span[1]) - child[sid]

    def under_descend(kinds, exc=None):
        return sum(1 for s in spans
                   if s[0] in kinds and s[3] is not None
                   and spans[s[3]][0] == "flow.descend"
                   and (exc is None or s[5] == exc))

    out = {}
    for name, _, _ in LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0) / passes
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    builds = [s[6] for s in spans if s[0] == "bem.BoundaryOperators" and s[6]]
    out["bem.lu_gflop"] = sum(2.0 / 3.0 * n**3 for n in builds) / 1e9 / passes
    hits, misses = cache_deltas
    out["bem.get_operators.hits"] = hits / passes
    out["bem.get_operators.misses"] = misses / passes
    out["bem.get_operators.hit_ratio"] = hits / max(hits + misses, 1)
    out["bem.SolverError.count"] = tracer.errors.get("SolverError", 0) / passes
    out["shape.evaluate_J.compute_ratio"] = (
        calls.get("potential.source_quadrature", 0)
        / max(calls.get("shape.evaluate_J", 0), 1))
    trial_steps = ("geometry.flow_curve", "shape.solve_state")
    iterations = (under_descend(("riemannian.riemannian_gradient",))
                  - calls.get("flow.descend", 0))
    trials = under_descend(trial_steps[:1])
    geometry = under_descend(trial_steps, "GeometryError")
    solver = under_descend(trial_steps, "SolverError")
    out["flow.iterations"] = iterations / passes
    out["flow.trials"] = trials / passes
    out["flow.rejected.geometry"] = geometry / passes
    out["flow.rejected.solver"] = solver / passes
    out["flow.rejected.armijo"] = (trials - iterations - geometry - solver) / passes
    out["flow.accept_ratio"] = iterations / trials if trials else 0.0
    out["flow.solves_per_iteration"] = (under_descend(trial_steps[1:])
                                        / max(iterations, 1))
    out["flow.resamples"] = under_descend(
        ("geometry.resample_by_arclength",)) / passes
    return out

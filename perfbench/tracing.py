"""Per-layer tracing of gl11, installed from outside at run time.

``Tracer.install`` replaces the public functions and methods listed in
``LAYERS`` with timing wrappers on the imported classes and modules, and
``Tracer.uninstall`` puts the originals back; the program's source is not
touched.  A module-level function is replaced under every name that refers
to it in any gl11 module, so ``from .x import f`` call sites are traced too.

Every wrapped call outside ``grassmann`` records a span (id, parent id,
name, start, end) plus the summed duration of its direct ``grassmann``
children; self time is derived from the spans after the run.  ``grassmann``
calls are too many to keep one by one: they are aggregated per name with
their self time (duration minus nested ``grassmann`` calls) computed as they
close, and their duration is charged to the enclosing span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

BOTH = ("calls", "self_ms")
SELF = ("self_ms",)

# metric prefix -> (reported kinds, [(gl11 module, attribute path) wrapped])
LAYERS = {
    "grassmann.mul": (BOTH, [("grassmann", "GrassmannElement.__mul__")]),
    "grassmann.addsub": (BOTH, [("grassmann", "GrassmannElement." + name) for name in
                                ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")]),
    "grassmann.series": (BOTH, [("grassmann", "GrassmannElement.exp"),
                                ("grassmann", "GrassmannElement.inv"),
                                ("grassmann", "GrassmannElement.log")]),
    "grassmann.init": (BOTH, [("grassmann", "GrassmannElement.__init__")]),
    "grassmann.conjugate": (BOTH, [("grassmann", "GrassmannElement.conjugate")]),
    "grassmann.derivative": (BOTH, [("grassmann", "GrassmannElement.derivative")]),
    "supergroup.from_coords": (BOTH, [("supergroup", "from_coords")]),
    "supergroup.matmul": (BOTH, [("supergroup", "SuperMatrix11.__mul__")]),
    "supergroup.inverse": (BOTH, [("supergroup", "SuperMatrix11.inverse")]),
    "supergroup.sdet": (BOTH, [("supergroup", "SuperMatrix11.sdet")]),
    "supergroup.to_coords": (BOTH, [("supergroup", "to_coords")]),
    "supergroup.coords_law": (BOTH, [("supergroup", "coords_product"),
                                     ("supergroup", "coords_inverse")]),
    "cech.parse": (SELF, [("cech", "nerve_from_dict"), ("cech", "TransitionData.from_dict")]),
    "cech.cocycle_check": (SELF, [("cech", "check_sl_cocycle"), ("cech", "check_gl_cocycle")]),
    "cech.two_cocycle_g": (SELF, [("cech", "two_cocycle_g")]),
    "cech.solve_coboundary": (SELF, [("cech", "solve_coboundary")]),
    "hitchin.parse": (SELF, [("hitchin", "MetricData.from_dict"),
                             ("hitchin", "LocalFunction.from_dict")]),
    "hitchin.lf_mul": (BOTH, [("hitchin", "LocalFunction.__mul__"),
                              ("hitchin", "LocalFunction.__rmul__")]),
    "hitchin.lf_init": (BOTH, [("hitchin", "LocalFunction.__init__")]),
    "hitchin.inverse": (SELF, [("hitchin", "LocalMatrix.inverse"),
                               ("hitchin", "LocalFunction.inv")]),
    "hitchin.residual": (SELF, [("hitchin", "hitchin_residual")]),
    "hitchin.chern_form": (SELF, [("hitchin", "chern_form"),
                                  ("hitchin", "chern_form_via_inverse")]),
    "fatgraph.parse": (SELF, [("fatgraph", "FatGraph.from_dict"),
                              ("fatgraph", "connection_from_dict")]),
    "fatgraph.gauge_normalize": (SELF, [("fatgraph", "gauge_normalize")]),
    "fatgraph.vertex_sums": (SELF, [("fatgraph", "GraphConnection.vertex_sums")]),
    "fatgraph.holonomy": (BOTH, [("fatgraph", "GraphConnection.holonomy")]),
    "fatgraph.punctures": (SELF, [("fatgraph", "check_puncture_constraints")]),
    "integrable.gaudin_hamiltonian": (BOTH, [("integrable", "gaudin_hamiltonian")]),
    "integrable.gaudin_generators": (BOTH, [("integrable", "gaudin_generators")]),
    "integrable.basis": (BOTH, [("integrable", "theta_matrix"), ("integrable", "deriv_matrix"),
                                ("integrable", "number_matrix")]),
    "integrable.garnier_hamiltonian": (BOTH, [("integrable", "garnier_hamiltonian"),
                                              ("integrable", "garnier_hamiltonian_expanded")]),
    "integrable.poisson_bracket": (BOTH, [("integrable", "poisson_bracket")]),
    "integrable.quantize": (BOTH, [("integrable", "quantize"),
                                   ("integrable", "quantize_observable")]),
    "cli.main": (SELF, [("cli", "main")]),
    "cli.render": (SELF, [("cli", "RunReport.render")]),
}

LEAF = "grassmann."

# per-layer metric name -> (unit, better); the order of the printed metrics
UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower")}
COUNTERS = {
    "grassmann.mul.pairs": ("count", "lower"),
    "grassmann.mul.useful_ratio": ("ratio", "higher"),
    "grassmann.mul.peak_terms": ("count", "lower"),
    "integrable.dense_dim": ("count", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "reports.checks": ("count", "higher"),
}
OVERHEAD = {
    "trace.traced_ops_per_s": ("ops/s", "higher"),
    "trace.untraced_ops_per_s": ("ops/s", "higher"),
    "trace.slowdown": ("x", "lower"),
}


def metric_specs():
    """Every per-layer metric as (name, unit, better), in print order."""
    specs = [("%s.%s" % (layer, kind),) + UNITS[kind]
             for layer, (kinds, _) in LAYERS.items() for kind in kinds]
    specs += [(name,) + spec for name, spec in COUNTERS.items()]
    specs += [(name,) + spec for name, spec in OVERHEAD.items()]
    return specs


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.stack = []          # open frames: [span id or None, direct leaf ns]
        self.spans = []          # (id, parent id, name, start ns, end ns, leaf child ns)
        self.leaf_calls = defaultdict(int)
        self.leaf_self_ns = defaultdict(int)
        self.pairs = 0
        self.disjoint = 0
        self.peak_terms = 0
        self.dense_dim = 0       # summed over operations
        self.op_dense_dim = 0    # largest 2^m of the current operation
        self.patches = None

    # -- installation ---------------------------------------------------------

    def _patches(self):
        """(owner, attribute, original, wrapper) for every traced callable."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "gl11" or name.startswith("gl11.")}
        patches = []
        for layer, (_, targets) in LAYERS.items():
            for module, path in targets:
                mod = modules["gl11." + module]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._wrap(layer, raw.__func__))
                    else:
                        wrapper = self._wrap(layer, raw)
                    patches.append((cls, attr, raw, wrapper))
                else:
                    original = getattr(mod, path)
                    wrapper = self._wrap(layer, original)
                    for other in modules.values():
                        for key, value in vars(other).items():
                            if value is original:
                                patches.append((other, key, original, wrapper))
        return patches

    def install(self):
        if self.patches is None:
            self.patches = self._patches()
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _wrap(self, layer, fn):
        stack = self.stack
        if layer.startswith(LEAF):
            calls = self.leaf_calls
            self_ns = self.leaf_self_ns
            count_pairs = layer == "grassmann.mul"

            def leaf(*args, **kwargs):
                if count_pairs:
                    # charge the counting to no layer: out of the caller's self time
                    begin = perf_counter_ns()
                    self._count_pairs(args)
                    if stack:
                        stack[-1][1] += perf_counter_ns() - begin
                frame = [None, 0]
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    duration = end - start
                    calls[layer] += 1
                    self_ns[layer] += duration - frame[1]
                    if stack:
                        stack[-1][1] += duration
                if count_pairs and len(result.terms) > self.peak_terms:
                    self.peak_terms = len(result.terms)
                return result

            return leaf

        spans = self.spans
        is_basis = layer == "integrable.basis"

        def span(*args, **kwargs):
            if is_basis:
                self.op_dense_dim = max(self.op_dense_dim, 1 << int(args[0]))
            span_id = len(spans)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[span_id] = (span_id, parent, layer, start, end, frame[1])

        return span

    def _count_pairs(self, args):
        a, b = args[0], args[1]
        if not hasattr(b, "terms"):
            return
        self.pairs += len(a.terms) * len(b.terms)
        self.disjoint += sum(1 for ma in a.terms for mb in b.terms if not ma & mb)

    def end_op(self):
        self.dense_dim += self.op_dense_dim
        self.op_dense_dim = 0

    # -- results ----------------------------------------------------------------

    def metrics(self, ops, report_bytes, checks):
        """Per-operation layer metrics over ``ops`` traced operations."""
        calls = defaultdict(int, self.leaf_calls)
        self_ns = defaultdict(int, self.leaf_self_ns)
        child_ns = defaultdict(int)
        for span_id, parent, layer, start, end, leaf_ns in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        for span_id, parent, layer, start, end, leaf_ns in self.spans:
            calls[layer] += 1
            self_ns[layer] += (end - start) - leaf_ns - child_ns[span_id]
        out = {}
        for layer, (kinds, _) in LAYERS.items():
            if "calls" in kinds:
                out["%s.calls" % layer] = calls[layer] / ops
            out["%s.self_ms" % layer] = self_ns[layer] / 1e6 / ops
        out["grassmann.mul.pairs"] = self.pairs / ops
        out["grassmann.mul.useful_ratio"] = (self.disjoint / self.pairs
                                             if self.pairs else 0.0)
        out["grassmann.mul.peak_terms"] = self.peak_terms
        out["integrable.dense_dim"] = self.dense_dim / ops
        out["cli.report_bytes"] = report_bytes / ops
        out["reports.checks"] = checks / ops
        return out

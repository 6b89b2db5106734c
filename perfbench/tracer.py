"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the eight layer
modules, at every module binding that refers to it (including the
``from .category import ...`` copies in other modules), with a wrapper
that records a span: name, start, end, parent span and request id.
``Mor.__post_init__`` is wrapped on the class, so every matrix built
counts.  Spans live in flat arrays in memory and are written out once,
by ``Tracer.write``.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array

LAYERS = ("rings", "category", "loops", "traces", "zigzag", "compactify",
          "serialize", "cli")

# Per-layer metrics reported from a traced run, with their units.
_CALLS = ["rings.ring_contains", "category.Mor", "category.compose",
          "category.tensor_mor", "category.factor_permutation",
          "category.canonical_map", "category.contract_hidden",
          "loops.hidden_symmetry", "loops.loop_tensor", "loops.loop_compose",
          "loops.congruent", "traces.free_mixed_trace",
          "traces.provisional_trace", "traces.pairing_form",
          "traces.induced_mixed_trace", "zigzag.check_zigzag_instance",
          "zigzag.build_zigzag_diagram", "zigzag.diagram_commutes",
          "zigzag.staircase_diagram", "compactify.loop_value",
          "compactify.realize"]
_SELF = [n for n in _CALLS if n not in (
    "zigzag.staircase_diagram", "compactify.realize")] + [
    "category.validate_coherence", "traces.run_axiom_suite",
    "compactify.verify_compactness", "serialize.loop_from_json",
    "serialize.trace_result_to_json", "serialize.dumps", "cli.main"]
PER_LAYER_UNITS = {}
for _n in _CALLS:
    PER_LAYER_UNITS[f"{_n}.calls"] = "count"
for _n in _SELF:
    PER_LAYER_UNITS[f"{_n}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "traces.orderings_per_free_trace": "ratio",
    "traces.free_defined_frac": "fraction",
    "zigzag.paths_composed": "count",
    "trace.overhead_frac": "fraction",
})

FREE_TRACE = "traces.free_mixed_trace"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.req = array("l")
        self.stack = [-1]
        self.request = -1
        self.free_defined = 0
        self._undo = []

    def _index(self, name):
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def _wrap(self, name, fn):
        idx = self._index(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, req, stack = self.parent, self.req, self.stack
        clock = time.perf_counter
        tracer = self
        count_defined = name == FREE_TRACE

        def wrapper(*args, **kwargs):
            i = len(start)
            span_name.append(idx)
            parent.append(stack[-1])
            req.append(tracer.request)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count_defined and result.status == "defined":
                tracer.free_defined += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        """Wrap the public functions of every layer module at each of
        their bindings, and ``Mor.__post_init__`` on the class."""
        import mixtrace.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mixtrace" or name.startswith("mixtrace.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"mixtrace.{layer}"]
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and \
                        value.__module__ == mod.__name__ and \
                        not attr.startswith("_"):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        mor = sys.modules["mixtrace.category"].Mor
        post_init = mor.__post_init__
        self._undo.append((mor, "__post_init__", post_init))
        mor.__post_init__ = self._wrap("category.Mor", post_init)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def totals(self):
        """Calls and self time per span name.  Self time is a span's
        duration minus the time its child spans cover; one thread runs,
        so children never overlap and their durations add."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, idx in enumerate(self.span_name):
            calls[idx] += 1
            self_s[idx] += end[i] - start[i] - covered[i]
        return ({name: calls[i] for i, name in enumerate(self.names)},
                {name: self_s[i] for i, name in enumerate(self.names)})

    def children_of(self, parent_name, child_name):
        """Spans named ``child_name`` whose parent span is ``parent_name``."""
        p_idx = self.name_of.get(parent_name)
        c_idx = self.name_of.get(child_name)
        names, parent = self.span_name, self.parent
        return sum(1 for i, idx in enumerate(names)
                   if idx == c_idx and parent[i] >= 0
                   and names[parent[i]] == p_idx)

    def metrics(self):
        """The per-layer metrics, except the tracing overhead, which needs
        an untraced run to compare with."""
        calls, self_s = self.totals()
        out = {}
        for name in _CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in _SELF:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        free = calls.get(FREE_TRACE, 0)
        inner = self.children_of(FREE_TRACE, "traces.provisional_trace")
        out["traces.orderings_per_free_trace"] = inner / free if free else 0.0
        out["traces.free_defined_frac"] = \
            self.free_defined / free if free else 0.0
        out["zigzag.paths_composed"] = self.children_of(
            "zigzag.diagram_commutes", "category.compose")
        return out

    def write(self, path):
        """Write the spans: a JSON header line naming the arrays, then the
        arrays' raw bytes in that order."""
        arrays = [("name", self.span_name), ("start", self.start),
                  ("end", self.end), ("parent", self.parent),
                  ("request", self.req)]
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [[key, arr.typecode] for key, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)

"""Per-layer tracing of qsphere for the benchmark's traced run.

The tracer wraps public entry points of each layer at the names their
callers look up: module attributes (`fodc.tangent_space`), class
attributes (`DualEngine.phi`) and names a caller imported on its own
(`cli.check_admissible` as well as `scalars.check_admissible`).  The
program's source is not touched, and none of its caches are read.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time of the frames it called.  RatFunc arithmetic is
not a frame: its time stays in the self time of the layer that asked for
it, and is also totalled per operation kind under `scalars`.  A layer's calls
count entries into the layer from outside it, so recursion and
layer-internal calls are not counted twice.  Coarse layers also record
spans (name, start, end, parent, request id) in memory; hot layers
(rewriting, evaluation, the dual operators) and RatFunc arithmetic are
aggregated per layer or per operation kind only.

An entry point that no longer exists is listed in `missing`, and every
metric of its layer is reported as unmeasured instead of failing the run.
"""

import functools
import importlib
import inspect
import json
import time

_clock = time.perf_counter

MAX_SPANS = 200_000

# (layer, module, attribute path, records spans)
ENTRY_POINTS = (
    ("rewrite", "qsphere.oqsl2", "reduce_word", False),
    ("rewrite", "qsphere.podles", "PodlesAlgebra.reduce_word", False),
    ("eval.rform", "qsphere.oqsl2", "rform", False),
    ("eval.functional", "qsphere.oqsl2", "Evaluator.eval", False),
    ("eval.functional", "qsphere.dualfunc", "DualEngine.psi_eval", False),
    ("dualfunc.operators", "qsphere.dualfunc", "DualEngine.phi", False),
    ("dualfunc.operators", "qsphere.dualfunc", "DualEngine.varphi", False),
    ("dualfunc.operators", "qsphere.dualfunc", "DualEngine.kappa", False),
    ("dualfunc.operators", "qsphere.dualfunc", "DualEngine.xc_right_action", False),
    ("dualfunc.scan_weights", "qsphere.dualfunc", "DualEngine.scan_weights", True),
    ("linalg.solve", "qsphere.linalg", "solve_with_rank", True),
    ("linalg.rank", "qsphere.linalg", "rank", True),
    ("fodc.verify_freeness", "qsphere.fodc", "verify_freeness", True),
    ("fodc.leibniz_report", "qsphere.fodc", "CalculusPresentation.leibniz_report", True),
    ("fodc.chi_functionals", "qsphere.fodc", "chi_functionals", True),
    ("fodc.tangent_space", "qsphere.fodc", "tangent_space", True),
    ("fodc.irreducibility", "qsphere.fodc", "irreducibility_report", True),
    ("uqsl2rep", "qsphere.uqsl2rep", "irrep", True),
    ("uqsl2rep", "qsphere.uqsl2rep", "xc_matrix", True),
    ("uqsl2rep", "qsphere.uqsl2rep", "xc_matrix_from_irrep", True),
    ("uqsl2rep", "qsphere.uqsl2rep", "charpoly_check", True),
    ("uqsl2rep", "qsphere.uqsl2rep", "kernel_dim", True),
    ("cli.admissibility", "qsphere.cli", "check_admissible", True),
    ("cli.admissibility", "qsphere.scalars", "check_admissible", True),
    ("cli.emit", "qsphere.cli", "_emit", True),
)

SCALAR_CLASS = ("qsphere.scalars", "RatFunc")
# (operation kind, method); reflected operators count under their kind
SCALAR_OPS = (
    ("add", "__add__"), ("add", "__radd__"), ("sub", "__sub__"),
    ("sub", "__rsub__"), ("neg", "__neg__"), ("mul", "__mul__"),
    ("mul", "__rmul__"), ("inv", "inv"), ("div", "__truediv__"),
    ("div", "__rtruediv__"), ("pow", "__pow__"),
)


def _matrix_cells(layer, args):
    """Entries of the matrix handed to an elimination (with right-hand sides)."""
    rows = args[0]
    cells = len(rows) * (len(rows[0]) if rows else 0)
    if layer == "linalg.solve" and len(args) > 1:
        cells += len(rows) * len(args[1])
    return cells


class Tracer:
    def __init__(self, entry_points=ENTRY_POINTS):
        self.entry_points = entry_points
        self.stack = []                 # frames: [child seconds]
        self.span_stack = []
        self.spans = []                 # [name, start, end, parent, request]
        self.dropped_spans = 0
        self.request = None
        self.calls = {}
        self.self_s = {}
        self.depth = {}
        self.missing = []               # "module:path" of absent entry points
        self.missing_layers = set()
        self.max_cells = 0
        self.scalar_counts = {}
        self.scalar_self = {}
        self.scalar_state = [False]     # inside a RatFunc operation
        self.normalize_calls = [0]
        self.max_degree = [0]
        self._patched = []

    # -- installation

    @staticmethod
    def _resolve(modname, path):
        """(owner, attribute, plain function) of an entry point, or AttributeError.

        A method may live on a base class; static and class methods are
        not wrapped.
        """
        owner = importlib.import_module(modname)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        fn = (inspect.getattr_static(owner, attr) if isinstance(owner, type)
              else getattr(owner, attr))
        if not inspect.isfunction(fn):
            raise AttributeError("%s:%s is not a plain function" % (modname, path))
        return owner, attr, fn

    def _patch(self, owner, attr, old, new):
        self._patched.append((owner, attr, old, attr in vars(owner)))
        setattr(owner, attr, new)

    def install(self):
        for layer, modname, path, spans in self.entry_points:
            self.calls.setdefault(layer, 0)
            self.self_s.setdefault(layer, 0.0)
            self.depth.setdefault(layer, 0)
            try:
                owner, attr, fn = self._resolve(modname, path)
            except (ImportError, AttributeError):
                self.missing.append("%s:%s" % (modname, path))
                self.missing_layers.add(layer)
                continue
            name = "%s.%s" % (modname.split(".")[-1], path)
            self._patch(owner, attr, fn, self._wrap(layer, name, fn, spans))
        self._install_scalars()

    def _install_scalars(self):
        modname, clsname = SCALAR_CLASS
        for kind, attr in SCALAR_OPS + (("construct", "__init__"),):
            self.scalar_counts.setdefault(kind, 0)
            self.scalar_self.setdefault(kind, 0.0)
            try:
                cls, _, fn = self._resolve(modname, "%s.%s" % (clsname, attr))
            except (ImportError, AttributeError):
                self.missing.append("%s:%s.%s" % (modname, clsname, attr))
                self.missing_layers.add("scalars")
                continue
            self._patch(cls, attr, fn, self._wrap_init(fn) if kind == "construct"
                        else self._wrap_scalar(kind, fn))

    def uninstall(self):
        for owner, attr, fn, own in reversed(self._patched):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patched = []

    # -- wrappers

    def _wrap(self, layer, name, fn, record_span):
        stack, span_stack, spans = self.stack, self.span_stack, self.spans
        depth, calls, self_s = self.depth, self.calls, self.self_s
        sized = layer.startswith("linalg.")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            d = depth[layer]
            if not d:
                calls[layer] += 1
            depth[layer] = d + 1
            if sized:
                tracer._note_cells(layer, args)
            idx = -1
            if record_span:
                if len(spans) < MAX_SPANS:
                    idx = len(spans)
                    spans.append([name, 0.0, 0.0,
                                  span_stack[-1] if span_stack else None,
                                  tracer.request])
                    span_stack.append(idx)
                else:
                    tracer.dropped_spans += 1
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                depth[layer] = d
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    span_stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        return wrapper

    def _note_cells(self, layer, args):
        try:
            cells = _matrix_cells(layer, args)
        except (TypeError, IndexError):
            return
        if cells > self.max_cells:
            self.max_cells = cells

    def _wrap_scalar(self, kind, fn):
        counts, self_s, state = self.scalar_counts, self.scalar_self, self.scalar_state

        @functools.wraps(fn)
        def op(*args):
            counts[kind] += 1
            if state[0]:
                return fn(*args)
            state[0] = True
            t0 = _clock()
            try:
                return fn(*args)
            finally:
                state[0] = False
                self_s[kind] += _clock() - t0

        return op

    def _wrap_init(self, init):
        counts, self_s, state = self.scalar_counts, self.scalar_self, self.scalar_state
        norm, maxdeg = self.normalize_calls, self.max_degree

        @functools.wraps(init)
        def construct(obj, *args, **kwargs):
            if not kwargs.get("_reduced", args[2] if len(args) > 2 else False):
                norm[0] += 1
            if state[0]:
                init(obj, *args, **kwargs)
            else:
                state[0] = True
                t0 = _clock()
                try:
                    init(obj, *args, **kwargs)
                finally:
                    state[0] = False
                    counts["construct"] += 1
                    self_s["construct"] += _clock() - t0
            deg = max(len(getattr(obj, "num", ())), len(getattr(obj, "den", ()))) - 1
            if deg > maxdeg[0]:
                maxdeg[0] = deg

        return construct

    # -- requests and results

    def run_request(self, request_id, fn, *args):
        """Run fn(*args) as one request: a root span tagged with its id."""
        self.request = request_id
        wrapped = self._wrap("request", "request", fn, True)
        self.calls.setdefault("request", 0)
        self.self_s.setdefault("request", 0.0)
        self.depth.setdefault("request", 0)
        try:
            return wrapped(*args)
        finally:
            self.request = None

    def summary(self):
        """Per-layer aggregates; a layer with a missing entry point maps to None."""
        def layer(name, table):
            return None if name in self.missing_layers else table.get(name, 0)

        scalars_ok = "scalars" not in self.missing_layers
        ops = sum(v for k, v in self.scalar_counts.items() if k != "construct")
        return {
            "calls": {k: layer(k, self.calls) for k in self.calls},
            "self_s": {k: layer(k, self.self_s) for k in self.self_s},
            "scalars": {
                "ops": ops if scalars_ok else None,
                "normalize_calls": self.normalize_calls[0] if scalars_ok else None,
                "self_s": sum(self.scalar_self.values()) if scalars_ok else None,
                "max_degree": self.max_degree[0] if scalars_ok else None,
                "by_kind": {k: [self.scalar_counts[k], self.scalar_self[k]]
                            for k in self.scalar_counts},
            },
            "max_cells": None if {"linalg.solve", "linalg.rank"} & self.missing_layers
            else self.max_cells,
            "missing": list(self.missing),
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def write(self, path):
        """Write the spans (times relative to the first span) and the summary."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "spans": [[n, round(s - base, 9), round(e - base, 9), p, r]
                                 for n, s, e, p, r in self.spans],
                       "summary": self.summary()}, fh)

"""Spans around the public functions of each hyploop layer, from outside.

``Tracer.install`` replaces each traced function, in every hyploop module
that holds a reference to it, by a wrapper that records a span: name,
start, end, parent span and operation id, plus one work figure (points,
centers or Newton iterations).  Spans stay in memory until ``write``.
``uninstall`` puts the original functions back, so untraced rounds run the
program exactly as shipped.
"""

from __future__ import annotations

import csv
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("fields", "_quad", "halfplane", "loops", "linearized", "melnikov",
           "reduction", "euclidean", "cli")


def _size(args, kwargs, result):
    return int(np.size(result))


def _centers(args, kwargs, result):
    return int(np.size(args[0]))


def _iterations(args, kwargs, result):
    return int(result.iterations)


# (module, function, span name, work figure)
TARGETS = (
    ("fields", "eval_field", "fields.eval", _size),
    ("fields", "grad_field", "fields.grad_field", None),
    ("_quad", "adaptive_gauss_legendre", "quad.agl", None),
    ("loops", "residual", "loops.residual", None),
    ("loops", "signed_area", "loops.signed_area", None),
    ("loops", "is_embedded", "loops.is_embedded", None),
    ("loops", "verify_solution", "loops.verify", None),
    ("loops", "save_loop", "loops.io", None),
    ("loops", "load_loop", "loops.io", None),
    ("linearized", "mode_blocks", "linearized.mode_blocks", None),
    ("linearized", "frozen_solve", "linearized.frozen_solve", None),
    ("melnikov", "melnikov_grid", "melnikov.grid", _centers),
    ("melnikov", "melnikov_gradient_grid", "melnikov.gradient", _centers),
    ("melnikov", "find_critical", "melnikov.find_critical", None),
    ("reduction", "reduce_generic", "reduction.reduce", _iterations),
    ("euclidean", "solve_full_euclid", "euclidean.solve", None),
    ("cli", "main", "cli.main", None),
)
# methods are patched on their class
METHODS = (
    ("euclidean", "EuclideanProblem", "frozen_solve", "euclidean.frozen_solve"),
)


# The per-layer metrics, in the order BENCHMARK.json lists them, with units.
UNITS = {
    "fields.eval_calls": "count", "fields.eval_s": "s", "fields.eval_points": "count",
    "fields.grad_builds": "count",
    "melnikov.grid_centers": "count", "melnikov.grid_s": "s",
    "melnikov.gradient_centers": "count", "melnikov.gradient_s": "s",
    "melnikov.search_self_s": "s",
    "quad.agl_calls": "count", "quad.agl_s": "s",
    "loops.residual_calls": "count", "loops.residual_s": "s", "loops.signed_area_s": "s",
    "loops.is_embedded_s": "s", "loops.verify_self_s": "s", "loops.io_s": "s",
    "linearized.frozen_solve_calls": "count", "linearized.frozen_solve_s": "s",
    "linearized.cold_s": "s",
    "reduction.reduce_calls": "count", "reduction.newton_iters": "count",
    "reduction.gmres_iters": "count", "reduction.self_s": "s",
    "euclidean.solve_s": "s",
    "cli.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, op, work]
        self.op = -1         # -1 is set-up
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self._modules = [importlib.import_module(f"hyploop.{m}") for m in MODULES]

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = -1  # raised: no work figure
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, func, name, work in TARGETS:
            original = getattr(sys.modules[f"hyploop.{module}"], func)
            wrapper = self._wrap(name, original, work)
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for module, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"hyploop.{module}"], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, None))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "op", "work"])
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, op, work])


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-operation layer figures from the spans of the traced operations.

    Set-up spans (op -1) give ``linearized.cold_s`` only.  Self time is a
    span's duration minus the durations of its direct children; spans of one
    thread nest, so the children never overlap.  GMRES iterations are the
    frozen solves inside correction solves that returned, minus their Newton
    iterations (one preconditioned right-hand side per Newton step).
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op, work in spans:
        if parent >= 0:
            child_time[parent] += end - start

    count = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    work = defaultdict(int)
    frozen_in_reduce = 0
    cold = 0.0
    reduce_of = {}  # span -> the correction solve it ran under
    for i, (name, start, end, parent, op, figure) in enumerate(spans):
        if name == "reduction.reduce":
            reduce_of[i] = i
        elif parent in reduce_of:
            reduce_of[i] = reduce_of[parent]
        if op < 0:
            if name == "linearized.mode_blocks":
                cold += end - start
            continue
        count[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[i]
        work[name] += max(figure, 0)
        if name.endswith(".frozen_solve") and spans[reduce_of.get(i, i)][5] > 0:
            frozen_in_reduce += 1

    per = 1.0 / n_ops
    return {
        "fields.eval_calls": count["fields.eval"] * per,
        "fields.eval_s": total["fields.eval"] * per,
        "fields.eval_points": work["fields.eval"] * per,
        "fields.grad_builds": count["fields.grad_field"] * per,
        "melnikov.grid_centers": work["melnikov.grid"] * per,
        "melnikov.grid_s": total["melnikov.grid"] * per,
        "melnikov.gradient_centers": work["melnikov.gradient"] * per,
        "melnikov.gradient_s": total["melnikov.gradient"] * per,
        "melnikov.search_self_s": self_s["melnikov.find_critical"] * per,
        "quad.agl_calls": count["quad.agl"] * per,
        "quad.agl_s": total["quad.agl"] * per,
        "loops.residual_calls": count["loops.residual"] * per,
        "loops.residual_s": total["loops.residual"] * per,
        "loops.signed_area_s": total["loops.signed_area"] * per,
        "loops.is_embedded_s": total["loops.is_embedded"] * per,
        "loops.verify_self_s": self_s["loops.verify"] * per,
        "loops.io_s": total["loops.io"] * per,
        "linearized.frozen_solve_calls": count["linearized.frozen_solve"] * per,
        "linearized.frozen_solve_s": total["linearized.frozen_solve"] * per,
        "linearized.cold_s": cold,
        "reduction.reduce_calls": count["reduction.reduce"] * per,
        "reduction.newton_iters": work["reduction.reduce"] * per,
        "reduction.gmres_iters": (frozen_in_reduce - work["reduction.reduce"]) * per,
        "reduction.self_s": self_s["reduction.reduce"] * per,
        "euclidean.solve_s": total["euclidean.solve"] * per,
        "cli.self_s": self_s["cli.main"] * per,
    }

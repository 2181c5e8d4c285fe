"""A span tracer that wraps litt43's public functions from outside the package.

``Tracer.install`` wraps every public function defined in each layer module
(and the constructors of the two validated input types), then replaces
every binding of the original it can find: the defining module, every other
litt43 module that imported it by name (``from .opnorm import
real_sup_norm``), the package namespace, and module-level dicts such as the
registry of verify checks.  ``uninstall`` puts the originals back.

Each call records one span (function, parent span, op id, start, end) in
compact in-memory arrays that ``save`` writes out when the run ends.  Self
time is a span's duration minus the durations of its direct child spans,
accumulated as the spans close.  Work counts (patterns, evaluations,
quadrature terms, climber steps) are derived from each call's inputs by
``WORK``, so they repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

import litt43
from litt43 import CapacityError, CoefficientVector

LAYERS = ("exponents", "forms", "opnorm", "khinchin", "search", "verify", "jsonio", "cli")
CLASSES = {"forms": ("BilinearForm",), "khinchin": ("CoefficientVector",)}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _size(coeffs) -> int:
    return coeffs.n if isinstance(coeffs, CoefficientVector) else np.asarray(coeffs).size


def _grid_evals(args, kwargs, result):
    return {"evals": int(_arg(args, kwargs, 1, "m")) ** (args[0].cols - 1)}


def _steinhaus_terms(args, kwargs, result):
    n = _size(args[0])
    if n == 1:
        return {"terms": 0}
    if _arg(args, kwargs, 1, "method", "quadrature") == "quadrature":
        q = int(_arg(args, kwargs, 2, "q", 256))
        return {"terms": q ** (n - 1) + (q // 2) ** (n - 1)}
    schedule = _arg(args, kwargs, 3, "schedule")
    return {"terms": sum(int(m) ** (n - 1) for m in schedule)}


def _climb_steps(args, kwargs, result):
    accepted = sum(1 for _, step in result.improved_at if step > 0)
    return {"steps": result.restarts_run * result.config.steps, "accepted": accepted}


# Work done by one call, from its inputs; ``accepted`` counts the steps that
# raised the run's best ratio, which is what ``improved_at`` records.
WORK = {
    "opnorm.real_sup_norm": lambda a, k, r: {"patterns": 2 ** (a[0].cols - 1)},
    "opnorm.complex_norm_bounds": _grid_evals,
    "opnorm.complex_norm_discrete": _grid_evals,
    "khinchin.rademacher_average": lambda a, k, r: {"terms": 2 ** (_size(a[0]) - 1)},
    "khinchin.e_m_average": lambda a, k, r: {
        "terms": int(_arg(a, k, 1, "m")) ** (_size(a[0]) - 1)},
    "khinchin.steinhaus_expectation": _steinhaus_terms,
    "search.maximize_ratio": _climb_steps,
    "search.maximize_khinchin_ratio": _climb_steps,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_ns = []
        self.total_ns = []
        self.counts = defaultdict(int)       # (function, stat) -> count
        self.refusals = defaultdict(int)     # layer -> CapacityError count
        self._last_refusal = None
        self.op = -1                         # id shared by the spans of one op
        self._open = []                      # [span index, child ns] per open span
        self._patches = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        layer = name.partition(".")[0]
        work = WORK.get(name)
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(open_spans[-1][0] if open_spans else -1)
            self.span_op.append(self.op)
            self.span_end.append(0)
            frame = [index, 0]
            open_spans.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except CapacityError as exc:
                # count a refusal once, where it is raised, not in every caller
                if exc is not self._last_refusal:
                    self._last_refusal = exc
                    self.refusals[layer] += 1
                raise
            finally:
                end = clock()
                open_spans.pop()
                self.span_end[index] = end
                duration = end - start
                self.calls[nid] += 1
                self.self_ns[nid] += duration - frame[1]
                self.total_ns[nid] += duration
                if open_spans:
                    open_spans[-1][1] += duration
            if work is not None:
                for stat, n in work(args, kwargs, result).items():
                    self.counts[(name, stat)] += n
            return result

        return traced

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self):
        modules = {layer: importlib.import_module(f"litt43.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, "__init__", self._wrap(f"{layer}.{cls_name}", cls.__init__))
        for mod in [litt43, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(value, key, wrappers[item])
        return self

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def function_stats(self) -> dict:
        """function -> {"calls", "self_s", "total_s", work counts...}"""
        stats = {name: {"calls": self.calls[nid], "self_s": self.self_ns[nid] / 1e9,
                        "total_s": self.total_ns[nid] / 1e9}
                 for nid, name in enumerate(self.names)}
        for (name, stat), n in self.counts.items():
            stats[name][stat] = n
        return stats

    def save(self, path):
        """Write every span to ``path`` (numpy .npz; times in ns)."""
        np.savez(path, names=np.array(self.names), function=np.asarray(self.span_name),
                 parent=np.asarray(self.span_parent), op=np.asarray(self.span_op),
                 start_ns=np.asarray(self.span_start), end_ns=np.asarray(self.span_end))

"""Spans around the public functions of each layer, recorded from outside.

Nothing in the package is edited: Layers.install() replaces each traced
function or method, wherever the package's modules hold a reference to
it, by a wrapper that records a span, and uninstall() puts the originals
back.  Spans are kept in memory as (name, start, end, parent, points)
and written out by the caller when the benchmark ends.  A span's self
time is its duration minus the time its child spans cover; calls run
on one thread, so children never overlap.
"""

import functools
import importlib
import sys
import time

import numpy as np


def _points_xy(args):
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)


def _method_points_xy(args):
    return _points_xy(args[1:])


def _density_points(args):
    # dim-1 points come as (N,) or (N, 1); dim-d points as (..., d)
    return int(np.size(args[1]) // args[0].dim)


# (span name, module, class or None, attribute, points counter)
LAYERS = (
    ("modular.reduce_arrays", "equidist.modular", None, "reduce_arrays",
     _points_xy),
    ("modular.eisenstein", "equidist.modular", "EisensteinObservable",
     "value_reduced", _method_points_xy),
    ("wiener.density", "equidist.wiener", "TorusMeasure", "value",
     _density_points),
    ("modular.correlation", "equidist.modular", None, "correlation", None),
    ("modular.mu_integral", "equidist.modular", None, "mu_integral", None),
    ("modular.s_norm_surrogate", "equidist.modular", None,
     "s_norm_surrogate", None),
    ("modular.fit_decay", "equidist.modular", None, "fit_decay", None),
    ("geometry.tuple_stats", "equidist.geometry", None, "tuple_stats", None),
    ("geometry.select_direction", "equidist.geometry", None,
     "select_direction", None),
    ("selection.choose_window", "equidist.selection", None, "choose_window",
     None),
    ("constants.build_ledger", "equidist.constants", None, "build_ledger",
     None),
    ("constants.bound_evaluate", "equidist.constants", None,
     "bound_evaluate", None),
    ("wiener.checks", "equidist.wiener", None, "equivariance_check", None),
    ("wiener.checks", "equidist.wiener", None, "character_expansion_check",
     None),
    ("cli.validate", "jsonschema", None, "validate", None),
)

ROOT = "cli"


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, points=0):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, points])
        self._open.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name, count(args) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def summary(self, first=0):
        """Per span name: self time, calls and points over spans[first:]."""
        out = {}
        child_time = {}
        spans = self.spans[first:]
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        for k, (name, start, end, parent, points) in enumerate(spans, first):
            agg = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                        "calls": 0, "points": 0})
            agg["self_s"] += end - start - child_time.get(k, 0.0)
            agg["calls"] += 1
            agg["points"] += points
            if parent < first:
                agg["total_s"] += end - start
        return out


class Layers:
    """Installs and removes the tracing wrappers listed in LAYERS."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def install(self):
        for name, modname, clsname, attr, count in LAYERS:
            owner = importlib.import_module(modname)
            if clsname is not None:
                owner = getattr(owner, clsname)
                # a method may be inherited; the wrapper goes on this class
                orig = getattr(owner, attr)
                self._set(owner, attr, self.tracer.wrap(name, orig, count))
                continue
            orig = getattr(owner, attr)
            wrapped = self.tracer.wrap(name, orig, count)
            self._set(owner, attr, wrapped)
            # the CLI and the package root hold their own references
            for key, mod in sorted(sys.modules.items()):
                if key.startswith("equidist") and \
                        getattr(mod, attr, None) is orig:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

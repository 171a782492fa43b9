"""Spans around calls into the program, recorded from outside it.

A `Tracer` replaces functions at the module attributes their callers look up
(for example `pcagmm.pca_gmm.ipalm_minimize`, which `fit_pcagmm` resolves at
call time) with wrappers that record one span per call: name, start, end and
the index of the enclosing span. Spans stay in memory until the run writes
them out. Removing the tracer restores every attribute it replaced, so timed
runs execute the unmodified program.

A target whose module or attribute no longer exists is listed in `absent`
and skipped; its layer then reports zero calls instead of stopping the run.
"""

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One attribute to wrap and the span name its calls are recorded under.

    on_return(counters, args, kwargs, result), when given, adds the layer's
    work counts to `counters` after each successful call.
    """

    module: str
    attr: str
    span: str
    on_return: Callable | None = None

    @property
    def path(self):
        return f"{self.module}.{self.attr}"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records spans for `targets` while installed (use as a context manager)."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []
        self.counters = defaultdict(float)
        self.absent = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        # Resolve every target before wrapping any: a module imported while
        # another is wrapped would bind the wrapper by `from ... import`.
        resolved = []
        self.absent = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                resolved.append((module, getattr(module, target.attr), target))
            except (ImportError, AttributeError):
                self.absent.append(target.path)
        for module, original, target in resolved:
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # filled in when the call returns
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, opened, name):
        end = time.perf_counter()
        idx, parent, start = opened
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent)

    def _wrap(self, fn, target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(opened, target.span)
            if target.on_return is not None:
                target.on_return(self.counters, args, kwargs, result)
            return result

        return traced


def layer_totals(spans):
    """Per span name: total inclusive seconds, calls and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; calls here are sequential, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    totals = defaultdict(lambda: {"s": 0.0, "calls": 0, "self_s": 0.0})
    for i, span in enumerate(spans):
        entry = totals[span.name]
        entry["s"] += span.end - span.start
        entry["calls"] += 1
        entry["self_s"] += span.end - span.start - child_s[i]
    return dict(totals)

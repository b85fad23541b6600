"""Span tracer installed from outside the package.

``Tracer.install`` rebinds every public function and public method of each
``fermiflow`` module to a wrapper that records one span per call: name,
start, end, thread, run id, thread CPU, parent span and the thread count
at its start. Names imported by sibling modules (``tree.sector_propagator``
seen from ``graded``, ``experiments.evolved_marginal``, ...) are rebound
too, so every call site is seen. The ``lru_cache`` tables record a span
only when the call missed its cache. Work submitted to a
``ThreadPoolExecutor`` runs inside a ``<module>.pool_task`` span whose
parent is the span that submitted it, so self time can be attributed
across threads.

Spans stay in memory; ``layers.layer_metrics`` reduces them to the
per-layer table once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from math import ceil
from time import perf_counter, thread_time

import numpy as np

PACKAGE = "fermiflow"
MODULES = ("modes", "sector", "exact", "hf", "tree", "graded", "fock",
           "experiments", "cli")
HF_FLOWS = ("hf.evolve_hf_orbitals", "hf.evolve_hf_density", "hf.evolve_kappa")
MAXIMA = ("sector.max_dim",)
RUN_ID = 0      # every span of a traced process belongs to its one call


class Span(namedtuple("Span", "sid name parent thread run start end cpu "
                       "threads")):
    """One finished call; ``parent`` is a span id or ``None``."""

    __slots__ = ()

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span store plus the per-thread stacks that give each span a parent."""

    def __init__(self):
        self.records: list = []     # finished spans as plain tuples
        self.counts: list = []      # (counter name, amount), summed later
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return abs(stack[-1]) if stack else None

    def wrap(self, name: str, fn, observe=None):
        """Wrapper recording one span per call of ``fn``.

        An ``lru_cache`` table records a span only when the call missed
        its cache. Beneath a table build only nested table builds are
        recorded: the build is timed as one unit, and a span around each
        of its per-entry helper calls would cost more than the build.
        """
        records, counts, ids = self.records, self.counts, self._ids
        stack_of = self._stack
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            if info is None and parent is not None and parent < 0:
                return fn(*args, **kwargs)
            sid = next(ids)
            stack.append(sid if info is None else -sid)
            misses = info().misses if info is not None else None
            threads = threading.active_count()
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
                recorded = info is None or info().misses != misses
                if recorded:
                    records.append((sid, name, None if parent is None
                                    else abs(parent), threading.get_ident(),
                                    RUN_ID, t0, t1, c1 - c0, threads))
            if recorded and observe is not None:
                counts.extend(observe(args, kwargs, result))
            return result

        if info is not None:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    @property
    def spans(self) -> list:
        """The finished spans, as :class:`Span` objects."""
        return [Span(*record) for record in self.records]

    def _wrap_submit(self):
        """Carry the submitting span into ``ThreadPoolExecutor`` workers."""
        original = ThreadPoolExecutor.submit
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()
            task = tracer.wrap(f"{_calling_module()}.pool_task", fn)

            def run(*a, **k):
                stack = tracer._stack()
                saved = stack[:]
                stack[:] = [parent] if parent is not None else []
                try:
                    return task(*a, **k)
                finally:
                    stack[:] = saved

            return original(pool, run, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        self._undo.append(lambda: setattr(ThreadPoolExecutor, "submit",
                                          original))

    def install(self):
        """Rebind the public callables of every package module."""
        package = importlib.import_module(PACKAGE)
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in MODULES}
        namespaces = [package] + list(modules.values())
        observers = _observers(modules)
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isclass(obj):
                    if not attr.startswith("_") and \
                            not issubclass(obj, BaseException):
                        self._wrap_class(short, obj)
                    continue
                if hasattr(obj, "cache_info") or (
                        inspect.isfunction(obj) and not attr.startswith("_")):
                    wrapped = self.wrap(name, obj, observers.get(name))
                else:
                    continue
                for space in namespaces:
                    for key, value in list(vars(space).items()):
                        if value is obj:
                            self._rebind(space, key, obj, wrapped)
        self._wrap_submit()

    def _wrap_class(self, short: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                new = property(self.wrap(name, member.fget), member.fset,
                               member.fdel, member.__doc__)
            elif isinstance(member, classmethod):
                new = classmethod(self.wrap(name, member.__func__))
            elif isinstance(member, staticmethod):
                new = staticmethod(self.wrap(name, member.__func__))
            elif inspect.isfunction(member):
                new = self.wrap(name, member)
            else:
                continue
            self._rebind(cls, attr, member, new)

    def _rebind(self, owner, key, old, new):
        setattr(owner, key, new)
        self._undo.append(lambda: setattr(owner, key, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def _calling_module() -> str:
    """Short name of the innermost package module on the calling stack."""
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith(PACKAGE + "."):
            return name.split(".", 1)[1]
        frame = frame.f_back
    return "unknown"


def rk4_steps(t_grid, dt: float) -> int:
    """Fixed-step count of ``hf._rk4_stream`` over ``t_grid``."""
    grid = [float(x) for x in np.atleast_1d(t_grid)]
    return sum(max(1, int(ceil((t1 - t0) / dt - 1e-12)))
               for t0, t1 in zip(grid[:-1], grid[1:]))


def _observers(modules) -> dict:
    """Work counters read from a call's arguments or result."""
    hf = modules["hf"]
    observers = {}

    def steps(fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            config = bound.arguments.get("config") or hf.HFConfig()
            return [("hf.rk4_steps", rk4_steps(bound.arguments["t_grid"],
                                               config.dt))]
        return observe

    for name in HF_FLOWS:
        observers[name] = steps(getattr(hf, name.split(".")[1]))
    observers["sector.embedding_isometry"] = lambda args, kwargs, result: [
        ("sector.embedding_isometry.entries", int(result.nnz))]
    observers["sector.sector_basis"] = lambda args, kwargs, result: [
        ("sector.max_dim", int(result.dim))]
    return observers


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children are the spans naming it as parent, on any thread; a worker
    task's parent is the span that submitted it.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(kid.start, span.start), min(kid.end, span.end))
            for kid in children.get(span.sid, ())
            if kid.end > span.start and kid.start < span.end)
        out[span.sid] = (span.end - span.start) - covered
    return out


def summed_counts(counts) -> dict:
    """Sum ``(name, amount)`` work counters; keep the largest of MAXIMA."""
    out: dict = {}
    for name, amount in counts:
        previous = out.get(name, 0)
        out[name] = max(previous, amount) if name in MAXIMA \
            else previous + amount
    return out

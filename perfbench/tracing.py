"""In-memory spans around calls into repro's layers, wrapped from outside.

Nothing under ``src/`` knows about this module.  :class:`LayerPatch`
replaces each layer's public entry point with a timing wrapper (and
puts the original back on :meth:`LayerPatch.uninstall`), so the
untraced runs execute repro exactly as shipped.

A span is ``(id, parent, name, thread, start, end, nested, info)``:
``parent`` is the id of the innermost span open on the same thread when
it began, ``nested`` says whether a span of the same name was already
open there (so inclusive layer totals count the outermost call once),
and ``info`` carries a layer's count, e.g. the cells one
``compile_study`` call produced.  Spans are appended to one list, kept
in memory, and written out by :meth:`Tracer.dump` when the run ends.

Stdlib only, so importing it before ``import repro`` changes nothing a
run measures; :meth:`LayerPatch.install` imports the repro modules it
wraps.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time

_SPAN_KEYS = ("id", "parent", "name", "thread", "start", "end", "nested", "info")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        stack = self._stack()
        nested = any(frame[1] == name for frame in stack)
        parent = stack[-1][0] if stack else 0
        frame = (next(self._ids), name, parent, nested, time.perf_counter())
        stack.append(frame)
        return frame

    def end(self, frame, info=None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, name, parent, nested, start = frame
        self.spans.append(
            (span_id, parent, name, threading.get_ident(), start, end, nested, info)
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the ``with`` body as one span on the current thread."""
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def dump(self, path: str) -> None:
        """Write every span as JSON (the run's trace file)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(_SPAN_KEYS, span)) for span in self.spans], handle)


def load_spans(path: str) -> "list[tuple]":
    """Read a trace file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(row[key] for key in _SPAN_KEYS) for row in json.load(handle)]


#: Span name → the layer its self time is charged to.
LAYER_OF = {
    "compile": "compile",
    "resolve": "resolve",
    "execute": "execute",
    "config": "config",
    "store.checkpoint": "store",
    "store.compact": "store",
    "cache.get": "cache",
    "cache.put": "cache",
    "scheduler": "scheduler",
    "serve.submit": "serve",
    "serve.follow": "serve",
    "serve.results": "serve",
}


def summarize(spans: "list[tuple]") -> dict:
    """Per-layer totals, counts and self times of one process's spans.

    Returns ``{"total", "calls", "info", "by_info", "self", "wall",
    "unaccounted"}``.  ``total[name]`` and ``calls[name]`` count
    outermost spans only (a span nested in one of its own name is inside
    the outer one's time); ``info[name]`` collects the outermost spans'
    infos, except for ``config`` where every constructor call is one
    build; ``by_info[(name, info)]`` splits ``total`` by a string info
    (``execute`` by backend).  ``self`` charges each span's duration minus
    its children's to its layer, for spans inside a ``root`` span (the
    benchmark's timed sections, all on the measuring thread);
    ``unaccounted`` is the roots' own self time, so
    ``sum(self.values()) + unaccounted == wall`` by construction.
    """
    total: "dict[str, float]" = {}
    calls: "dict[str, int]" = {}
    info: "dict[str, list]" = {}
    by_info: "dict[tuple, float]" = {}
    child_time: "dict[int, float]" = {}
    parent_of = {span[0]: (span[1], span[2]) for span in spans}
    for span_id, parent, name, _thread, start, end, nested, extra in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        if name == "config" or not nested:
            info.setdefault(name, []).append(extra)
        if not nested:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if isinstance(extra, str):
                key = (name, extra)
                by_info[key] = by_info.get(key, 0.0) + (end - start)

    under_root: "dict[int, bool]" = {0: False}

    def in_root(span_id: int) -> bool:
        if span_id not in under_root:
            parent, name = parent_of[span_id]
            under_root[span_id] = name == "root" or in_root(parent)
        return under_root[span_id]

    own: "dict[str, float]" = {}
    wall = unaccounted = 0.0
    for span_id, parent, name, _thread, start, end, _nested, _extra in spans:
        self_time = (end - start) - child_time.get(span_id, 0.0)
        if name == "root":
            wall += end - start
            unaccounted += self_time
        elif in_root(parent):
            layer = LAYER_OF[name]
            own[layer] = own.get(layer, 0.0) + self_time
    return {
        "total": total,
        "calls": calls,
        "info": info,
        "by_info": by_info,
        "self": own,
        "wall": wall,
        "unaccounted": unaccounted,
    }


# -- wrapping the layers -----------------------------------------------------


def _timed(tracer: Tracer, name: str, function, info=None):
    """``function`` wrapped in a span; ``info(result)`` fills the span's info."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            tracer.end(frame, info(result) if info is not None else None)

    return wrapper


def _timed_generator(tracer: Tracer, name: str, function):
    """A generator function whose every ``next()`` is one span.

    ``CellScheduler.run`` blocks inside ``next()`` while worker threads
    execute cells, so that wait is the scheduler's time on the thread
    that consumes it; the caller's loop body between items is not.
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        inner = function(*args, **kwargs)
        try:
            while True:
                frame = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(frame)
                yield item
        finally:
            inner.close()

    return wrapper


def _timed_compact(tracer: Tracer, function):
    """``StudyStore.compact`` timed; info is the journal + store bytes."""

    @functools.wraps(function)
    def wrapper(self, path):
        journal = f"{path}.journal.jsonl"
        frame = tracer.begin("store.compact")
        size = 0
        try:
            size = os.path.getsize(journal) if os.path.exists(journal) else 0
            function(self, path)
            size += os.path.getsize(path)
        finally:
            tracer.end(frame, size)

    return wrapper


def _miss(record) -> int:
    return 1 if record is None else 0


def _num_cells(cells) -> int:
    return len(cells) if cells is not None else 0


class LayerPatch:
    """Replace repro's layer entry points with timed wrappers, reversibly.

    Module-level functions are rebound in every ``repro`` module that
    holds them by name (``runner`` imported its own ``compile_study`` and
    ``resolve_backend``); methods are replaced on their class, and each
    registered backend's ``execute`` on the backend instance.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: "list[tuple]" = []

    def _set(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, value)

    def _rebind(self, function, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attr, wrapper)

    def install(self) -> "LayerPatch":
        from repro.core.configuration import Configuration
        from repro.engine import runtime
        from repro.study import compile as compile_module
        from repro.study.cache import ResultCache
        from repro.study.scheduler import CellScheduler
        from repro.study.store import StudyStore

        tracer = self.tracer
        compile_study = compile_module.compile_study
        self._rebind(
            compile_study, _timed(tracer, "compile", compile_study, _num_cells)
        )
        resolve = runtime.resolve_backend
        self._rebind(resolve, _timed(tracer, "resolve", resolve))
        for name in runtime.backend_names():
            backend = runtime.get_backend(name)
            self._set(backend, "execute", _timed(
                tracer, "execute", backend.execute, lambda _result, n=name: n
            ))
        self._set(Configuration, "__init__",
                  _timed(tracer, "config", Configuration.__init__))
        self._set(StudyStore, "checkpoint",
                  _timed(tracer, "store.checkpoint", StudyStore.checkpoint))
        self._set(StudyStore, "compact", _timed_compact(tracer, StudyStore.compact))
        self._set(ResultCache, "get",
                  _timed(tracer, "cache.get", ResultCache.get, _miss))
        self._set(ResultCache, "put", _timed(tracer, "cache.put", ResultCache.put))
        self._set(CellScheduler, "run",
                  _timed_generator(tracer, "scheduler", CellScheduler.run))
        return self

    def uninstall(self) -> None:
        for owner, attr, value, had in reversed(self._undo):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()

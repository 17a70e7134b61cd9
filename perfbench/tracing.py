"""Layer spans recorded from outside the program, and the metrics they give.

:func:`install` wraps, in every ``levyladder`` module namespace that binds
them, the functions named in each layer module's ``__all__``, plus the
draw methods, ``RngPolicy.stream``, the per-chunk callable handed to
``chunked_map`` and ``write_csv``.  Names are looked up through ``__all__``
and missing ones are skipped, so a refactor that merges or deletes public
functions leaves tracing working; a layer with nothing left reports zeros.

Spans are kept in memory as rows ``[name, layer, kind, start, end, parent,
size]`` and written out once at the end of the run.  ``kind`` is ``call``
for a public function, ``draw`` for a jump draw (``size`` = number of
draws), ``chunk`` for one chunk of ``chunked_map`` and ``write`` for a CSV
(``size`` = bytes written).  A chunk span belongs to the layer that called
``chunked_map``: the per-chunk work is that layer's code.  Each thread keeps
its own stack of open spans, so a chunk run on a pool thread (``workers`` >
1, which no workload sets) becomes a root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable

LAYERS = (
    "runner", "lawcheck", "transforms", "renewal", "passage",
    "processes", "rw_ladder", "rng", "results",
)

TAIL_PATHS = 256  # a draw call on fewer paths than this is a tail call

NAME, LAYER, KIND, START, END, PARENT, SIZE = range(7)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list[Any]] = []
        self._local = threading.local()  # per-thread stack of open spans
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, fn: Callable, args, kwargs, name: str, layer: str, kind: str,
             size: int = 0, size_after: Callable[[], int] | None = None):
        """Run ``fn(*args, **kwargs)`` inside a new span; ``size_after``, if
        given, sets the span's size once the call has returned."""
        row = [name, layer, kind, 0.0, 0.0, self.current(), size]
        with self._lock:
            self.spans.append(row)
            idx = len(self.spans) - 1
        stack = self._stack()
        stack.append(idx)
        row[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            row[END] = time.perf_counter()
            stack.pop()
        if size_after is not None:
            row[SIZE] = size_after()
        return result

    def dump(self) -> dict[str, Any]:
        return {"run_id": self.run_id, "spans": self.spans}


def _call_wrapper(tracer: Tracer, fn: Callable, name: str, layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(fn, args, kwargs, name, layer, "call")
    return wrapper


def _chunked_map_wrapper(tracer: Tracer, fn: Callable, name: str, layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(chunk_fn, *args, **kwargs):
        # The chunk work is the caller's code, so its span carries the
        # caller's layer; the chunked_map span itself is the rng layer's.
        caller = tracer.current()
        owner = layer if caller is None else tracer.spans[caller][LAYER]

        def chunk(*cargs, **ckwargs):
            return tracer.call(chunk_fn, cargs, ckwargs, f"{owner}.chunk", owner, "chunk")

        return tracer.call(fn, (chunk,) + args, kwargs, name, layer, "call")
    return wrapper


def _write_csv_wrapper(tracer: Tracer, fn: Callable, name: str, layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        return tracer.call(fn, (path,) + args, kwargs, name, layer, "write",
                           size_after=lambda: os.path.getsize(path))
    return wrapper


def _draw_wrapper(tracer: Tracer, fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, rng, size, *args, **kwargs):
        return tracer.call(fn, (self, rng, size) + args, kwargs, name, "processes", "draw",
                           size=int(size))
    return wrapper


_SPECIAL = {"chunked_map": _chunked_map_wrapper, "write_csv": _write_csv_wrapper}

# (module, class, method, kind): methods wrapped on their class.
_METHODS = (
    ("processes", "ProcessSpec", "sample_jumps", "draw"),
    ("processes", "BivariateSubordinatorSpec", "sample_atoms", "draw"),
    ("rng", "RngPolicy", "stream", "call"),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap the program's public functions; returns the span names installed.

    Call once, after ``import levyladder`` and before the run.
    """
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"levyladder.{layer}")
        except ModuleNotFoundError:
            continue
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "levyladder" or n.startswith("levyladder."))]
    installed = []
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn):
                continue
            home = fn.__module__.rpartition(".")[2]
            if home in LAYERS and home != layer:
                continue  # re-exported: wrapped under its own layer
            name = f"{layer}.{attr}"
            wrapper = _SPECIAL.get(attr, _call_wrapper)(tracer, fn, name, layer)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
            installed.append(name)
    for layer, cls_name, method, kind in _METHODS:
        cls = getattr(modules.get(layer), cls_name, None)
        fn = getattr(cls, method, None)
        if not inspect.isfunction(fn):
            continue
        name = f"{layer}.{cls_name}.{method}"
        if kind == "draw":
            wrapper = _draw_wrapper(tracer, fn, name)
        else:
            wrapper = _call_wrapper(tracer, fn, name, layer)
        setattr(cls, method, wrapper)
        installed.append(name)
    return installed


# ---------------------------------------------------------------- analysis


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for row in spans:
        if row[PARENT] is not None:
            children.setdefault(row[PARENT], []).append((row[START], row[END]))
    return [row[END] - row[START] - _union_length(children.get(i, []))
            for i, row in enumerate(spans)]


def layer_metrics(spans: list[list[Any]], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (see BENCHMARK.json ``per_layer``)."""
    self_s = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0
    root_busy = 0.0
    for i, row in enumerate(spans):
        layer = row[LAYER]
        m[f"{layer}.self_s"] += self_s[i]
        if row[KIND] != "chunk":
            m[f"{layer}.calls"] += 1
        # busy time counts a span only when no enclosing span is of its layer
        p = row[PARENT]
        while p is not None and spans[p][LAYER] != layer:
            p = spans[p][PARENT]
        if p is None:
            m[f"{layer}.busy_s"] += row[END] - row[START]
        if row[PARENT] is None:
            root_busy += row[END] - row[START]

    draws = [row for row in spans if row[KIND] == "draw"]
    m["processes.draw_calls"] = len(draws)
    m["processes.draws"] = sum(row[SIZE] for row in draws)
    m["processes.draws_per_call"] = m["processes.draws"] / len(draws) if draws else 0.0
    m["processes.tail_calls"] = sum(1 for row in draws if row[SIZE] < TAIL_PATHS)
    by_layer = {layer: 0 for layer in LAYERS}
    for row in draws:
        p = row[PARENT]
        while p is not None and spans[p][LAYER] == "processes":
            p = spans[p][PARENT]
        if p is not None:
            by_layer[spans[p][LAYER]] += 1
    for layer in ("passage", "renewal", "transforms"):
        m[f"{layer}.draw_calls"] = by_layer[layer]

    chunks = [row[END] - row[START] for row in spans if row[KIND] == "chunk"]
    m["rng.chunks"] = len(chunks)
    m["rng.chunk_p50_s"] = statistics.median(chunks) if chunks else 0.0
    m["rng.chunk_max_s"] = max(chunks, default=0.0)

    writes = [row for row in spans if row[KIND] == "write"]
    m["results.files"] = len(writes)
    m["results.bytes"] = sum(row[SIZE] for row in writes)
    m["trace.unattributed_s"] = max(wall_s - root_busy, 0.0)
    return m


# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "processes.draw_calls", "processes.draws", "processes.tail_calls",
    "rng.chunks", "results.bytes",
)

"""Spans recorded around the benchmark's calls into the program's layers.

A span holds its name, start, end, the span that caused it and the op it
belongs to, plus counters (``attrs``) measured where the work happens.
Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' durations minus the part of each interval that
child spans cover.

The program itself carries no tracing: in-process workloads open spans
around each public call they make, and the cached-sweep cells, which run
inside ``parallel_map`` workers, are traced by temporarily wrapping the
public functions those cells call (:func:`instrument`).  Worker spans
ride back to the parent with each cell's result.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: The program's layers, by module name; a span named ``<layer>`` or
#: ``<layer>.<detail>`` is attributed to that layer.
LAYERS = (
    "graphs.generators",
    "graphs.properties",
    "sim.topology",
    "sim.engine",
    "obs",
    "io",
    "experiments.cache",
    "experiments.parallel",
)

#: Name of spans that belong to the benchmark itself (the op, a worker
#: task): their self time is what no named layer covers.
BENCH = "bench"

# Span ids are "<pid>.<n>"; one counter per process keeps them unique
# across the tracers a worker creates, one per cell.
_ids = itertools.count()


def layer_of(name: str) -> str:
    """The layer a span name belongs to, or :data:`BENCH`."""
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return BENCH


class Tracer:
    """Collects finished spans of one process."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.op: Optional[int] = None
        self._stack: List[str] = []

    def current(self) -> Optional[str]:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Time the body as one span; yields its counter dict."""
        span = {
            "id": f"{os.getpid()}.{next(_ids)}",
            "parent": self.current(),
            "name": name,
            "op": self.op,
            "attrs": {},
        }
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield span["attrs"]
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def adopt(self, spans: List[Dict[str, Any]], parent: Optional[str]) -> None:
        """Take over spans recorded in a worker; roots hang off ``parent``."""
        for span in spans:
            if span["parent"] is None:
                span["parent"] = parent
            span["op"] = self.op
            self.spans.append(span)


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False
    op = None

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        yield {}


def _union_length(intervals: List[tuple], lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the part covered by its children."""
    children: Dict[str, List[tuple]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    return {
        span["id"]: (span["end"] - span["start"]) - _union_length(
            children.get(span["id"], []), span["start"], span["end"]
        )
        for span in spans
    }


def summarize(spans: List[Dict[str, Any]], ops: int) -> Dict[str, Any]:
    """Per-op means of layer self times, named span durations and counters.

    Returns ``{"self": {layer: s}, "named": {span name: s}, "counts":
    {attr: value}, "total": s, "unattributed": {span name: s}}`` where
    ``total`` is all span self time per op (summed across processes) and
    ``unattributed`` splits the benchmark's own self time by span name.
    """
    own = self_times(spans)
    selfs = {layer: 0.0 for layer in LAYERS}
    named: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    unattributed: Dict[str, float] = {}
    for span in spans:
        layer = layer_of(span["name"])
        if layer == BENCH:
            unattributed[span["name"]] = (
                unattributed.get(span["name"], 0.0) + own[span["id"]]
            )
        else:
            selfs[layer] += own[span["id"]]
        named[span["name"]] = (
            named.get(span["name"], 0.0) + span["end"] - span["start"]
        )
        for key, value in span["attrs"].items():
            counts[key] = counts.get(key, 0) + value
    per = max(ops, 1)
    return {
        "self": {k: v / per for k, v in selfs.items()},
        "named": {k: v / per for k, v in named.items()},
        "counts": {k: v / per for k, v in counts.items()},
        "unattributed": {k: v / per for k, v in unattributed.items()},
        "total": sum(own.values()) / per,
    }


# -- worker-side tracing of cached-sweep cells ---------------------------------

@contextmanager
def _patched(owner, attr: str, wrapper_of) -> Iterator[None]:
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper_of(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: run the function inside a span named ``name``;
    ``after(attrs, args, result)`` records counters from the result."""
    def wrap(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                out = fn(*args, **kwargs)
            if after is not None:
                after(attrs, args, out)
            return out
        return wrapper
    return wrap


def engine_counts(n: int, metrics) -> Dict[str, int]:
    """Per-layer counters of one engine run."""
    return {
        "sim.engine.rounds": metrics.rounds,
        "sim.engine.messages": metrics.messages_sent,
        "sim.engine.tokens": metrics.tokens_sent,
        "sim.engine.node_rounds": n * metrics.rounds,
    }


def _engine_counts(attrs, args, result) -> None:
    attrs.update(engine_counts(result.n, result.metrics))


def _get_counts(attrs, args, record) -> None:
    store, key = args[0], args[1]
    attrs["experiments.cache.lookups"] = 1
    if record is not None:
        attrs["experiments.cache.hits"] = 1
        # ResultCache.get reads the entry at this path (its storage layout)
        attrs["io.bytes_read"] = store._path(key).stat().st_size


def _put_counts(attrs, args, path) -> None:
    size = path.stat().st_size
    attrs["experiments.cache.entries_written"] = 1
    attrs["experiments.cache.bytes_stored"] = size
    attrs["io.bytes_written"] = size


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Span the layer calls a sweep cell makes inside ``execute``."""
    from repro.experiments import cache as cache_mod
    from repro.sim.engine import SynchronousEngine

    targets = [
        (SynchronousEngine, "run", _spanned(tracer, "sim.engine", _engine_counts)),
        (cache_mod.ResultCache, "get",
         _spanned(tracer, "experiments.cache", _get_counts)),
        (cache_mod.ResultCache, "put",
         _spanned(tracer, "experiments.cache", _put_counts)),
        (cache_mod, "scenario_fingerprint",
         _spanned(tracer, "experiments.cache.fingerprint")),
        (cache_mod, "scenario_to_dict", _spanned(tracer, "io.encode")),
        (cache_mod, "run_record_to_dict", _spanned(tracer, "io.encode")),
        (cache_mod, "run_record_from_dict", _spanned(tracer, "io.decode")),
    ]
    with ExitStack() as stack:
        for owner, attr, wrap in targets:
            stack.enter_context(_patched(owner, attr, wrap))
        yield


#: The tracer of the cell running in this process (set by :func:`run_task`,
#: read by the traced scenario builders, which run inside the cell).
_task_tracer: Optional[Tracer] = None


def task_tracer() -> Tracer:
    """The running cell's tracer (a fresh one outside :func:`run_task`)."""
    return _task_tracer if _task_tracer is not None else Tracer()


def run_task(job):
    """Picklable worker entry: one traced cell -> ``(result, spans)``."""
    global _task_tracer
    fn, item = job
    _task_tracer = tracer = Tracer()
    try:
        with instrument(tracer), tracer.span("bench.task"):
            out = fn(item)
    finally:
        _task_tracer = None
    return out, tracer.spans


@contextmanager
def traced_sweeps(tracer: Tracer) -> Iterator[None]:
    """Route ``sweep_records``' ``parallel_map`` through traced tasks.

    Heartbeat ``task`` events give each cell's busy time; worker spans
    give queue wait (task start minus the call's start, same monotonic
    clock across processes).
    """
    from repro.experiments import parallel, sweeps

    real = parallel.parallel_map

    def traced_parallel_map(fn, items, processes=None, **kwargs):
        items = list(items)
        events: List[Dict[str, Any]] = []
        with tracer.span("experiments.parallel") as attrs:
            parent = tracer.current()
            start = time.perf_counter()
            pairs = real(run_task, [(fn, item) for item in items],
                         processes, heartbeat=events.append, **kwargs)
            wall = time.perf_counter() - start
        workers = min(processes or os.cpu_count() or 1, max(len(items), 1))
        busy = sum(e.get("ms", 0.0) for e in events
                   if e.get("status") == "done") / 1000.0
        attrs["experiments.parallel.busy_s"] = busy
        attrs["experiments.parallel.capacity_s"] = wall * workers
        attrs["experiments.parallel.queue_wait_s"] = sum(
            root["start"] - start
            for _, spans in pairs for root in spans if root["parent"] is None
        )
        results = []
        for out, spans in pairs:
            tracer.adopt(spans, parent)
            results.append(out)
        return results

    with _patched(sweeps, "parallel_map", lambda _: traced_parallel_map):
        yield

"""Span tracing of the simulator's layers, from outside the program.

The benchmark measures per-layer time without touching program code:
:class:`Tracer` patches the module attributes and methods that callers
resolve at call time (``repro.core.exec.engine.fetch_trace``,
``repro.trace.workloads.build_program``, ``Simulator.run``, ...) with
wrappers that record one span per call. A span carries its layer, the
point it serves and its parent span, so per-layer *self* time (span
time minus the time its child spans cover) sums, over all layers, to
the time the root spans cover. Spans stay in memory and are written
out once, as Chrome ``trace_event`` JSON that Perfetto opens.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, attribute path, layer, span name). A dotted attribute path
#: patches a method on a class. Every target is a name its callers look
#: up at call time, so the wrapper is what runs.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.exec.engine", "execute_point", "engine", "execute_point"),
    ("repro.core.exec.engine", "fetch_trace", "engine", "fetch_trace"),
    ("repro.core.exec.engine", "fetch_batch_plan", "engine", "fetch_batch_plan"),
    ("repro.core.exec.engine", "get_trace", "trace", "get_trace"),
    ("repro.core.exec.engine", "build_simulator", "simulator", "build"),
    ("repro.trace.workloads", "build_program", "trace", "cfg_build"),
    ("repro.trace.workloads", "synthesize_trace", "trace", "synth"),
    ("repro.trace.columnar", "build_batch_plan", "columnar", "plan_build"),
    ("repro.core.passes.kernel", "get_kernel", "passes", "get_kernel"),
    ("repro.core.passes.kernel", "get_batch_kernel", "passes", "get_kernel"),
    ("repro.core.simulator", "Simulator.run", "simulator", "run"),
    ("repro.core.exec.diskcache", "DiskCache.load_result", "diskcache", "result_load"),
    ("repro.core.exec.diskcache", "DiskCache.store_result", "diskcache", "result_store"),
    ("repro.core.exec.diskcache", "DiskCache.load_trace", "diskcache", "trace_load"),
    ("repro.core.exec.diskcache", "DiskCache.store_trace", "diskcache", "trace_store"),
    ("repro.core.exec.diskcache", "DiskCache.load_plan", "diskcache", "plan_load"),
    ("repro.core.exec.diskcache", "DiskCache.store_plan", "diskcache", "plan_store"),
)

#: Daemon-side targets, added when the tracer runs inside ``serve``.
SERVICE_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.service.jobs", "run_points", "engine", "run_points"),
    ("repro.service.jobs", "JobManager.submit", "service", "submit"),
    ("repro.service.jobs", "JobManager._resolve_flight", "service", "resolve"),
    ("repro.service.store", "JobStore.append", "store", "append"),
)

LAYERS = ("engine", "trace", "diskcache", "passes", "columnar", "simulator",
          "service", "store")

#: Span fields, in the order :meth:`Tracer.dump` serialises them.
FIELDS = ("id", "parent", "layer", "name", "point", "tid", "start", "end",
          "child_ns", "work")


class Span:
    """One timed call. ``work`` counts simulated instructions for
    ``simulator.run`` spans; times are ``perf_counter_ns`` values, which
    share one monotonic clock across the processes of a host."""

    __slots__ = FIELDS

    def __init__(self, *values) -> None:
        for name, value in zip(FIELDS, values):
            setattr(self, name, value)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start - self.child_ns) / 1e9


def point_label(point) -> str:
    """Short identity of a ``SweepPoint`` for span arguments."""
    return (f"{point.config.label}|bp{point.config.bp_size_kb}|"
            f"{point.workload}|{point.length}|{point.seed}")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter_ns()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str, name: str, point: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if point is None and parent is not None:
            point = parent.point
        now = time.perf_counter_ns()
        span = Span(next(self._ids), parent.id if parent else None, layer,
                    name, point, threading.get_ident(), now, now, 0, 0)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_ns += span.end - span.start
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, layer: str, name: str, point: Optional[str] = None):
        span = self.begin(layer, name, point)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        tracer = self
        if layer == "passes":
            from repro.core.passes.kernel import kernel_cache_info

            def traced(*args, **kwargs):
                span = tracer.begin(layer, name)
                before = kernel_cache_info()["misses"]
                try:
                    return fn(*args, **kwargs)
                finally:
                    if kernel_cache_info()["misses"] > before:
                        span.name = "compile"
                    tracer.end(span)
        else:
            def traced(*args, **kwargs):
                point = point_label(args[0]) if name == "execute_point" else None
                span = tracer.begin(layer, name, point)
                if layer == "simulator" and name == "run":
                    span.work = len(args[0].trace.pc)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(span)

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def install(self, targets: Iterable = TARGETS) -> "Tracer":
        for module_name, attr, layer, name in targets:
            owner = importlib.import_module(module_name)
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            setattr(owner, leaf, self.wrap(layer, name, original))
            self._patched.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    # -- export -------------------------------------------------------------

    def dump(self) -> dict:
        """Plain-data spans, for a traced daemon to hand back."""
        return {"spans": [[getattr(s, f) for f in FIELDS] for s in self.spans]}

    @staticmethod
    def load(doc: dict) -> List[Span]:
        return [Span(*values) for values in doc["spans"]]


# -- aggregation --------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per ``layer.name``."""
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[f"{span.layer}.{span.name}"] += span.self_seconds
    return dict(out)


def calls(spans: Iterable[Span]) -> Dict[str, int]:
    out: Dict[str, int] = defaultdict(int)
    for span in spans:
        out[f"{span.layer}.{span.name}"] += 1
    return dict(out)


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for key, seconds in self_times(spans).items():
        layer = key.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def root_seconds(spans: Iterable[Span]) -> float:
    """Time the root spans cover: the sum of every span's self time."""
    return sum(s.seconds for s in spans if s.parent is None)


def host_ns_per_inst(spans: Iterable[Span]) -> float:
    runs = [s for s in spans if s.layer == "simulator" and s.name == "run"]
    work = sum(s.work for s in runs)
    return sum(s.self_seconds for s in runs) * 1e9 / work if work else 0.0


def chrome(groups, origin: int, other: Optional[dict] = None) -> dict:
    """Chrome ``trace_event`` document, one complete slice per span.

    *groups* is ``[(process name, spans)]``; each becomes one process
    track, with one thread track per recording thread.
    """
    events = []
    for pid, (process, spans) in enumerate(groups):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": process}})
        tids = {tid: i + 1 for i, tid in enumerate(sorted({s.tid for s in spans}))}
        for index in tids.values():
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": index, "args": {"name": f"thread-{index}"}})
        for span in sorted(spans, key=lambda s: (s.start, -s.end)):
            args = {"id": span.id, "parent": span.parent, "point": span.point}
            if span.work:
                args["instructions"] = span.work
            events.append({
                "ph": "X", "name": f"{span.layer}.{span.name}",
                "cat": span.layer, "pid": pid, "tid": tids[span.tid],
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other or {}}


def span_cost_seconds(n: int = 20_000) -> float:
    """Measured cost of one traced call over an untraced one."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap("engine", "calibrate", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - t0 - plain) / n)

"""Spans around each layer's public entry points, and the per-layer metrics.

The traced run measures the program from outside: :func:`install`
replaces each entry point named in :data:`ENTRY_POINTS` with a wrapper
that records a span (name, start, end, parent span, request id) while
the tracer is enabled, and calls straight through while it is not.
Spans stay in memory until the run ends.  :func:`layer_metrics` turns
them into the per-layer numbers ``BENCHMARK.json`` lists.

Known limit: ``Session.ingest`` reaches the planner through the private
``_durable_apply`` and the session lock is private, so
``sessions.ingest_self_ms`` lumps lock wait, event parsing and the
planner re-solve together.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import percentile

#: The kernels whose calls are counted (the ones the engines route through).
KERNELS = (
    "outer_downdate",
    "conditional_gains",
    "marginal_gains",
    "convolve_support",
    "normal_surprise_scores",
)

#: span name -> the ``(module, attribute path)`` entry points it wraps.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "http.handler": (
        ("repro.service.app", "ServiceHandler.do_GET"),
        ("repro.service.app", "ServiceHandler.do_POST"),
    ),
    # The app imported canonical_json by name: wrap the app's binding.
    "wire.encode": (("repro.service.app", "canonical_json"),),
    "sessions.read": (("repro.service.sessions", "Session.snapshot_plan"),),
    "sessions.ingest": (("repro.service.sessions", "Session.ingest"),),
    "store.txn": (("repro.store.sqlite_store", "PlanStore.transaction"),),
    "store.checkpoint": (("repro.store.sqlite_store", "PlanStore.save_checkpoint"),),
    "store.writeback": (
        ("repro.store.columns", "DatabasePageStore.write_back_reveal"),
        ("repro.store.columns", "DatabasePageStore.write_back_cost"),
    ),
    "planner.apply": (("repro.streaming.planner", "StreamingPlanner.apply"),),
    "core.select": (("repro.core.greedy", "GreedyDep.select_indices"),),
    "core.readback": (("repro.core.solver", "SelectionTrace.indices_at"),),
    "engine.condition": (("repro.uncertainty.correlation", "ConditionalGaussian.condition_on"),),
    "engine.gains": (("repro.uncertainty.correlation", "ConditionalGaussian.gains"),),
    **{f"kernels.{name}": (("repro.kernels", name),) for name in KERNELS},
    "workloads.build": (
        ("repro.workloads", "build_workload"),
        ("repro.workloads.spec", "build_workload"),
        ("repro.service.sessions", "SessionConfig.build_inputs"),
        ("repro.experiments.workloads", "uniqueness_workload"),
    ),
}

#: Every per-layer metric a traced run reports, in ``BENCHMARK.json`` order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("http.requests", "count"),
    ("http.handler_ms", "ms"),
    ("http.wire_ms", "ms"),
    ("wire.encode_ms", "ms"),
    ("sessions.read_ms", "ms"),
    ("sessions.ingest_ms", "ms"),
    ("sessions.ingest_self_ms", "ms"),
    ("sessions.idempotent_replays", "count"),
    ("store.txns", "count"),
    ("store.txn_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.page_writebacks", "count"),
    ("store.page_writeback_ms", "ms"),
    ("store.bytes_per_event", "bytes"),
    ("store.retries", "count"),
    ("planner.apply_ms", "ms"),
    ("planner.apply_self_ms", "ms"),
    ("planner.warm", "count"),
    ("planner.replan", "count"),
    ("planner.cold", "count"),
    ("planner.prefix_kept_ratio", "fraction"),
    ("core.select_ms", "ms"),
    ("core.select_self_ms", "ms"),
    ("core.steps", "count"),
    ("core.readbacks", "count"),
    ("core.readback_ms", "ms"),
    ("engine.conditions", "count"),
    ("engine.condition_self_ms", "ms"),
    ("engine.gains_calls", "count"),
    ("engine.gains_self_ms", "ms"),
    *(
        (f"kernels.{name}.{field}", unit)
        for name in KERNELS
        for field, unit in (("calls", "count"), ("ms", "ms"), ("bytes", "bytes"))
    ),
    ("kernels.fallbacks", "count"),
    ("workloads.build_ms", "ms"),
    ("trace.overhead_ratio", "fraction"),
    ("trace.uncovered_ratio", "fraction"),
)


#: Workload-measured metrics that read 0 when the workload does not pass
#: ``measured`` values for them (it has no planner or store).
UNREACHED_BY_DEFAULT = (
    "store.bytes_per_event",
    "planner.warm",
    "planner.replan",
    "planner.cold",
    "planner.prefix_kept_ratio",
)


@dataclass
class Span:
    """One timed call into a layer (times are ``perf_counter`` seconds)."""

    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request: Optional[str]
    note: Optional[Dict[str, float]] = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def as_list(self) -> list:
        return [self.span_id, self.parent, self.name, self.start, self.end, self.request, self.note]


def _array_bytes(args: Sequence[object]) -> Dict[str, float]:
    """Bytes a kernel call touches, computed from its array arguments."""
    return {"bytes": float(sum(getattr(arg, "nbytes", 0) for arg in args))}


#: span name -> ``note(args, result)``: counts recorded at the boundary.
NOTES: Dict[str, Callable[[Sequence[object], object], Dict[str, float]]] = {
    **{f"kernels.{name}": (lambda args, result: _array_bytes(args)) for name in KERNELS},
    "sessions.ingest": lambda args, result: {
        "replay": float(bool(isinstance(result, dict) and result.get("idempotent_replay")))
    },
    "core.select": lambda args, result: {"steps": float(len(result))},
}


class Tracer:
    """An in-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_request(self, request: Optional[str]) -> None:
        """Tag the calling thread's later spans with ``request``."""
        self._local.request = request

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, opened, name: str, note: Optional[Dict[str, float]] = None) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        self._stack().pop()
        request = getattr(self._local, "request", None)
        self.spans.append(Span(span_id, parent, name, start, end, request, note))

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with a span named ``name`` around every enabled call."""
        note = NOTES.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            opened = self._open()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                self._close(opened, name)
                raise
            self._close(opened, name, note(args, result) if note else None)
            return result

        return traced

    def wrap_context(self, factory: Callable, name: str) -> Callable:
        """``factory`` whose returned context manager is spanned while open."""
        tracer = self

        class _Spanned:
            def __init__(self, inner) -> None:
                self._inner = inner
                self._opened = None

            def __enter__(self):
                if tracer.enabled:
                    self._opened = tracer._open()
                return self._inner.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self._inner.__exit__(*exc_info)
                finally:
                    if self._opened is not None:
                        tracer._close(self._opened, name)

        @functools.wraps(factory)
        def spanned(*args, **kwargs):
            return _Spanned(factory(*args, **kwargs))

        return spanned


def install(tracer: Tracer) -> None:
    """Replace every entry point of :data:`ENTRY_POINTS` with its wrapper."""
    for name, entry_points in ENTRY_POINTS.items():
        for module_name, path in entry_points:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attribute)
            wrap = tracer.wrap_context if name == "store.txn" else tracer.wrap
            setattr(owner, attribute, wrap(original, name))


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #
class SpanIndex:
    """Spans of one process, indexed for busy and self time."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span.span_id: span for span in self.spans}
        self.child_ms: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                self.child_ms[span.parent] = self.child_ms.get(span.parent, 0.0) + span.ms

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def _nested_in_same(self, span: Span) -> bool:
        parent = self.by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = self.by_id.get(parent.parent) if parent.parent is not None else None
        return False

    def busy_ms(self, name: str) -> float:
        """Time spent in ``name``, counting a call nested in another once."""
        return sum(s.ms for s in self.named(name) if not self._nested_in_same(s))

    def self_ms(self, name: str) -> float:
        """Duration of ``name``'s spans minus the time their children cover."""
        return sum(s.ms - self.child_ms.get(s.span_id, 0.0) for s in self.named(name))

    def note_sum(self, name: str, key: str) -> float:
        return sum((s.note or {}).get(key, 0.0) for s in self.named(name))

    def root_ms(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(s.ms for s in self.spans if s.parent is None)


def planner_metrics(modes: Sequence[str], kept: Sequence[Tuple[int, int]]) -> Dict[str, float]:
    """``planner.*`` counts from the re-solve summaries of the traced half.

    ``modes`` holds each summary's mode, ``kept`` each event's ``(prefix
    steps kept, steps of the plan before the event)``.
    """
    kept = [(k, n) for k, n in kept if n]
    return {
        "planner.warm": float(modes.count("warm")),
        "planner.replan": float(modes.count("replan")),
        "planner.cold": float(modes.count("cold")),
        "planner.prefix_kept_ratio": sum(k for k, _ in kept) / sum(n for _, n in kept) if kept else 0.0,
    }


def trace_metrics(
    traced_ms: Sequence[float], untraced_ms: Sequence[float], covered_ms: float, wall_ms: float
) -> Dict[str, float]:
    """The tracing overhead (mean op latency of the traced half over the
    untraced half, minus 1) and the share of ``wall_ms`` no span covers."""
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    return {
        "trace.overhead_ratio": mean(traced_ms) / mean(untraced_ms) - 1.0,
        "trace.uncovered_ratio": 1.0 - covered_ms / wall_ms,
    }


def layer_metrics(
    setup_spans: Sequence[Span],
    spans: Sequence[Span],
    measured: Dict[str, float],
    client_ops: Sequence[Tuple[str, float]] = (),
) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced run.

    ``setup_spans`` are the program-side spans of set-up (they give
    ``workloads.build_ms``), ``spans`` those of the traced segment,
    ``client_ops`` the ``(request id, round-trip ms)`` pairs a service
    client saw in it, and ``measured`` the metrics the workload computes
    itself (planner summaries, store growth, degradation counters,
    overhead and coverage).  Layers the workload does not reach read 0.
    """
    index = SpanIndex(spans)
    handlers = index.named("http.handler")
    handler_ms = {s.request: s.ms for s in handlers if s.request is not None}
    wire = [rtt - handler_ms[rid] for rid, rtt in client_ops if rid in handler_ms]
    metrics: Dict[str, float] = {
        "http.requests": float(len(handlers)),
        "http.handler_ms": percentile([s.ms for s in handlers], 50) if handlers else 0.0,
        "http.wire_ms": percentile(wire, 50) if wire else 0.0,
        "wire.encode_ms": index.busy_ms("wire.encode"),
        "sessions.read_ms": index.busy_ms("sessions.read"),
        "sessions.ingest_ms": index.busy_ms("sessions.ingest"),
        "sessions.ingest_self_ms": index.self_ms("sessions.ingest"),
        "sessions.idempotent_replays": index.note_sum("sessions.ingest", "replay"),
        "store.txns": float(len(index.named("store.txn"))),
        "store.txn_ms": index.busy_ms("store.txn"),
        "store.checkpoints": float(len(index.named("store.checkpoint"))),
        "store.checkpoint_ms": index.busy_ms("store.checkpoint"),
        "store.page_writebacks": float(len(index.named("store.writeback"))),
        "store.page_writeback_ms": index.busy_ms("store.writeback"),
        "planner.apply_ms": index.busy_ms("planner.apply"),
        "planner.apply_self_ms": index.self_ms("planner.apply"),
        "core.select_ms": index.busy_ms("core.select"),
        "core.select_self_ms": index.self_ms("core.select"),
        "core.steps": index.note_sum("core.select", "steps"),
        "core.readbacks": float(len(index.named("core.readback"))),
        "core.readback_ms": index.busy_ms("core.readback"),
        "engine.conditions": float(len(index.named("engine.condition"))),
        "engine.condition_self_ms": index.self_ms("engine.condition"),
        "engine.gains_calls": float(len(index.named("engine.gains"))),
        "engine.gains_self_ms": index.self_ms("engine.gains"),
        "workloads.build_ms": SpanIndex(setup_spans).busy_ms("workloads.build"),
    }
    for name in KERNELS:
        span_name = f"kernels.{name}"
        metrics[f"{span_name}.calls"] = float(len(index.named(span_name)))
        metrics[f"{span_name}.ms"] = index.busy_ms(span_name)
        metrics[f"{span_name}.bytes"] = index.note_sum(span_name, "bytes")
    metrics.update({name: 0.0 for name in UNREACHED_BY_DEFAULT if name not in measured})
    metrics.update(measured)
    missing = [name for name, _ in LAYER_METRICS if name not in metrics]
    if missing:
        raise KeyError(f"per-layer metrics not measured: {missing}")
    return {name: float(metrics[name]) for name, _ in LAYER_METRICS}

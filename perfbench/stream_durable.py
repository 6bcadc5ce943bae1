"""Workload ``stream_durable``: a journal applied durably, event after event.

The inputs are the n=2000 URx uniqueness workload (gamma 100, window 4,
budget 15% of the total cost) and a ``synthesize_journal`` journal of
:data:`EVENTS` events at the default mix of reveal, cost_change, insert
and remove.  Each op is one ``StreamingPlanner.apply`` on a planner bound
to a fresh ``PlanStore`` with ``checkpoint_every=10``.  When the journal
runs out before time does, a new pass starts on a fresh planner and a
fresh store (outside the timed phase), so every pass sees the same
per-event work.

The correctness gate replays the journal in memory with
``replay_journal(..., compare_cold=False)``; the plan records each pass
committed to its store must give the same ``plan_signature``, and
``PlanStore.verify()`` must find no corrupt row.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from common import (
    Outcome,
    RunContext,
    degradation_delta,
    derive_seed,
    file_bytes,
    repeated_setup,
    self_peak_rss_mb,
)

N = 2000
GAMMA = 100.0
WINDOW = 4
BUDGET_FRACTION = 0.15
EVENTS = 400
CHECKPOINT_EVERY = 10
STREAM = "bench"
#: A segment stops after this many failed applies instead of cycling passes.
MAX_ERRORS = 10


@dataclass
class Inputs:
    database: object
    function: object
    budget: float
    journal: object


@dataclass
class Pass:
    """One fresh planner + store working through the journal."""

    path: str
    store: object
    planner: object
    applied: int = 0


@dataclass
class EventLog:
    """What one timed segment applied."""

    latencies_ms: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    modes: List[str] = field(default_factory=list)
    kept: List[Tuple[int, int]] = field(default_factory=list)  # (prefix kept, previous plan length)
    errors: List[str] = field(default_factory=list)


def build_inputs(seed: int, journal=None, n: int = N, events: int = EVENTS) -> Inputs:
    """The workload (timed as set-up) and, unless given, its journal."""
    from repro.core.problems import budget_from_fraction
    from repro.datasets.synthetic import generate_urx
    from repro.experiments import workloads
    from repro.streaming.events import synthesize_journal

    workload = workloads.uniqueness_workload(
        generate_urx(n, derive_seed(seed, 0)), window_width=WINDOW, gamma=GAMMA
    )
    database = workload.database
    if journal is None:
        journal = synthesize_journal(database, events, derive_seed(seed, 1))
    budget = budget_from_fraction(database, BUDGET_FRACTION)
    return Inputs(database, workload.query_function, budget, journal)


def open_pass(inputs: Inputs, path: str) -> Pass:
    """A fresh store at ``path`` and a planner bound to it (initial solve)."""
    from repro.store.sqlite_store import PlanStore
    from repro.streaming.planner import StreamingPlanner

    store = PlanStore(path)
    try:
        planner = StreamingPlanner(
            inputs.database, inputs.function, budget=inputs.budget, checkpoint_every=CHECKPOINT_EVERY
        )
        planner.bind_store(store, stream_id=STREAM, checkpoint_every=CHECKPOINT_EVERY)
    except BaseException:
        store.close()
        raise
    return Pass(path, store, planner)


class Stream:
    """Passes over the journal; the live pass carries over between segments."""

    def __init__(self, inputs: Inputs, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        self.finished: List[Tuple[str, int]] = []  # (store path, events applied)
        self.current = self._open()

    def _open(self) -> Pass:
        path = os.path.join(self.workdir, f"stream{len(self.finished)}.sqlite")
        return open_pass(self.inputs, path)

    def _next_pass(self) -> None:
        self.current.store.close()
        self.finished.append((self.current.path, self.current.applied))
        self.current = self._open()

    def passes(self) -> List[Tuple[str, int]]:
        return self.finished + [(self.current.path, self.current.applied)]

    def store_files(self) -> List[str]:
        return [path + suffix for path, _ in self.passes() for suffix in ("", "-wal")]

    def close(self) -> None:
        self.current.store.close()

    def apply_for(self, seconds: float, log: EventLog) -> float:
        """Apply events for ``seconds`` of timed work; returns that time.

        Opening a fresh pass is set-up work and stays outside the clock.
        An event whose apply raises counts as a failed op and ends its pass.
        """
        events = self.inputs.journal.events
        timed = 0.0
        while timed < seconds:
            if self.current.applied == len(events):
                self._next_pass()
            current, planner = self.current, self.current.planner
            deadline = time.perf_counter() + (seconds - timed)
            started = time.perf_counter()
            failed = False
            while current.applied < len(events):
                previous = len(planner.plan)
                before = time.perf_counter()
                try:
                    summary = planner.apply(events[current.applied])
                except Exception as error:  # counted and reported, never retried
                    log.errors.append(f"event {current.applied}: {type(error).__name__}: {error}")
                    failed = True
                    break
                after = time.perf_counter()
                current.applied += 1
                log.latencies_ms.append((after - before) * 1000.0)
                log.kinds.append(str(summary["kind"]))
                log.modes.append(str(summary["mode"]))
                log.kept.append((int(summary["prefix_kept"]), previous))
                if after >= deadline:
                    break
            timed += time.perf_counter() - started
            if len(log.errors) >= MAX_ERRORS:
                break
            if failed:
                self._next_pass()
        return timed


def check(inputs: Inputs, passes: Sequence[Tuple[str, int]]) -> Dict[str, object]:
    """Each pass's durable plan records against one in-memory replay.

    ``passes`` holds ``(store path, events applied)``; a pass cut short
    by the clock is compared on its prefix.
    """
    from repro.store.sqlite_store import PlanStore, StoreCorruptionError
    from repro.streaming.events import Journal
    from repro.streaming.planner import StreamingPlanner
    from repro.streaming.replay import ReplayResult, plan_signature, replay_journal

    longest = max(applied for _, applied in passes)
    reference = replay_journal(
        Journal(inputs.journal.events[:longest]),
        lambda: StreamingPlanner(inputs.database, inputs.function, budget=inputs.budget),
        compare_cold=False,
    )
    problems: List[str] = []
    for path, applied in passes:
        with PlanStore(path) as store:
            corrupt = store.verify(STREAM)["corrupt"]
            if corrupt:
                problems.append(f"{os.path.basename(path)}: corrupt rows {corrupt[:3]}")
                continue
            try:
                records = [record for _, record in store.plan_records(STREAM)]
            except StoreCorruptionError as error:
                problems.append(f"{os.path.basename(path)}: {error}")
                continue
        durable = plan_signature(ReplayResult(records=records))
        expected = plan_signature(ReplayResult(records=reference.records[:applied]))
        if len(records) != applied or durable != expected:
            problems.append(f"{os.path.basename(path)}: durable plans differ from the in-memory replay")
    return {"passed": not problems, "passes": len(passes), "problems": problems}


def run(ctx: RunContext) -> Outcome:
    from repro.resilience.degradation import global_degradations

    tracer = None
    if ctx.trace:
        from tracing import SpanIndex, Tracer, install, layer_metrics, planner_metrics, trace_metrics

        tracer = Tracer()
        install(tracer)
    journal = build_inputs(ctx.seed).journal
    if tracer is not None:
        tracer.enabled = True  # set-up spans give workloads.build_ms
    def set_up(attempt: int) -> Stream:
        attempt_dir = os.path.join(ctx.workdir, f"setup{attempt}")
        os.makedirs(attempt_dir)
        return Stream(build_inputs(ctx.seed, journal), attempt_dir)

    stream, setups = repeated_setup(ctx, set_up, Stream.close)
    inputs = stream.inputs

    logs: List[EventLog] = []
    walls: List[float] = []
    layers = None
    try:
        for number, seconds in enumerate(ctx.segments):
            if tracer is not None and number == 0:
                tracer.enabled = False
                setup_spans, tracer.spans = tracer.spans, []
            elif tracer is not None:
                counters = global_degradations().snapshot()
                bytes_before = file_bytes(stream.store_files())
                tracer.enabled = True
            logs.append(EventLog())
            walls.append(stream.apply_for(seconds, logs[-1]))
        if tracer is not None:
            tracer.enabled = False
            traced, untraced = logs[1], logs[0]
            grown = file_bytes(stream.store_files()) - bytes_before
            measured = {
                "store.bytes_per_event": grown / max(len(traced.latencies_ms), 1),
                **degradation_delta(counters, global_degradations().snapshot()),
                **planner_metrics(traced.modes, traced.kept),
                **trace_metrics(
                    traced.latencies_ms,
                    untraced.latencies_ms,
                    SpanIndex(tracer.spans).root_ms(),
                    walls[1] * 1000.0,
                ),
            }
            layers = layer_metrics(setup_spans, tracer.spans, measured)
    finally:
        stream.close()

    mix: Dict[str, int] = {}
    for log in logs:
        for key in log.kinds + log.modes:
            mix[key] = mix.get(key, 0) + 1
    errors = [error for log in logs for error in log.errors]
    latencies = [ms for log in logs for ms in log.latencies_ms]
    return Outcome(
        setup_s=setups,
        latencies_ms={"event": latencies},
        attempted=len(latencies) + len(errors),
        failed=len(errors),
        wall_s=sum(walls),
        peak_rss_mb=self_peak_rss_mb(),
        mix=mix,
        gate=check(inputs, stream.passes()),
        layers=layers,
        notes={"failures": errors[:5]},
    )

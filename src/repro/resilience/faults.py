"""Deterministic, seeded fault injection for the robustness harness.

A :class:`FaultPlan` declares *where* faults strike (named injection sites)
and *how often* (a per-site rate).  The decision for each potential fault is
a pure function of ``(seed, site, per-site call counter)`` — a CRC32 hash
mapped to ``[0, 1)`` — so the same plan over the same code path injects the
same faults every run, whatever the thread or process interleaving of other
sites.  That determinism is what lets the chaos tests assert *zero plan
divergence*: a faulted replay and a clean replay can be compared plan for
plan because the faults (and the degradations absorbing them) are replayable.

Injection sites and the fault each raises / applies:

``kernel``
    :exc:`KernelBackendFault` before a compiled-kernel call — the dispatch
    layer degrades that one call to the numpy tier.
``pool``
    :exc:`WorkerCrashFault` when a pool future is collected — the sweep /
    matrix engines re-run that shard serially.
``store``
    A transient ``sqlite3.OperationalError("database is locked")``
    (:exc:`TransientStoreFault`) before a store statement — absorbed by the
    store's bounded retry loop.
``event``
    A NaN cost / value injected into a stream event just before it is
    applied (:func:`maybe_corrupt_event`) — the planner's validation rejects
    it and the durable runner re-reads the pristine event from the store.
``store-read``
    A transient ``sqlite3.OperationalError("disk I/O error")``
    (:exc:`StoreReadFault`) before a column-page read in the storage-backed
    database — absorbed by the page store's bounded retry loop.
``http``
    :exc:`HttpRequestFault` raised inside a service request handler *before*
    any durable write — the server maps it to a ``503`` so clients retry
    with the same idempotency key and observe an exactly-once ingest.

``max_consecutive`` bounds how many times in a row one site can fail
(default 2), which guarantees a bounded retry loop always converges; the
bound, like everything else, is deterministic.

A plan is installed process-wide with :func:`install_fault_plan` /
:func:`fault_scope`, or at import time through the ``REPRO_FAULTS``
environment variable (a JSON plan spec — see :meth:`FaultPlan.from_json`),
which is how the CI chaos leg runs the whole tier-1 suite under injected
faults.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional

from repro.resilience.degradation import record_degradation

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "HttpRequestFault",
    "InjectedFault",
    "KernelBackendFault",
    "StoreReadFault",
    "WorkerCrashFault",
    "TransientStoreFault",
    "active_fault_plan",
    "clear_fault_plan",
    "fault_scope",
    "faults_active",
    "injected_counts",
    "install_fault_plan",
    "maybe_corrupt_event",
    "maybe_inject",
]

#: The injection sites the codebase is instrumented with.
FAULT_SITES = ("kernel", "pool", "store", "event", "store-read", "http")


class InjectedFault(RuntimeError):
    """Base class of every injected failure (never raised by real faults)."""

    site = "unknown"


class KernelBackendFault(InjectedFault):
    """An injected compiled-kernel backend failure (site ``kernel``)."""

    site = "kernel"


class WorkerCrashFault(InjectedFault):
    """An injected worker-process crash (site ``pool``)."""

    site = "pool"


class TransientStoreFault(sqlite3.OperationalError):
    """An injected transient store lock (site ``store``).

    Subclasses ``sqlite3.OperationalError`` with the canonical "database is
    locked" message so the store's retry predicate treats injected and real
    lock contention identically.
    """

    site = "store"

    def __init__(self) -> None:
        super().__init__("database is locked (injected fault)")


class StoreReadFault(sqlite3.OperationalError):
    """An injected transient column-page read failure (site ``store-read``).

    Subclasses ``sqlite3.OperationalError`` with a "disk I/O error" message so
    the page store's retry predicate treats injected and real transient read
    failures identically.
    """

    site = "store-read"

    def __init__(self) -> None:
        super().__init__("disk I/O error (injected fault)")


class HttpRequestFault(InjectedFault):
    """An injected in-flight HTTP request failure (site ``http``).

    Raised inside the service's request handlers before any durable write so
    a killed request can never leave a partial journal append behind; the
    server surfaces it as a ``503`` and the client retries with the same
    idempotency key.
    """

    site = "http"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of faults over the injection sites.

    ``rates`` maps site names (:data:`FAULT_SITES`) to injection
    probabilities in ``[0, 1]``.  ``max_consecutive`` caps back-to-back
    failures at one site so bounded retries always succeed eventually;
    ``max_per_site`` optionally caps the *total* injections per site.
    """

    seed: int = 0
    rates: Mapping[str, float] = field(default_factory=dict)
    max_consecutive: int = 2
    max_per_site: Optional[int] = None

    def __post_init__(self) -> None:
        unknown = sorted(set(self.rates) - set(FAULT_SITES))
        if unknown:
            raise ValueError(
                f"unknown fault sites {unknown}; expected a subset of {FAULT_SITES}"
            )
        for site, rate in self.rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(f"fault rate for {site!r} must be in [0, 1], got {rate}")
        if self.max_consecutive < 1:
            raise ValueError("max_consecutive must be at least 1")
        object.__setattr__(self, "rates", dict(self.rates))

    def decide(self, site: str, call_index: int) -> bool:
        """Whether the ``call_index``-th call at ``site`` draws a fault.

        Pure and stateless: a CRC32 of ``"seed|site|call_index"`` mapped to
        ``[0, 1)`` compared against the site's rate.  The consecutive /
        total caps are applied by the stateful tracker, not here.
        """
        rate = float(self.rates.get(site, 0.0))
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        token = f"{self.seed}|{site}|{call_index}".encode("ascii")
        return (zlib.crc32(token) & 0xFFFFFFFF) / 2.0**32 < rate

    def to_json(self) -> str:
        """The JSON wire form ``REPRO_FAULTS`` / the chaos CLI accept."""
        payload = {
            "seed": self.seed,
            "rates": dict(self.rates),
            "max_consecutive": self.max_consecutive,
        }
        if self.max_per_site is not None:
            payload["max_per_site"] = self.max_per_site
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, spec: str) -> "FaultPlan":
        """Parse a plan from its JSON wire form.

        Two shapes are accepted: the full ``{"seed": ..., "rates": {...}}``
        object, or a bare rates mapping ``{"kernel": 0.1}`` (seed 0).
        """
        payload = json.loads(spec)
        if not isinstance(payload, dict):
            raise ValueError(f"fault plan spec must be a JSON object, got {spec!r}")
        if "rates" not in payload and all(k in FAULT_SITES for k in payload):
            payload = {"rates": payload}
        return cls(
            seed=int(payload.get("seed", 0)),
            rates={str(k): float(v) for k, v in payload.get("rates", {}).items()},
            max_consecutive=int(payload.get("max_consecutive", 2)),
            max_per_site=(
                int(payload["max_per_site"]) if payload.get("max_per_site") is not None else None
            ),
        )


class _FaultState:
    """The mutable tracker pairing an installed plan with its call counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._consecutive: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}

    def should_fail(self, site: str) -> bool:
        with self._lock:
            index = self._calls.get(site, 0)
            self._calls[site] = index + 1
            fail = self.plan.decide(site, index)
            if fail and self._consecutive.get(site, 0) >= self.plan.max_consecutive:
                fail = False  # force success so bounded retries converge
            if fail and self.plan.max_per_site is not None:
                if self._injected.get(site, 0) >= self.plan.max_per_site:
                    fail = False
            if fail:
                self._consecutive[site] = self._consecutive.get(site, 0) + 1
                self._injected[site] = self._injected.get(site, 0) + 1
            else:
                self._consecutive[site] = 0
            return fail

    def injected_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._injected.items()))


_STATE: Optional[_FaultState] = None

_SITE_ERRORS = {
    "kernel": KernelBackendFault,
    "pool": WorkerCrashFault,
    "store": TransientStoreFault,
    "store-read": StoreReadFault,
    "http": HttpRequestFault,
}

#: Sites whose fault classes bake in their canonical message (no-arg init).
_NO_ARG_SITES = frozenset({"store", "store-read"})


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-wide (``None`` clears it); counters start fresh."""
    global _STATE
    _STATE = None if plan is None else _FaultState(plan)


def clear_fault_plan() -> None:
    """Remove any installed fault plan."""
    install_fault_plan(None)


def active_fault_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    state = _STATE
    return None if state is None else state.plan


def faults_active() -> bool:
    """Cheap hot-path guard: is any fault plan installed?"""
    return _STATE is not None


def injected_counts() -> Dict[str, int]:
    """Per-site counts of faults injected so far (empty without a plan)."""
    state = _STATE
    return {} if state is None else state.injected_counts()


@contextmanager
def fault_scope(plan: FaultPlan) -> Iterator[None]:
    """Scoped installation: ``with fault_scope(plan): ...`` restores the prior plan."""
    global _STATE
    previous = _STATE
    _STATE = _FaultState(plan)
    try:
        yield
    finally:
        _STATE = previous


def maybe_inject(site: str) -> None:
    """Raise the site's fault when the active plan schedules one.

    No-op without an installed plan.  Site ``event`` does not raise — it
    corrupts data instead — so use :func:`maybe_corrupt_event` for it.
    """
    state = _STATE
    if state is None:
        return
    if state.should_fail(site):
        record_degradation("faults", f"injected_{site}")
        error = _SITE_ERRORS.get(site)
        if error is None:
            raise InjectedFault(f"injected fault at site {site!r}")
        raise error() if site in _NO_ARG_SITES else error(f"injected fault at site {site!r}")


def maybe_corrupt_event(event):
    """Possibly poison a stream event with a NaN (site ``event``).

    Returns the event unchanged without a scheduled fault; otherwise returns
    a copy with its ``cost`` (or ``value``) replaced by NaN — the shape of a
    corrupted upstream feed the planner's validation must reject.
    """
    state = _STATE
    if state is None or not state.should_fail("event"):
        return event
    record_degradation("faults", "injected_event")
    from dataclasses import replace

    nan = float("nan")
    if hasattr(event, "cost"):
        return replace(event, cost=nan)
    if hasattr(event, "value"):
        return replace(event, value=nan)
    return event


# Honour the environment at import time so `REPRO_FAULTS='{"rates":...}'
# pytest` runs a whole suite under injected faults (the CI chaos leg).
_ENV_PLAN = os.environ.get("REPRO_FAULTS")
if _ENV_PLAN:
    install_fault_plan(FaultPlan.from_json(_ENV_PLAN))

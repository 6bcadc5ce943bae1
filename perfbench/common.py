"""Shared pieces of the benchmark: the outcome record, statistics, memory.

Every workload module returns an :class:`Outcome`; ``run.py`` turns it
into the end-to-end metrics and the result line.  Nothing here imports
the program under test, so ``run.py`` can refuse to start (and say why)
before the first import of ``repro``.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Environment variables that change the program being measured.  Each
#: selects a kernel tier, precision, compiled backend or fault plan at
#: import time, so a run under any of them measures a different program.
FORBIDDEN_ENV = ("REPRO_FAULTS", "REPRO_KERNEL", "REPRO_KERNEL_DTYPE", "REPRO_KERNEL_BACKEND")


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``latencies_ms`` maps an op class (``read``, ``ingest``, ``event``,
    ``select``) to the latency of every completed op of that class, in
    the order the ops ran.  ``wall_s`` is the wall time of the timed phase and
    ``completed`` the ops finished in it.  ``gate`` is the correctness
    verdict (``{"passed": bool, ...details}``); ``layers`` holds the
    per-layer metrics of a traced run and is ``None`` otherwise.
    """

    setup_s: List[float]
    latencies_ms: Dict[str, List[float]]
    attempted: int
    failed: int
    wall_s: float
    peak_rss_mb: float
    mix: Dict[str, int]
    gate: Dict[str, object]
    layers: Optional[Dict[str, float]] = None
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Ops that finished without failing."""
        return self.attempted - self.failed


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return int(count - math.ceil(count * q / 100.0))


def median(values: Sequence[float]) -> float:
    """The sample median."""
    return float(statistics.median(values))


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def file_bytes(paths: Sequence[str]) -> int:
    """Total size of the files that exist among ``paths``."""
    return sum(os.path.getsize(path) for path in paths if os.path.exists(path))


def derive_seed(seed: int, *salt: int) -> int:
    """A 32-bit generator seed for one input of a run, derived from ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([int(seed), *map(int, salt)]).generate_state(1)[0])


@dataclass
class RunContext:
    """The command line of one run plus where it may write."""

    seed: int
    seconds: float
    trace: bool
    checkout: str
    workdir: str

    @property
    def segments(self) -> List[float]:
        """Timed segment lengths: an untraced half before a traced half
        in a traced run (their difference is the tracing overhead), one
        untraced segment otherwise."""
        return [self.seconds / 2.0, self.seconds / 2.0] if self.trace else [self.seconds]


#: An untraced run sets up at least this many times and for at least this
#: long in total, and reports the median as ``setup_s``: a set-up of a few
#: tens of milliseconds needs many repetitions for a steady median.
MIN_SETUPS, MIN_SETUP_SECONDS = 5, 2.0


def repeated_setup(
    ctx: RunContext, set_up: Callable[[int], T], tear_down: Callable[[T], None]
) -> Tuple[T, List[float]]:
    """Run ``set_up(attempt)`` until :data:`MIN_SETUPS` and
    :data:`MIN_SETUP_SECONDS` are reached (once in a traced run, which
    reports no ``setup_s``), tearing down all but the last.

    Returns the last set-up's result and the wall time of every set-up.
    A garbage collection before each one keeps a collection left over from
    the previous set-up out of the next one's time.
    """
    times: List[float] = []
    while True:
        gc.collect()
        started = time.perf_counter()
        result = set_up(len(times))
        times.append(time.perf_counter() - started)
        if ctx.trace or (len(times) >= MIN_SETUPS and sum(times) >= MIN_SETUP_SECONDS):
            return result, times
        tear_down(result)


def degradation_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """The store retries and kernel fallbacks counted between two snapshots."""

    def grown(predicate) -> float:
        return float(
            sum(count - before.get(key, 0) for key, count in after.items() if predicate(key))
        )

    return {
        "store.retries": grown(lambda key: key == "store.retry"),
        "kernels.fallbacks": grown(lambda key: key.startswith("kernels.")),
    }

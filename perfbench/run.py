"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as it is;
``--trace 1`` installs timing wrappers around each layer's entry points
and prints the per-layer metrics instead (see ``perfbench/README.md``).
Every run checks the program's outputs after the timed phase and exits 1
when a correctness gate fails.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out FILE`` also writes the full result (op mix, gate
details, environment, seed) to ``FILE``.  Nothing else is written outside
a scratch directory under ``.perfbench_run/`` that the run removes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from typing import Dict, List

from common import FORBIDDEN_ENV, Outcome, RunContext, beyond, median, percentile

WORKLOADS = ("service_mixed", "stream_durable", "dep_select")

#: The end-to-end metrics every workload reports: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

#: The latency percentiles printed per op class: class -> [(name, q)].
CLASS_PERCENTILES = {
    "read": [("read_p50_ms", 50), ("read_p99_ms", 99)],
    "ingest": [("ingest_p50_ms", 50), ("ingest_p99_ms", 99)],
    "event": [("event_p50_ms", 50), ("event_p90_ms", 90)],
}


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    """The ``BENCHMARK.json`` end-to-end metrics of one untraced run."""
    latencies = [ms for values in outcome.latencies_ms.values() for ms in values]
    return {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": outcome.completed / outcome.wall_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
    }


def report_lines(
    workload: str, outcome: Outcome, values: Dict[str, float], units: Dict[str, str]
) -> List[str]:
    """Human-readable lines: every metric by name and unit, with sample counts.

    A traced run prints its per-layer metrics and no latency percentiles:
    those would mix the traced and the untraced half.
    """
    lines = [
        f"workload {workload}: {outcome.attempted} ops attempted, {outcome.failed} failed, "
        f"{outcome.wall_s:.3f} s timed, {len(outcome.setup_s)} set-ups",
        f"  failed_ratio = {outcome.failed / max(outcome.attempted, 1):.6g} fraction",
    ]
    lines += [f"  {name} = {value:.6g} {units[name]}" for name, value in values.items()]
    if outcome.layers is None:
        for op_class, latencies in outcome.latencies_ms.items():
            for name, q in CLASS_PERCENTILES.get(op_class, []):
                lines.append(
                    f"  {name} = {percentile(latencies, q):.6g} ms "
                    f"({len(latencies)} samples, {beyond(len(latencies), q)} beyond)"
                )
        if "select" in outcome.latencies_ms:
            selects = outcome.latencies_ms["select"]
            lines.append(f"  select_s = {median(selects) / 1000.0:.6g} s ({len(selects)} selections)")
    lines.append(f"  op mix: {json.dumps(outcome.mix, sort_keys=True)}")
    lines.append(f"  gate: {json.dumps(outcome.gate, sort_keys=True, default=str)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result JSON here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    overridden = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if overridden:
        print(f"refusing to run: {', '.join(overridden)} change the program being measured", file=sys.stderr)
        return 2
    checkout = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"refusing to run: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    import importlib

    import repro.kernels

    # A terminated run still stops its server and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = importlib.import_module(args.workload)
    scratch = os.path.join(checkout, ".perfbench_run")
    workdir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(workdir)
    try:
        ctx = RunContext(args.seed, args.seconds, bool(args.trace), checkout, workdir)
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    environment = {
        "kernels": repro.kernels.environment_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if outcome.layers is not None:
        from tracing import LAYER_METRICS

        units, values = dict(LAYER_METRICS), outcome.layers
    else:
        units, values = END_TO_END, end_to_end(outcome)
    for line in report_lines(args.workload, outcome, values, units):
        print(line)
    print(f"  environment: {json.dumps(environment, sort_keys=True)}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = bool(outcome.gate.get("passed"))
    if args.out:
        full = {
            "workload": args.workload,
            "environment": environment,
            "metrics": metrics,
            "setup_s_runs": outcome.setup_s,
            "mix": outcome.mix,
            "gate": outcome.gate,
            "notes": outcome.notes,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(full, handle, indent=2, sort_keys=True, default=str)
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed}
    print(json.dumps(result | {"metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

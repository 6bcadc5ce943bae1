"""Declarative experiment specs for every figure of the paper's evaluation.

This module is the registry-backed replacement for the hand-wired CLI: each
``@register_experiment`` block declares one experiment — its CLI arguments and
the runner mapping parsed arguments to the printed report — and
:mod:`repro.cli` derives its subcommands from the registry.  The scientific
entry points stay in :mod:`repro.experiments.figures`; these specs are the
thin declarative layer over them.

To add an experiment, register a spec here (or anywhere that gets imported)
— no CLI changes needed.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.experiments import figures
from repro.experiments.registry import argument, register_experiment
from repro.experiments.reporting import format_rows, format_series_table

__all__ = ["DEFAULT_CLI_BUDGETS"]

DEFAULT_CLI_BUDGETS = [0.05, 0.1, 0.2, 0.3, 0.5, 0.8]

_BUDGETS_ARGUMENT = argument(
    "--budgets",
    type=float,
    nargs="+",
    default=DEFAULT_CLI_BUDGETS,
    help="budget fractions to sweep (default: %(default)s)",
)

_GENERATOR_ARGUMENT = argument("--generator", choices=["URx", "LNx", "SMx"], default="URx")


def _series_report(result) -> str:
    return format_series_table(result.budget_fractions, result.series, title=result.description)


@register_experiment(
    name="figure1",
    description="Variance in claim fairness (Adoptions / CDC-firearms / CDC-causes)",
    arguments=[
        argument("--dataset", choices=["adoptions", "cdc_firearms", "cdc_causes"], default="adoptions"),
        argument("--no-random", action="store_true", help="skip the Random baseline"),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure1(args: argparse.Namespace) -> str:
    result = figures.figure1_fairness(
        args.dataset, budget_fractions=args.budgets, include_random=not args.no_random
    )
    return _series_report(result)


@register_experiment(
    name="figure2",
    description="Expected variance of uniqueness on the CDC datasets",
    arguments=[
        argument("--dataset", choices=["firearms", "causes"], default="firearms"),
        argument("--gamma", type=float, default=None),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure2(args: argparse.Namespace) -> str:
    result = figures.figure2_uniqueness_cdc(
        args.dataset, gamma=args.gamma, budget_fractions=args.budgets
    )
    return _series_report(result)


@register_experiment(
    name="figure3",
    description="Expected variance of uniqueness on URx / LNx / SMx",
    arguments=[
        _GENERATOR_ARGUMENT,
        argument("--gamma", type=float, default=200.0),
        argument("--n", type=int, default=40),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure3(args: argparse.Namespace) -> str:
    result = figures.figure3to5_uniqueness_synthetic(
        args.generator, gamma=args.gamma, n=args.n, budget_fractions=args.budgets
    )
    return _series_report(result)


@register_experiment(
    name="figure6",
    description="Absolute improvement of GreedyMinVar over GreedyNaive",
    arguments=[
        _GENERATOR_ARGUMENT,
        argument("--gammas", type=float, nargs="+", default=[50.0, 150.0, 200.0, 300.0]),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure6(args: argparse.Namespace) -> str:
    rows = figures.figure6_absolute_improvement(
        generator=args.generator, gammas=args.gammas, budget_fractions=args.budgets
    )
    return format_rows(rows, title="Figure 6: absolute improvement of GreedyMinVar over GreedyNaive")


@register_experiment(
    name="figure7",
    description="Expected variance of robustness (fragility)",
    arguments=[
        argument("--dataset", default="cdc_firearms"),
        argument("--gamma", type=float, default=None),
        argument("--n", type=int, default=100),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure7(args: argparse.Namespace) -> str:
    result = figures.figure7_robustness(
        args.dataset, gamma=args.gamma, n=args.n, budget_fractions=args.budgets
    )
    return _series_report(result)


@register_experiment(
    name="figure8",
    description="Effectiveness in action (CDC-causes)",
    arguments=[_BUDGETS_ARGUMENT],
)
def _figure8(args: argparse.Namespace) -> str:
    result = figures.figure8_in_action_cdc(budget_fractions=args.budgets)
    return format_rows(result.as_rows(), title="Figure 8: estimated duplicity (CDC-causes)")


@register_experiment(
    name="figure9",
    description="Effectiveness in action (synthetic)",
    arguments=[
        _GENERATOR_ARGUMENT,
        argument("--gamma", type=float, default=100.0),
        argument("--n", type=int, default=40),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure9(args: argparse.Namespace) -> str:
    result = figures.figure9_in_action_synthetic(
        args.generator, gamma=args.gamma, n=args.n, budget_fractions=args.budgets
    )
    return format_rows(result.as_rows(), title="Figure 9: estimated duplicity (synthetic)")


@register_experiment(
    name="figure10",
    description="GreedyMinVar running time",
    arguments=[
        argument("--n", type=int, default=2000),
        argument("--sizes", type=int, nargs="+", default=[500, 1000, 2000, 4000, 10000]),
    ],
)
def _figure10(args: argparse.Namespace) -> str:
    by_budget, by_size = figures.figure10_efficiency(n=args.n, sizes=args.sizes)
    return "\n\n".join(
        [
            format_rows(by_budget.as_rows(), title="Figure 10a: running time vs budget"),
            format_rows(by_size.as_rows(), title="Figure 10b: running time vs dataset size"),
        ]
    )


@register_experiment(
    name="figure11",
    description="Handling dependency (correlated errors)",
    arguments=[
        argument("--gamma", type=float, default=0.7),
        argument("--no-opt", action="store_true", help="skip the exhaustive OPT baseline"),
        argument(
            "--n",
            type=int,
            default=None,
            help="scale the workload to n URx values (skips OPT/Optimum; default: CDC-firearms)",
        ),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure11(args: argparse.Namespace) -> str:
    result = figures.figure11_dependency(
        gamma=args.gamma,
        budget_fractions=args.budgets,
        include_opt=not args.no_opt,
        n=args.n,
    )
    return _series_report(result)


@register_experiment(
    name="figure11c",
    description="Dependency-strength ablation at paper scale (gamma grid)",
    arguments=[
        argument("--n", type=int, default=2000),
        argument("--gammas", type=float, nargs="+", default=[0.0, 0.3, 0.5, 0.7, 0.9]),
        argument("--budget-fraction", type=float, default=0.1),
    ],
)
def _figure11c(args: argparse.Namespace) -> str:
    rows = figures.figure11c_gamma_grid(
        n=args.n, gammas=args.gammas, budget_fraction=args.budget_fraction
    )
    return format_rows(
        rows,
        columns=["gamma", "algorithm", "variance_after_cleaning", "seconds"],
        title=f"Figure 11c (n={args.n}): dependency-strength ablation",
    )


@register_experiment(
    name="figure12",
    description="Competing objectives (MinVar vs MaxPr)",
    arguments=[
        argument("--repeats", type=int, default=10),
        argument("--tau-in-stds", type=float, default=1.0),
        _BUDGETS_ARGUMENT,
    ],
)
def _figure12(args: argparse.Namespace) -> str:
    result = figures.figure12_competing_objectives(
        budget_fractions=args.budgets, repeats=args.repeats, tau_in_stds=args.tau_in_stds
    )
    return format_rows(result.as_rows(), title="Figure 12: competing objectives")


@register_experiment(
    name="counters",
    description="Counterargument discovery case study (Section 4.3)",
    arguments=[
        argument("--dataset", default="cdc_firearms"),
        argument("--seed", type=int, default=2),
    ],
)
def _counters(args: argparse.Namespace) -> str:
    result = figures.counters_case_study(args.dataset, seed=args.seed)
    return format_rows(result.as_rows(), title="Section 4.3 case study: counterargument discovery")


@register_experiment(
    name="stream",
    description="Streaming re-planning: synthesize or replay an event journal",
    arguments=[
        argument("action", choices=["replay", "synth"], help="replay a journal (timing + divergence) or just synthesize one"),
        argument("--n", type=int, default=200, help="base database size (URx synthetic)"),
        argument("--events", type=int, default=50, help="journal length when synthesizing"),
        argument("--seed", type=int, default=0, help="journal synthesis seed"),
        argument("--gamma", type=float, default=40.0, help="claim threshold of the uniqueness workload"),
        argument("--budget-fraction", type=float, default=0.15, help="budget as a fraction of total cost"),
        argument("--journal", default=None, help="JSONL journal path to read (replay) or write (synth)"),
        argument("--json-out", default=None, help="write the full replay result as JSON here"),
        argument("--no-cold", action="store_true", help="skip the per-event cold-solve comparison"),
    ],
)
def _stream(args: argparse.Namespace) -> str:
    import json

    from repro.datasets.synthetic import generate_urx
    from repro.experiments.workloads import uniqueness_workload
    from repro.streaming import (
        Journal,
        StreamingPlanner,
        replay_journal,
        synthesize_journal,
    )

    workload = uniqueness_workload(
        generate_urx(args.n, args.seed), window_width=4, gamma=args.gamma
    )
    database = workload.database
    if args.action == "synth" or args.journal is None:
        journal = synthesize_journal(database, args.events, seed=args.seed)
        if args.action == "synth":
            path = args.journal or "journal.jsonl"
            journal.to_jsonl(path)
            return f"wrote {len(journal)} events to {path} ({journal!r})"
    else:
        journal = Journal.from_jsonl(args.journal)

    budget = args.budget_fraction * database.total_cost

    def factory() -> StreamingPlanner:
        fresh = uniqueness_workload(
            generate_urx(args.n, args.seed), window_width=4, gamma=args.gamma
        )
        return StreamingPlanner(fresh.database, fresh.query_function, budget=budget)

    result = replay_journal(journal, factory, compare_cold=not args.no_cold)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        f"replayed {len(journal)} events on n={args.n} (budget={budget:.3g})",
        f"warm total: {result.warm_seconds:.4f}s across {result.warm_solves} warm solves "
        f"+ {result.cold_fallbacks} cold fallbacks",
    ]
    if not args.no_cold:
        lines.append(f"cold total: {result.cold_seconds:.4f}s  (speedup {result.speedup:.2f}x)")
        lines.append(f"divergence: {result.divergence_summary()}")
    if args.json_out:
        lines.append(f"full result written to {args.json_out}")
    return "\n".join(lines)


def _stream_setup(args: argparse.Namespace):
    """The (database, journal, planner_factory) triple the durability
    subcommands share, built deterministically from the workload args so
    ``store run``, a crashed ``store run`` and ``store resume`` all agree."""
    from repro.datasets.synthetic import generate_urx
    from repro.experiments.workloads import uniqueness_workload
    from repro.streaming import Journal, StreamingPlanner, synthesize_journal

    workload = uniqueness_workload(
        generate_urx(args.n, args.seed), window_width=4, gamma=args.gamma
    )
    database = workload.database
    if getattr(args, "journal", None):
        journal = Journal.from_jsonl(args.journal)
    else:
        journal = synthesize_journal(database, args.events, seed=args.seed)
    budget = args.budget_fraction * database.total_cost

    def factory() -> StreamingPlanner:
        fresh = uniqueness_workload(
            generate_urx(args.n, args.seed), window_width=4, gamma=args.gamma
        )
        return StreamingPlanner(fresh.database, fresh.query_function, budget=budget)

    return database, journal, factory


@register_experiment(
    name="store",
    description="Durable crash-safe streaming: run, resume, inspect or verify a plan store",
    arguments=[
        argument("action", choices=["run", "resume", "status", "verify"], help="run a journal durably, resume after a crash, show stream status, or verify row checksums"),
        argument("--store", default="plans.db", help="SQLite plan-store path"),
        argument("--stream", default="stream", help="stream id inside the store"),
        argument("--n", type=int, default=200, help="base database size (URx synthetic)"),
        argument("--events", type=int, default=50, help="journal length when synthesizing"),
        argument("--seed", type=int, default=0, help="journal synthesis seed"),
        argument("--gamma", type=float, default=40.0, help="claim threshold of the uniqueness workload"),
        argument("--budget-fraction", type=float, default=0.15, help="budget as a fraction of total cost"),
        argument("--checkpoint-every", type=int, default=10, help="durable checkpoint interval in events"),
        argument("--journal", default=None, help="JSONL journal path (default: synthesize from --seed)"),
        argument("--kill-after-events", type=int, default=None, help="hard-exit the process (os._exit 137) after this many events — a scripted SIGKILL for crash-recovery tests"),
    ],
)
def _store(args: argparse.Namespace) -> str:
    import os

    from repro.store import PlanStore, resume_replay
    from repro.streaming import plan_signature

    if args.action == "verify":
        with PlanStore(args.store) as store:
            report = store.verify()
        status = "clean" if not report["corrupt"] else f"CORRUPT: {report['corrupt']}"
        return f"checked {report['rows_checked']} rows: {status}"

    if args.action == "status":
        with PlanStore(args.store) as store:
            lines = []
            for stream_id in store.stream_ids():
                lines.append(
                    f"stream {stream_id!r}: {store.event_count(stream_id)} events, "
                    f"cursor at {store.cursor(stream_id)}, checkpoints at "
                    f"{store.checkpoint_seqs(stream_id)}, counters "
                    f"{store.counters(stream_id)}"
                )
            return "\n".join(lines) if lines else "empty store"

    _, journal, factory = _stream_setup(args)
    if args.action == "resume":
        with PlanStore(args.store) as store:
            result = resume_replay(store, factory, journal, stream_id=args.stream)
        return (
            f"resumed stream {args.stream!r} at event {result.metadata['resumed_at']} "
            f"and finished {len(result.records)} events "
            f"(signature {plan_signature(result).hex()[:16]}...)"
        )

    # action == "run": drive the planner event by event so --kill-after-events
    # can die mid-stream exactly as a real crash would.
    with PlanStore(args.store) as store:
        planner = factory()
        planner.bind_store(
            store,
            stream_id=args.stream,
            checkpoint_every=args.checkpoint_every,
            metadata=dict(journal.metadata),
        )
        for applied, event in enumerate(journal, start=1):
            planner.apply(event)
            if args.kill_after_events is not None and applied >= args.kill_after_events:
                os._exit(137)  # simulate SIGKILL: no cleanup, no commit beyond this point
        return (
            f"ran {planner.events_applied} events durably into {args.store} "
            f"(stream {args.stream!r}, checkpoint every {args.checkpoint_every}); "
            f"final plan has {len(planner.plan)} objects"
        )


@register_experiment(
    name="serve",
    description="Serve cleaning recommendations over HTTP (concurrent sessions on the durable store)",
    arguments=[
        argument("--root", default="service_data", help="directory holding one plan-store file per session"),
        argument("--host", default="127.0.0.1", help="bind address"),
        argument("--port", type=int, default=0, help="bind port (0 picks a free one and reports it)"),
        argument("--resume", action="store_true", help="re-open every session found under --root before serving (crash recovery)"),
    ],
)
def _serve(args: argparse.Namespace) -> str:
    import sys

    from repro.service import CleaningService

    service = CleaningService(
        args.root, host=args.host, port=args.port, resume=args.resume
    )
    if service.resumed:
        print(f"resumed sessions: {', '.join(service.resumed)}", flush=True)
    # The harness (and any supervising script) waits for this exact line.
    print(f"SERVICE LISTENING {service.url}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    print("service stopped", file=sys.stderr)
    return f"served sessions from {args.root}"


@register_experiment(
    name="chaos",
    description="Fault-injected replay: same plans as a clean run, degradations counted",
    arguments=[
        argument("--faults", default=None, help="fault-plan JSON (full spec or bare site→rate map); default: moderate rates at every site"),
        argument("--fault-seed", type=int, default=0, help="seed of the deterministic fault schedule"),
        argument("--n", type=int, default=200, help="base database size (URx synthetic)"),
        argument("--events", type=int, default=50, help="journal length"),
        argument("--seed", type=int, default=0, help="journal synthesis seed"),
        argument("--gamma", type=float, default=40.0, help="claim threshold of the uniqueness workload"),
        argument("--budget-fraction", type=float, default=0.15, help="budget as a fraction of total cost"),
        argument("--store", default=None, help="optional plan-store path: run the faulted leg durably"),
    ],
)
def _chaos(args: argparse.Namespace) -> str:
    import dataclasses

    from repro.resilience import FaultPlan, degradation_scope, fault_scope
    from repro.store import PlanStore, durable_replay
    from repro.streaming import plan_signature, replay_journal

    if args.faults:
        plan = FaultPlan.from_json(args.faults)
        if args.fault_seed and plan.seed != args.fault_seed:
            plan = dataclasses.replace(plan, seed=args.fault_seed)
    else:
        plan = FaultPlan(
            seed=args.fault_seed,
            rates={"kernel": 0.05, "store": 0.15, "event": 0.05},
        )

    _, journal, factory = _stream_setup(args)
    clean = plan_signature(replay_journal(journal, factory, compare_cold=False))
    with fault_scope(plan), degradation_scope() as degradations:
        if args.store:
            with PlanStore(args.store) as store:
                faulted = durable_replay(
                    journal, factory, store, stream_id="chaos"
                )
        else:
            faulted = replay_journal(journal, factory, compare_cold=False)
    diverged = plan_signature(faulted) != clean
    lines = [
        f"replayed {len(journal)} events under {plan.to_json()}",
        f"plan divergence: {'DIVERGED' if diverged else 'none (signatures identical)'}",
        "degradations: "
        + (
            ", ".join(f"{k}={v}" for k, v in degradations.snapshot().items())
            or "none"
        ),
    ]
    return "\n".join(lines)

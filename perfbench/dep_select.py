"""Workload ``dep_select``: whole conditional GreedyDep selections, offline.

The input is the registered ``fairness_normal_chain`` workload at n=1000
and rho 0.7: its dense covariance is 1000x1000 float64 (8 MB, far above
the L2 cache; README.md says why not n=2000).  Each op is one conditional ``GreedyDep.select_indices``
at ``budget_from_fraction(database, 0.1)``, on the default numpy kernel
tier; there is no store, planner or HTTP.

The correctness gate checks that every selection of the run is identical
and fits the budget, replays it through a fresh conditioning engine
checking at every step that the pick has the best gain per cost among
the candidates that still fit (and that nothing fits after the last
pick), and compares the engine's ``variance()`` after the selection with
``GaussianWorldModel.post_cleaning_variance``, the pinv-Schur reference,
within 1e-6 relative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from common import (
    Outcome,
    RunContext,
    degradation_delta,
    derive_seed,
    repeated_setup,
    self_peak_rss_mb,
)

WORKLOAD = "fairness_normal_chain"
N = 1000
RHO = 0.7
BUDGET_FRACTION = 0.1
VARIANCE_RTOL = 1e-6
#: Slack on "best gain per cost": float noise only, far below any real gap.
RATIO_RTOL = 1e-9


@dataclass
class Inputs:
    database: object
    model: object
    weights: object
    solver: object
    budget: float


@dataclass
class SelectionLog:
    """What one timed segment selected."""

    latencies_ms: List[float] = field(default_factory=list)
    selections: List[List[int]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def build_inputs(seed: int, n: int = N) -> Inputs:
    """Build the world model and the solver (timed as set-up)."""
    from repro import workloads
    from repro.core.greedy import GreedyDep
    from repro.core.problems import budget_from_fraction

    workload = workloads.build_workload(WORKLOAD, n=n, seed=derive_seed(seed, 0), rho=RHO)
    function = workload.linear_function()
    solver = GreedyDep(function, workload.world_model, conditional=True)
    budget = budget_from_fraction(workload.database, BUDGET_FRACTION)
    return Inputs(workload.database, workload.world_model, function.weights(n), solver, budget)


def select_for(inputs: Inputs, seconds: float, log: SelectionLog) -> float:
    """Whole selections back to back, at least one, until ``seconds`` pass;
    returns the wall time."""
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        before = time.perf_counter()
        try:
            selection = inputs.solver.select_indices(inputs.database, inputs.budget)
        except Exception as error:  # counted and reported, never retried
            log.errors.append(f"{type(error).__name__}: {error}")
        else:
            log.latencies_ms.append((time.perf_counter() - before) * 1000.0)
            log.selections.append([int(i) for i in selection])
        if time.perf_counter() >= deadline:
            return time.perf_counter() - started


def check(inputs: Inputs, selections: Sequence[Sequence[int]]) -> Dict[str, object]:
    """The dep_select gate (see the module docstring)."""
    import numpy as np

    problems: List[str] = []
    if not selections:
        return {"passed": False, "problems": ["no selection completed"]}
    first = [int(i) for i in selections[0]]
    if any(list(selection) != first for selection in selections[1:]):
        problems.append("selections differ between runs of the same input")
    costs = np.asarray(inputs.database.costs, dtype=float)
    budget = inputs.budget
    if len(set(first)) != len(first):
        problems.append("selection repeats an index")
    if float(costs[first].sum()) > budget + 1e-9:
        problems.append(f"selection costs {costs[first].sum():.6g} > budget {budget:.6g}")

    engine = inputs.model.engine(inputs.weights, conditional=True)
    feasible = np.ones(len(costs), dtype=bool)
    spent = 0.0
    for step, index in enumerate(first):
        feasible &= spent + costs <= budget + 1e-9
        ratios = np.where(feasible, engine.gains() / costs, -np.inf)
        best = float(ratios.max())
        if not feasible[index] or ratios[index] < best - abs(best) * RATIO_RTOL:
            better = int(ratios.argmax())
            problems.append(f"step {step}: picked {index}, but {better} has a better gain per cost")
            break
        engine.condition_on(index)
        feasible[index] = False
        spent += float(costs[index])
    else:
        if (feasible & (spent + costs <= budget + 1e-9)).any():
            problems.append("selection stops while a candidate still fits the budget")

    incremental = engine.variance() if not problems else float("nan")
    reference = inputs.model.post_cleaning_variance(inputs.weights, first)
    # The selection may clean every weighted object, leaving both at 0:
    # floor the scale at a float-noise share of the variance before cleaning.
    scale = max(abs(reference), 1e-12 * inputs.model.variance_of_linear(inputs.weights))
    relative = abs(incremental - reference) / scale
    if not relative <= VARIANCE_RTOL:
        problems.append(f"engine variance {incremental!r} != pinv-Schur {reference!r}")
    return {
        "passed": not problems,
        "selections": len(selections),
        "steps": len(first),
        "variance_rel_error": relative,
        "problems": problems,
    }


def run(ctx: RunContext) -> Outcome:
    from repro.resilience.degradation import global_degradations

    tracer = None
    if ctx.trace:
        from tracing import SpanIndex, Tracer, install, layer_metrics, trace_metrics

        tracer = Tracer()
        install(tracer)
        tracer.enabled = True
    inputs, setups = repeated_setup(
        ctx, lambda attempt: build_inputs(ctx.seed), lambda inputs: None
    )

    logs: List[SelectionLog] = []
    walls: List[float] = []
    for number, seconds in enumerate(ctx.segments):
        if tracer is not None and number == 0:
            tracer.enabled = False
            setup_spans, tracer.spans = tracer.spans, []
        elif tracer is not None:
            counters = global_degradations().snapshot()
            tracer.enabled = True
        logs.append(SelectionLog())
        walls.append(select_for(inputs, seconds, logs[-1]))
    layers = None
    if tracer is not None:
        tracer.enabled = False
        measured = degradation_delta(counters, global_degradations().snapshot()) | trace_metrics(
            logs[1].latencies_ms,
            logs[0].latencies_ms,
            SpanIndex(tracer.spans).root_ms(),
            walls[1] * 1000.0,
        )
        layers = layer_metrics(setup_spans, tracer.spans, measured)

    errors = [error for log in logs for error in log.errors]
    latencies = [ms for log in logs for ms in log.latencies_ms]
    selections = [selection for log in logs for selection in log.selections]
    return Outcome(
        setup_s=setups,
        latencies_ms={"select": latencies},
        attempted=len(latencies) + len(errors),
        failed=len(errors),
        wall_s=sum(walls),
        peak_rss_mb=self_peak_rss_mb(),
        mix={"selections": len(selections), "steps": len(selections[0]) if selections else 0},
        gate=check(inputs, selections),
        layers=layers,
        notes={"failures": errors[:5]},
    )

"""Scalar twins of the knapsack dynamic programs.

Both walk the DP row one cell at a time in Python, as the original
implementation did.  They make the same improvement decisions as the numpy
rolling-array rows of :mod:`repro.core.knapsack`, so the equivalence tests
require identical solutions.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.knapsack import (
    KnapsackSolution,
    _discretize_costs,
    _validate,
    solve_knapsack_greedy,
)

__all__ = ["solve_knapsack_dp_scalar", "solve_knapsack_fptas_scalar"]


def solve_knapsack_dp_scalar(
    values: Sequence[float],
    costs: Sequence[float],
    budget: float,
    resolution: int = 2000,
) -> KnapsackSolution:
    """Exact 0/1 maximum knapsack, one capacity cell at a time."""
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    int_costs, capacity = _discretize_costs(costs, budget, resolution)
    if capacity <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    # best[c] = best value achievable with discretized cost exactly <= c
    best = np.zeros(capacity + 1, dtype=float)
    choice = np.zeros((n, capacity + 1), dtype=bool)
    for i in range(n):
        cost_i = int_costs[i]
        if cost_i > capacity:
            continue
        value_i = values[i]
        # iterate capacities descending so each item is used at most once
        for c in range(capacity, cost_i - 1, -1):
            candidate_value = best[c - cost_i] + value_i
            if candidate_value > best[c] + 1e-15:
                best[c] = candidate_value
                choice[i, c] = True

    # Trace back the selected set from the full-capacity cell.
    selected: List[int] = []
    remaining = capacity
    for i in range(n - 1, -1, -1):
        if remaining >= int_costs[i] and choice[i, remaining]:
            selected.append(i)
            remaining -= int_costs[i]
    selected.reverse()

    total_cost = float(costs[selected].sum()) if selected else 0.0
    total_value = float(values[selected].sum()) if selected else 0.0
    return KnapsackSolution(tuple(selected), total_value, total_cost)


def solve_knapsack_fptas_scalar(
    values: Sequence[float],
    costs: Sequence[float],
    budget: float,
    epsilon: float = 0.1,
) -> KnapsackSolution:
    """(1 - epsilon)-approximate maximum knapsack, per-value Python loop."""
    if epsilon <= 0 or epsilon >= 1:
        raise ValueError("epsilon must be in (0, 1)")
    values, costs = _validate(values, costs)
    n = values.size
    if n == 0 or budget <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    feasible = costs <= budget + 1e-12
    max_value = float(values[feasible].max()) if np.any(feasible) else 0.0
    if max_value <= 0:
        return KnapsackSolution((), 0.0, 0.0)

    scale = (n / epsilon) / max_value
    scaled = np.floor(values * scale).astype(int)
    value_cap = int(scaled[feasible].sum())

    INF = float("inf")
    # min_cost[v] = minimum cost achieving scaled value exactly v
    min_cost = np.full(value_cap + 1, INF)
    min_cost[0] = 0.0
    parent: List[dict] = [dict() for _ in range(n)]
    for i in range(n):
        if not feasible[i] or scaled[i] <= 0:
            continue
        vi, ci = int(scaled[i]), float(costs[i])
        for v in range(value_cap, vi - 1, -1):
            if min_cost[v - vi] + ci < min_cost[v] - 1e-15:
                min_cost[v] = min_cost[v - vi] + ci
                parent[i][v] = True

    def took(item: int, v: int) -> bool:
        return bool(parent[item].get(v))

    best_v = 0
    reachable = np.flatnonzero(min_cost <= budget + 1e-9)
    if reachable.size:
        best_v = int(reachable[-1])

    # Reconstruct greedily: walk items in reverse, keeping a consistent chain.
    selected: List[int] = []
    v = best_v
    for i in range(n - 1, -1, -1):
        if v <= 0:
            break
        if took(i, v):
            selected.append(i)
            v -= int(scaled[i])
    selected.reverse()
    # The reconstruction above is heuristic for ties; recompute exact totals.
    total_cost = float(costs[selected].sum()) if selected else 0.0
    if total_cost > budget + 1e-9:
        # Fall back to a safe reconstruction via the DP solution value only.
        greedy = solve_knapsack_greedy(values, costs, budget)
        return greedy
    total_value = float(values[selected].sum()) if selected else 0.0
    return KnapsackSolution(tuple(selected), total_value, total_cost)

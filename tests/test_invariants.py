"""Seeded property tests for the anytime trace and store checksums.

No hypothesis here on purpose: every case is a pure function of an
explicit seed loop, so a failure names its seed and replays bit-identically
anywhere.  Two invariant families:

* ``SelectionTrace`` read-backs are *exact* — at every budget, the traced
  prefix + resume equals a from-scratch solve, is budget-feasible, and
  grows monotonically with the budget;
* ``PlanStore.verify()`` catches **every** single-byte flip in any
  checksummed row payload (CRC32 detects all single-byte errors, so a
  miss would mean verify skipped the row).
"""

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.core import GreedyMinVar
from repro.core.solver import _BUDGET_EPS
from repro.store.sqlite_store import PlanStore
from repro.uncertainty.database import UncertainDatabase


def _random_case(seed: int):
    """A seeded (database, claim function, max_budget) triple."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    database = UncertainDatabase.from_normal_arrays(
        rng.normal(10.0, 2.0, n),
        rng.uniform(0.3, 2.5, n),
        costs=rng.uniform(0.5, 3.0, n),
    )
    function = LinearClaim.from_vector(rng.uniform(0.5, 1.5, n))
    max_budget = float(rng.uniform(2.0, 0.6 * float(np.sum(database.costs))))
    return database, function, max_budget


# --------------------------------------------------------------------- #
# SelectionTrace read-back properties
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(20))
def test_trace_read_back_equals_fresh_solve_and_is_feasible(seed):
    database, function, max_budget = _random_case(seed)
    solver = GreedyMinVar(function)
    trace = solver.trace(database, max_budget)
    costs = np.asarray(database.costs)

    rng = np.random.default_rng((seed, 1))
    budgets = sorted(
        float(b) for b in rng.uniform(0.05 * max_budget, max_budget, 6)
    ) + [max_budget]

    previous_prefix = 0
    for budget in budgets:
        indices = trace.indices_at(budget)
        # exactness: the anytime read-back IS the from-scratch solve
        assert indices == GreedyMinVar(function).select_indices(database, budget)
        # feasibility: selected cost never exceeds the budget
        assert float(costs[indices].sum()) <= budget + _BUDGET_EPS
        # no duplicate picks
        assert len(set(indices)) == len(indices)
        # the affordable step prefix grows monotonically with the budget
        # (the full selection count need not: a larger budget may swap two
        # cheap picks for one expensive one at the boundary)
        prefix, _ = trace.prefix_at(budget)
        assert len(prefix) >= previous_prefix
        previous_prefix = len(prefix)


@pytest.mark.parametrize("seed", range(10))
def test_trace_prefix_walk_stops_at_first_unaffordable_step(seed):
    database, function, max_budget = _random_case(seed + 100)
    trace = GreedyMinVar(function).trace(database, max_budget)
    if not trace.steps:
        pytest.skip("degenerate case selected nothing")
    rng = np.random.default_rng((seed, 2))
    for budget in rng.uniform(0.0, max_budget, 8):
        prefix, spent = trace.prefix_at(float(budget))
        assert spent <= budget + _BUDGET_EPS
        # the prefix is exactly the longest affordable *contiguous* walk
        walked, total = [], 0.0
        for step in trace.steps:
            if total + step.cost > budget + _BUDGET_EPS:
                break
            walked.append(step.index)
            total += step.cost
        assert prefix == walked


def test_plan_at_raises_below_first_step_cost():
    database, function, max_budget = _random_case(7)
    trace = GreedyMinVar(function).trace(database, max_budget)
    assert trace.steps
    starved = trace.steps[0].cost * 0.5
    with pytest.raises(ValueError, match="below the first step's cost"):
        trace.plan_at(starved)
    # but indices_at answers with the honest empty selection
    assert trace.indices_at(starved) == []
    plan = trace.plan_at(max_budget)
    assert list(plan.selected) == trace.indices_at(max_budget)


def test_indices_at_rejects_budgets_beyond_the_trace():
    database, function, max_budget = _random_case(8)
    trace = GreedyMinVar(function).trace(database, max_budget)
    with pytest.raises(ValueError, match="exceeds the trace's max budget"):
        trace.indices_at(max_budget * 2.0)


# --------------------------------------------------------------------- #
# PlanStore.verify() vs single-byte flips
# --------------------------------------------------------------------- #
def _flip_detected(store, table, where, params, column="payload"):
    """Flip every byte of the row's payload, one at a time; count misses."""
    row = store._connection.execute(
        f"SELECT {column} FROM {table} WHERE {where}", params
    ).fetchone()
    original = row[0]
    misses = []
    for position in range(len(original)):
        flipped = (
            original[:position]
            + chr(ord(original[position]) ^ 1)
            + original[position + 1 :]
        )
        assert flipped != original
        store._connection.execute(
            f"UPDATE {table} SET {column} = ? WHERE {where}", (flipped, *params)
        )
        report = store.verify()
        if not any(entry["table"] == table for entry in report["corrupt"]):
            misses.append(position)
        store._connection.execute(
            f"UPDATE {table} SET {column} = ? WHERE {where}", (original, *params)
        )
    return misses


def test_verify_catches_every_single_byte_flip(tmp_path):
    with PlanStore(tmp_path / "flip.db") as store:
        store.ensure_stream("s", metadata={"purpose": "flips"})
        store.append_event("s", 0, {"kind": "reveal", "index": 3, "value": 11.5})
        store.record_plan("s", 0, {"plan": [3, 1], "mode": "warm"})
        store.save_column_page("s", "costs", 0, [1.0, 2.0, 3.0])
        assert store.verify()["corrupt"] == []

        assert _flip_detected(
            store, "events", "stream_id = ? AND seq = ?", ("s", 0)
        ) == []
        assert _flip_detected(
            store, "plans", "stream_id = ? AND seq = ?", ("s", 0)
        ) == []
        assert _flip_detected(
            store,
            "column_pages",
            "stream_id = ? AND column_name = ? AND page = ?",
            ("s", "costs", 0),
        ) == []
        # restored everything: the store is clean again
        assert store.verify()["corrupt"] == []


def test_verify_names_the_corrupt_column_page(tmp_path):
    with PlanStore(tmp_path / "page.db") as store:
        store.ensure_stream("s", metadata={})
        store.save_column_page("s", "means", 2, [5.0, 6.0])
        store._connection.execute(
            "UPDATE column_pages SET payload = ? WHERE column_name = ?",
            ('{"values": [5.0, 7.0]}', "means"),
        )
        report = store.verify()
        assert len(report["corrupt"]) == 1
        entry = report["corrupt"][0]
        assert entry["table"] == "column_pages"
        assert entry["column"] == "means"

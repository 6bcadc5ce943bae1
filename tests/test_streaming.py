"""Streaming engine tests: overlays, cache safety, warm-vs-cold equivalence.

The load-bearing contract is warm-start-vs-cold equivalence: after *every*
journal event, the incremental plan must equal a from-scratch solve on the
identical post-event database — exact on selections, 1e-9 on objectives —
across seeds and tracks.  The overlay tests pin the sharing/GC guarantees
``with_cost`` / ``with_appended`` advertise, and the cache-leakage tests
cover the satellite requirement that solver caches keyed by database
identity treat every overlay as a distinct database.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.core.greedy import GreedyDep, GreedyMaxPr, GreedyMinVar
from repro.datasets.synthetic import generate_urx
from repro.experiments.workloads import uniqueness_workload
from repro.streaming import (
    CostChangeEvent,
    InsertEvent,
    Journal,
    RemoveEvent,
    RevealEvent,
    StreamingPlanner,
    event_from_dict,
    event_to_dict,
    plan_signature,
    replay_journal,
    synthesize_journal,
)
from repro.uncertainty.correlation import GaussianWorldModel
from repro.uncertainty.database import UncertainDatabase
from repro.uncertainty.distributions import NormalSpec
from repro.uncertainty.objects import UncertainObject
from reference.greedy import ScratchGreedyDep


def _normal_db(n: int, seed: int) -> UncertainDatabase:
    rng = np.random.default_rng(seed)
    return UncertainDatabase.from_normal_arrays(
        rng.normal(size=n),
        rng.uniform(0.5, 2.0, n),
        costs=rng.uniform(1.0, 5.0, n),
    )


# --------------------------------------------------------------------- #
# Overlay mechanics
# --------------------------------------------------------------------- #
class TestCostOverlay:
    def test_shares_stat_vectors_with_root(self):
        db = _normal_db(12, 0)
        overlay = db.with_cost(3, 9.0)
        assert overlay.means is db.means
        assert overlay.variances is db.variances
        assert overlay.stds is db.stds
        assert overlay.current_values is db.current_values

    def test_cost_vector_and_object_view_updated(self):
        db = _normal_db(12, 0)
        overlay = db.with_cost(3, 9.0)
        assert overlay.costs[3] == 9.0
        assert overlay[3].cost == 9.0
        assert overlay[3].mean == db[3].mean
        assert overlay.total_cost == pytest.approx(
            db.total_cost - db.costs[3] + 9.0
        )
        # The base is untouched.
        assert db.costs[3] != 9.0
        assert overlay.cost_overrides == {3: 9.0}

    def test_infinite_cost_tombstone_allowed(self):
        db = _normal_db(6, 1)
        overlay = db.with_cost(2, math.inf)
        assert overlay.costs[2] == math.inf
        assert overlay[2].cost == math.inf

    def test_validation(self):
        db = _normal_db(6, 1)
        with pytest.raises(ValueError):
            db.with_cost(0, 0.0)
        with pytest.raises(ValueError):
            db.with_cost(0, -1.0)
        with pytest.raises(IndexError):
            db.with_cost(6, 1.0)

    def test_cost_only_overlay_stays_pure_normal(self):
        db = _normal_db(6, 2)
        overlay = db.with_cost(1, 2.0)
        assert overlay._is_pure_normal_arrays()


class TestAppendOverlay:
    def test_appends_share_root_prefix(self):
        db = _normal_db(10, 3)
        new = UncertainObject("x0", 1.0, NormalSpec(0.5, 2.0), cost=3.0)
        overlay = db.with_appended([new])
        assert len(overlay) == 11
        assert overlay[10].name == "x0"
        assert overlay.index_of("x0") == 10
        assert overlay.names == db.names + ["x0"]
        np.testing.assert_array_equal(overlay.means[:10], db.means)
        assert overlay.means[10] == 0.5
        assert overlay.costs[10] == 3.0
        assert overlay.appended_count == 1

    def test_empty_append_returns_self(self):
        db = _normal_db(5, 3)
        assert db.with_appended([]) is db

    def test_name_clash_rejected(self):
        db = _normal_db(5, 3)
        clash = UncertainObject(db.names[0], 0.0, NormalSpec(0.0, 1.0))
        with pytest.raises(ValueError):
            db.with_appended([clash])
        a = UncertainObject("dup", 0.0, NormalSpec(0.0, 1.0))
        with pytest.raises(ValueError):
            db.with_appended([a, a])

    def test_reveal_on_appended_index(self):
        db = _normal_db(8, 4)
        overlay = db.with_appended(
            [UncertainObject("x0", 1.0, NormalSpec(0.5, 2.0))]
        )
        revealed = overlay.conditioned(8, 0.25)
        assert revealed.means[8] == 0.25
        assert revealed.variances[8] == 0.0
        assert revealed[8].variance == 0.0


class TestOverlayChainsAreGCable:
    def test_long_chains_accumulate_against_the_root(self):
        db = _normal_db(20, 5)
        intermediates = []
        current = db
        for i in range(5):
            current = current.conditioned(i, 0.0).with_cost(10 + i, 2.0)
            intermediates.append(weakref.ref(current))
        current = current.with_appended(
            [UncertainObject("x0", 0.0, NormalSpec(0.0, 1.0))]
        )
        # Every overlay references the root directly, never its predecessor.
        assert current._overlay_base is db
        final = current
        del current
        gc.collect()
        # All intermediate overlays are collectable; only the final one
        # (held by `final`) and the root survive.
        assert all(ref() is None for ref in intermediates)
        assert final.revealed == {i: 0.0 for i in range(5)}
        assert final.cost_overrides == {10 + i: 2.0 for i in range(5)}


# --------------------------------------------------------------------- #
# Solver-cache safety across overlays (satellite regression)
# --------------------------------------------------------------------- #
class TestCrossOverlayCacheSafety:
    def test_minvar_auto_calculator_not_reused_across_overlays(self):
        workload = uniqueness_workload(generate_urx(24, 7), window_width=4, gamma=40.0)
        db = workload.database
        budget = 0.3 * db.total_cost
        solver = GreedyMinVar(workload.query_function)
        base_plan = solver.select_indices(db, budget)
        # Pricing the first selected object out must change the plan, even
        # though the same solver instance (with its auto-calculator cache)
        # is reused on the overlay.
        expensive = db.with_cost(base_plan[0], db.total_cost * 10)
        overlay_plan = solver.select_indices(expensive, budget)
        fresh_plan = GreedyMinVar(workload.query_function).select_indices(
            expensive, budget
        )
        assert overlay_plan == fresh_plan
        assert base_plan[0] not in overlay_plan
        # And going back to the base must reproduce the original plan.
        assert solver.select_indices(db, budget) == base_plan

    def test_maxpr_weak_cache_not_reused_across_overlays(self):
        db = generate_urx(20, 8).discretized(points=4)
        function = LinearClaim.from_vector(
            np.random.default_rng(8).normal(size=20)
        )
        budget = 0.3 * db.total_cost
        solver = GreedyMaxPr(function, tau=0.0, method="exact")
        base_plan = solver.select_indices(db, budget)
        appended = db.with_appended(
            [
                UncertainObject(
                    "x0", 0.0, NormalSpec(0.0, 1.0).discretize(points=4), cost=1.0
                )
            ]
        )
        overlay_plan = solver.select_indices(appended, budget)
        fresh_plan = GreedyMaxPr(function, tau=0.0, method="exact").select_indices(
            appended, budget
        )
        assert overlay_plan == fresh_plan
        assert solver.select_indices(db, budget) == base_plan

    def test_dep_warm_engine_rejected_without_incremental(self):
        db = _normal_db(10, 9)
        function = LinearClaim.from_vector(np.ones(10))
        model = GaussianWorldModel.from_database(db, gamma=0.5)
        engine = model.engine(function.weights(10))
        with pytest.raises(ValueError):
            ScratchGreedyDep(function, model, warm_engine=engine)


# --------------------------------------------------------------------- #
# Event model: wire form, JSONL, synthesis determinism
# --------------------------------------------------------------------- #
class TestEventModel:
    def test_wire_round_trip(self):
        events = [
            RevealEvent(index=3, value=1.5),
            CostChangeEvent(index=1, cost=2.25),
            InsertEvent(name="s0", current_value=0.1, mean=0.2, std=0.3, cost=1.5, weight=0.4),
            RemoveEvent(index=2),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event
        with pytest.raises(ValueError):
            event_from_dict({"kind": "mystery"})

    def test_jsonl_round_trip(self, tmp_path):
        db = _normal_db(15, 10)
        journal = synthesize_journal(db, 30, seed=11)
        path = tmp_path / "journal.jsonl"
        journal.to_jsonl(path)
        assert Journal.from_jsonl(path) == journal

    def test_synthesis_is_deterministic(self):
        db = _normal_db(15, 10)
        assert synthesize_journal(db, 40, seed=12) == synthesize_journal(db, 40, seed=12)
        assert synthesize_journal(db, 40, seed=12) != synthesize_journal(db, 40, seed=13)

    def test_synthesis_respects_mix(self):
        db = _normal_db(15, 10)
        journal = synthesize_journal(
            db, 10, seed=0, mix={"reveal": 1.0, "cost_change": 0, "insert": 0, "remove": 0}
        )
        assert all(event.kind == "reveal" for event in journal)
        # Once every original object is revealed, the synthesizer falls
        # back to cost changes so the journal still reaches its length.
        exhausted = synthesize_journal(
            db, 20, seed=0, mix={"reveal": 1.0, "cost_change": 0, "insert": 0, "remove": 0}
        )
        assert len(exhausted) == 20
        assert {event.kind for event in exhausted} == {"reveal", "cost_change"}
        with pytest.raises(ValueError):
            synthesize_journal(db, 5, seed=0, mix={"explode": 1.0})


# --------------------------------------------------------------------- #
# Warm-start vs cold equivalence (the tentpole contract)
# --------------------------------------------------------------------- #
def _assert_warm_equals_cold(planner: StreamingPlanner, journal: Journal) -> None:
    for event in journal:
        planner.apply(event)
        cold = planner.cold_plan()
        assert planner.plan == cold, (
            f"{event.kind}: warm {planner.plan} != cold {cold}"
        )
        gap = abs(planner.objective() - planner.objective(cold))
        assert gap <= 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_modular_track_matches_cold_after_every_event(seed):
    db = _normal_db(40, seed)
    rng = np.random.default_rng(100 + seed)
    function = LinearClaim.from_vector(rng.normal(size=40))
    planner = StreamingPlanner(db, function, budget=0.25 * db.total_cost)
    assert planner.track == "modular"
    journal = synthesize_journal(db, 15, seed=200 + seed)
    _assert_warm_equals_cold(planner, journal)
    assert planner.events_applied == 15


@pytest.mark.parametrize("seed", range(10))
def test_dependency_track_matches_cold_after_every_event(seed):
    db = _normal_db(30, seed)
    rng = np.random.default_rng(300 + seed)
    function = LinearClaim.from_vector(rng.normal(size=30))
    model = GaussianWorldModel.from_database(db, gamma=0.6)
    planner = StreamingPlanner(
        db, function, budget=0.2 * db.total_cost, model=model
    )
    assert planner.track == "dependency"
    journal = synthesize_journal(db, 12, seed=400 + seed)
    _assert_warm_equals_cold(planner, journal)
    # Inserts are the documented cold fallback on this track.
    inserts = sum(1 for event in journal if event.kind == "insert")
    assert planner.cold_solves == inserts


@pytest.mark.parametrize("seed", range(4))
def test_decomposed_track_matches_cold_after_every_event(seed):
    workload = uniqueness_workload(
        generate_urx(24, seed), window_width=4, gamma=40.0
    )
    planner = StreamingPlanner(
        workload.database, workload.query_function, budget=0.3 * workload.database.total_cost
    )
    assert planner.track == "decomposed"
    journal = synthesize_journal(workload.database, 12, seed=500 + seed)
    _assert_warm_equals_cold(planner, journal)


def test_dependency_marginal_mode_matches_cold():
    db = _normal_db(25, 42)
    function = LinearClaim.from_vector(np.random.default_rng(42).normal(size=25))
    model = GaussianWorldModel.from_database(db, gamma=0.5)
    planner = StreamingPlanner(
        db, function, budget=0.2 * db.total_cost, model=model, conditional=False
    )
    journal = synthesize_journal(db, 10, seed=43)
    _assert_warm_equals_cold(planner, journal)


def test_event_stream_never_copies_the_database():
    db = _normal_db(50, 6)
    function = LinearClaim.from_vector(np.random.default_rng(6).normal(size=50))
    planner = StreamingPlanner(db, function, budget=0.2 * db.total_cost)
    journal = synthesize_journal(db, 30, seed=7)
    for event in journal:
        planner.apply(event)
    # However long the stream, the planner's database is one overlay over
    # the original root — intermediate overlays are not pinned.
    assert planner.database._overlay_base is db


def test_planner_rejects_bad_configuration():
    db = _normal_db(8, 0)
    function = LinearClaim.from_vector(np.ones(8))
    with pytest.raises(ValueError):
        StreamingPlanner(db, function, budget=1.0, track="mystery")
    with pytest.raises(ValueError):
        StreamingPlanner(db, function, budget=1.0, track="dependency")
    with pytest.raises(TypeError):
        planner = StreamingPlanner(db, function, budget=1.0)
        planner.apply("not an event")


# --------------------------------------------------------------------- #
# Replay harness
# --------------------------------------------------------------------- #
def _replay_factory(seed: int = 2, budget_fraction: float = 0.3):
    def factory() -> StreamingPlanner:
        workload = uniqueness_workload(
            generate_urx(24, seed), window_width=4, gamma=40.0
        )
        return StreamingPlanner(
            workload.database,
            workload.query_function,
            budget=budget_fraction * workload.database.total_cost,
        )

    return factory


def test_replay_twice_is_byte_identical():
    factory = _replay_factory()
    base = factory().database
    journal = synthesize_journal(base, 12, seed=9)
    first = replay_journal(journal, factory)
    second = replay_journal(journal, factory, compare_cold=False)
    assert plan_signature(first) == plan_signature(second)


def test_replay_records_divergence_and_timing():
    factory = _replay_factory()
    journal = synthesize_journal(factory().database, 8, seed=10)
    result = replay_journal(journal, factory)
    assert len(result.records) == 8
    summary = result.divergence_summary()
    assert summary["events_compared"] == 8
    assert summary["min_jaccard"] == 1.0
    assert summary["max_objective_gap"] <= 1e-9
    assert result.warm_seconds > 0.0
    assert result.cold_seconds > 0.0
    payload = result.as_dict()
    assert payload["warm_solves"] + payload["cold_fallbacks"] == 8

    no_cold = replay_journal(journal, factory, compare_cold=False)
    assert no_cold.cold_seconds == 0.0
    assert all("cold_plan" not in record for record in no_cold.records)

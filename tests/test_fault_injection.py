"""Fault injection, retries and degradation chains.

Covers the resilience toolbox in isolation (deterministic fault plans,
backoff policies, counters) and each degradation chain it drives:
kernel→numpy, pool→serial, NaN-event rejection —
ending with the chaos invariant: a faulted replay's plans are identical
to a clean replay's, only its counters differ.
"""

import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.claims.functions import LinearClaim
from repro.experiments.parallel import collect_or_rerun
from repro.kernels import dispatch
from repro.kernels import numpy_impl
from repro.resilience import (
    FAULT_SITES,
    BackoffPolicy,
    FaultPlan,
    KernelBackendFault,
    WorkerCrashFault,
    degradation_scope,
    fault_scope,
    global_degradations,
    injected_counts,
    maybe_corrupt_event,
    maybe_inject,
    record_degradation,
    reset_global_degradations,
    retry_call,
)
from repro.streaming import (
    CostChangeEvent,
    Journal,
    JournalCorruptionError,
    RevealEvent,
    StreamingPlanner,
    plan_signature,
    replay_journal,
    synthesize_journal,
)
from repro.uncertainty.database import UncertainDatabase


def _normal_db(n, seed):
    rng = np.random.default_rng(seed)
    return UncertainDatabase.from_normal_arrays(
        rng.normal(size=n),
        np.abs(rng.normal(size=n)) + 0.1,
        np.abs(rng.normal(size=n)) + 0.5,
    )


# --------------------------------------------------------------------- #
# FaultPlan: determinism, validation, wire form, caps
# --------------------------------------------------------------------- #
def test_fault_plan_decide_is_deterministic_and_pure():
    a = FaultPlan(seed=7, rates={"kernel": 0.3})
    b = FaultPlan(seed=7, rates={"kernel": 0.3})
    decisions = [a.decide("kernel", i) for i in range(200)]
    assert decisions == [b.decide("kernel", i) for i in range(200)]
    assert any(decisions) and not all(decisions)
    # Unrated and extreme-rate sites behave as constants.
    assert not any(a.decide("pool", i) for i in range(50))
    always = FaultPlan(rates={"store": 1.0})
    assert all(always.decide("store", i) for i in range(50))


def test_fault_plan_validation():
    with pytest.raises(ValueError, match="unknown fault sites"):
        FaultPlan(rates={"disk": 0.5})
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        FaultPlan(rates={"kernel": 1.5})
    with pytest.raises(ValueError, match="max_consecutive"):
        FaultPlan(max_consecutive=0)


def test_fault_plan_json_round_trip_and_bare_rates():
    plan = FaultPlan(seed=3, rates={"kernel": 0.1, "store": 0.2}, max_per_site=9)
    assert FaultPlan.from_json(plan.to_json()) == plan
    bare = FaultPlan.from_json('{"kernel": 0.25}')
    assert bare == FaultPlan(seed=0, rates={"kernel": 0.25})
    with pytest.raises(ValueError, match="JSON object"):
        FaultPlan.from_json("[1, 2]")


def test_max_consecutive_forces_retry_convergence():
    plan = FaultPlan(rates={"kernel": 1.0}, max_consecutive=2)
    with fault_scope(plan):
        outcomes = []
        for _ in range(9):
            try:
                maybe_inject("kernel")
                outcomes.append("ok")
            except KernelBackendFault:
                outcomes.append("fail")
    assert outcomes == ["fail", "fail", "ok"] * 3


def test_max_per_site_caps_total_injections():
    plan = FaultPlan(rates={"pool": 1.0}, max_consecutive=100, max_per_site=3)
    # Under a REPRO_FAULTS env plan (the CI chaos leg) the outer state may
    # already hold injections from earlier tests — compare against it, not {}.
    before = injected_counts()
    with fault_scope(plan):
        failures = 0
        for _ in range(20):
            try:
                maybe_inject("pool")
            except WorkerCrashFault:
                failures += 1
        assert failures == 3
        assert injected_counts() == {"pool": 3}
    assert injected_counts() == before  # scope exit restores the prior plan


# --------------------------------------------------------------------- #
# BackoffPolicy and retry_call
# --------------------------------------------------------------------- #
def test_backoff_delays_grow_cap_and_jitter_deterministically():
    policy = BackoffPolicy(base_delay=0.01, max_delay=0.04, multiplier=2.0, jitter=0.0)
    assert [policy.delay(k) for k in range(4)] == [0.01, 0.02, 0.04, 0.04]
    jittered = BackoffPolicy(base_delay=0.01, max_delay=0.04, jitter=0.5, seed=1)
    delays = [jittered.delay(k) for k in range(4)]
    assert delays == [jittered.delay(k) for k in range(4)]  # replayable
    for k, delay in enumerate(delays):
        raw = min(0.01 * 2.0**k, 0.04)
        assert raw * 0.5 <= delay <= raw


def test_backoff_policy_validation():
    with pytest.raises(ValueError, match="attempts"):
        BackoffPolicy(attempts=0)
    with pytest.raises(ValueError, match="nonnegative"):
        BackoffPolicy(base_delay=-1.0)
    with pytest.raises(ValueError, match="jitter"):
        BackoffPolicy(jitter=2.0)


def test_retry_call_absorbs_transient_failures_and_counts():
    attempts = {"n": 0}

    def flaky():
        attempts["n"] += 1
        if attempts["n"] < 3:
            raise OSError("transient")
        return "done"

    slept = []
    policy = BackoffPolicy(attempts=5, base_delay=0.01, jitter=0.0)
    with degradation_scope() as counters:
        result = retry_call(
            flaky, retryable=(OSError,), policy=policy, site="pool", sleep=slept.append
        )
    assert result == "done"
    assert slept == [policy.delay(0), policy.delay(1)]
    assert counters.get("pool", "retry") == 2
    assert counters.get("pool", "retries_exhausted") == 0


def test_retry_call_exhaustion_reraises_last_error():
    def always_fails():
        raise OSError("still down")

    with degradation_scope() as counters:
        with pytest.raises(OSError, match="still down"):
            retry_call(
                always_fails,
                retryable=(OSError,),
                policy=BackoffPolicy(attempts=3, base_delay=0.0),
                site="store",
                sleep=lambda _: None,
            )
    assert counters.get("store", "retry") == 2
    assert counters.get("store", "retries_exhausted") == 1


def test_retry_call_nonretryable_propagates_immediately():
    calls = {"n": 0}

    def wrong():
        calls["n"] += 1
        raise KeyError("not transient")

    with pytest.raises(KeyError):
        retry_call(wrong, retryable=(OSError,), sleep=lambda _: None)
    assert calls["n"] == 1


# --------------------------------------------------------------------- #
# Degradation counters and scopes
# --------------------------------------------------------------------- #
def test_degradation_scopes_nest_and_merge():
    reset_global_degradations()
    with degradation_scope() as outer:
        record_degradation("kernels", "compiled_to_numpy")
        with degradation_scope() as inner:
            record_degradation("pool", "pool_to_serial", count=2)
        record_degradation("store", "retry")
    assert inner.snapshot() == {"pool.pool_to_serial": 2}
    assert outer.snapshot() == {
        "kernels.compiled_to_numpy": 1,
        "pool.pool_to_serial": 2,
        "store.retry": 1,
    }
    assert outer.total() == 4
    # The global collector saw everything too.
    assert global_degradations().snapshot() == outer.snapshot()
    merged = global_degradations()
    merged.merge({"store.retry": 4})
    assert merged.get("store", "retry") == 5
    reset_global_degradations()
    assert global_degradations().total() == 0


# --------------------------------------------------------------------- #
# Degradation chain: kernel → numpy
# --------------------------------------------------------------------- #
def test_injected_kernel_fault_degrades_one_call_to_numpy():
    shifts = np.linspace(-2.0, 2.0, 7)
    sds = np.full(7, 0.8)
    expected = numpy_impl.normal_surprise_scores(shifts, sds, 0.5)
    plan = FaultPlan(rates={"kernel": 1.0}, max_consecutive=1)
    with fault_scope(plan), degradation_scope() as counters:
        faulted = dispatch.normal_surprise_scores(shifts, sds, 0.5)
        clean = dispatch.normal_surprise_scores(shifts, sds, 0.5)
    np.testing.assert_array_equal(faulted, expected)
    np.testing.assert_array_equal(clean, expected)
    tier = dispatch.effective_tier()
    assert counters.get("kernels", f"{tier}_to_numpy") == 1
    assert counters.get("faults", "injected_kernel") == 1


# --------------------------------------------------------------------- #
# Degradation chain: pool → serial
# --------------------------------------------------------------------- #
class _FakeFuture:
    def __init__(self, outcome):
        self._outcome = outcome

    def result(self):
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        return self._outcome


def test_collect_or_rerun_reruns_crashed_shard_serially():
    with degradation_scope() as counters:
        value = collect_or_rerun(
            _FakeFuture(BrokenProcessPool("worker died")), lambda: "serial"
        )
    assert value == "serial"
    assert counters.get("pool", "pool_to_serial") == 1


def test_collect_or_rerun_injected_worker_crash():
    plan = FaultPlan(rates={"pool": 1.0}, max_consecutive=1)
    with fault_scope(plan), degradation_scope() as counters:
        first = collect_or_rerun(_FakeFuture("parallel"), lambda: "serial")
        second = collect_or_rerun(_FakeFuture("parallel"), lambda: "serial")
    assert (first, second) == ("serial", "parallel")
    assert counters.get("pool", "pool_to_serial") == 1


def test_collect_or_rerun_passes_real_errors_through():
    with pytest.raises(ValueError, match="real bug"):
        collect_or_rerun(_FakeFuture(ValueError("real bug")), lambda: "serial")


# --------------------------------------------------------------------- #
# Malformed journal files fail loudly, naming where
# --------------------------------------------------------------------- #
def test_malformed_journal_file_names_line_and_offset(tmp_path):
    path = tmp_path / "journal.jsonl"
    Journal([RevealEvent(index=i, value=float(i)) for i in range(3)]).to_jsonl(path)
    valid_bytes = path.stat().st_size
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "reveal", "ind\n')  # a line cut off mid-record
    with pytest.raises(JournalCorruptionError) as excinfo:
        Journal.from_jsonl(path)
    assert excinfo.value.line_number == 4
    assert excinfo.value.byte_offset == valid_bytes
    assert "line 4" in str(excinfo.value)


# --------------------------------------------------------------------- #
# Degradation chain: NaN events are rejected, never applied (satellite 2)
# --------------------------------------------------------------------- #
def test_maybe_corrupt_event_poisons_cost_or_value():
    plan = FaultPlan(rates={"event": 1.0}, max_consecutive=100)
    with fault_scope(plan):
        cost_event = maybe_corrupt_event(CostChangeEvent(index=1, cost=2.0))
        reveal_event = maybe_corrupt_event(RevealEvent(index=2, value=0.5))
    assert math.isnan(cost_event.cost)
    assert math.isnan(reveal_event.value)


def test_planner_rejects_nan_events_without_mutating_state():
    db = _normal_db(12, 0)
    fn = LinearClaim.from_vector(np.ones(12))
    planner = StreamingPlanner(db, fn, budget=0.3 * db.total_cost)
    before = planner.state_fingerprint()
    with pytest.raises(ValueError, match="must be finite"):
        planner.apply(RevealEvent(index=3, value=float("nan")))
    with pytest.raises(ValueError, match="cost"):
        planner.apply(CostChangeEvent(index=3, cost=float("nan")))
    with pytest.raises(ValueError, match="cost"):
        planner.apply(CostChangeEvent(index=3, cost=-1.0))
    assert planner.state_fingerprint() == before
    assert planner.events_applied == 0


def test_database_validation_names_the_offending_index():
    values = np.zeros(4)
    stds = np.ones(4)
    with pytest.raises(ValueError, match=r"current_values\[2\]"):
        UncertainDatabase.from_normal_arrays(
            np.array([0.0, 1.0, np.nan, 2.0]), stds, np.ones(4)
        )
    with pytest.raises(ValueError, match=r"stds\[1\]"):
        UncertainDatabase.from_normal_arrays(
            values, np.array([1.0, -0.5, 1.0, 1.0]), np.ones(4)
        )
    with pytest.raises(ValueError, match=r"costs\[3\]"):
        UncertainDatabase.from_normal_arrays(
            values, stds, np.array([1.0, 1.0, 1.0, np.nan])
        )
    with pytest.raises(ValueError, match=r"means\[0\]"):
        UncertainDatabase.from_normal_arrays(
            values, stds, np.ones(4), means=np.array([np.inf, 0.0, 0.0, 0.0])
        )


def test_with_cost_rejects_nan_but_allows_inf_tombstone():
    db = _normal_db(5, 1)
    with pytest.raises(ValueError, match="positive"):
        db.with_cost(0, float("nan"))
    with pytest.raises(ValueError, match="positive"):
        db.with_cost(0, 0.0)
    tombstoned = db.with_cost(0, math.inf)
    assert math.isinf(tombstoned.costs[0])


# --------------------------------------------------------------------- #
# The chaos invariant: faults change counters, never plans
# --------------------------------------------------------------------- #
def test_chaos_replay_has_zero_plan_divergence(tmp_path):
    from repro.store import PlanStore, durable_replay

    db = _normal_db(24, 4)
    fn = LinearClaim.from_vector(np.random.default_rng(8).uniform(0.2, 1.0, 24))
    journal = synthesize_journal(db, 30, seed=2, insert_weight=0.4)
    factory = lambda: StreamingPlanner(db, fn, budget=0.25 * db.total_cost)
    clean = plan_signature(replay_journal(journal, factory, compare_cold=False))
    plan = FaultPlan(seed=5, rates={"kernel": 0.1, "store": 0.2, "event": 0.3})
    with fault_scope(plan), degradation_scope() as counters:
        with PlanStore(tmp_path / "chaos.db") as store:
            faulted = plan_signature(
                durable_replay(journal, factory, store, stream_id="s")
            )
        injections = injected_counts()
    assert faulted == clean
    assert injections.get("event", 0) > 0
    assert injections.get("store", 0) > 0
    # Corrupted events are re-read pristine from the store and retried;
    # injected lock faults are absorbed by the store's bounded retries.
    assert counters.get("planner", "event_retry") >= 1
    assert counters.get("store", "retry") >= 1


# --------------------------------------------------------------------- #
# REPRO_FAULTS installs a plan at import time (the CI chaos leg)
# --------------------------------------------------------------------- #
def test_repro_faults_env_installs_plan_at_import():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    env["REPRO_FAULTS"] = '{"seed": 2, "rates": {"kernel": 0.1}}'
    script = (
        "from repro.resilience import active_fault_plan; "
        "plan = active_fault_plan(); "
        "print(plan.seed, plan.rates['kernel'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
    )
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.split() == [b"2", b"0.1"]

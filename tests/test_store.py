"""Unit tests for the SQLite plan store: durability, checksums, retries."""

import sqlite3

import pytest

from repro.resilience import BackoffPolicy, FaultPlan, degradation_scope, fault_scope
from repro.store import PlanStore, StoreCorruptionError


@pytest.fixture
def store(tmp_path):
    with PlanStore(tmp_path / "plans.db") as handle:
        yield handle


# --------------------------------------------------------------------- #
# Streams, events, plans, checkpoints, cursors, counters
# --------------------------------------------------------------------- #
def test_streams_and_metadata_merge(store):
    assert store.stream_ids() == []
    store.ensure_stream("a", {"seed": 1})
    store.ensure_stream("b", None)
    store.ensure_stream("a", {"events": 50})  # merge, not replace
    assert store.stream_ids() == ["a", "b"]
    assert store.stream_metadata("a") == {"seed": 1, "events": 50}
    assert store.stream_metadata("b") == {}


def test_event_journal_round_trip(store):
    store.ensure_stream("s", None)
    events = [{"kind": "reveal", "index": i, "value": float(i)} for i in range(5)]
    for seq, payload in enumerate(events):
        store.append_event("s", seq, payload)
    assert store.event_count("s") == 5
    assert store.events("s") == list(enumerate(events))
    assert store.events("s", start_seq=3) == [(3, events[3]), (4, events[4])]


def test_event_reappend_is_idempotent_but_append_only(store):
    store.ensure_stream("s", None)
    payload = {"kind": "remove", "index": 2}
    store.append_event("s", 0, payload)
    store.append_event("s", 0, dict(payload))  # identical re-append: no-op
    assert store.event_count("s") == 1
    with pytest.raises(StoreCorruptionError, match="append-only"):
        store.append_event("s", 0, {"kind": "remove", "index": 3})


def test_plan_records_replace_and_slice(store):
    store.ensure_stream("s", None)
    for seq in range(4):
        store.record_plan("s", seq, {"mode": "warm", "plan": [seq]})
    store.record_plan("s", 2, {"mode": "cold", "plan": [2, 9]})  # replace
    records = store.plan_records("s")
    assert [seq for seq, _ in records] == [0, 1, 2, 3]
    assert records[2][1] == {"mode": "cold", "plan": [2, 9]}
    assert [seq for seq, _ in store.plan_records("s", upto_seq=1)] == [0, 1]


def test_plan_record_reads_one_row(store):
    store.ensure_stream("s", None)
    for seq in range(3):
        store.record_plan("s", seq, {"mode": "warm", "plan": [seq, 7]})
    assert store.plan_record("s", 1) == {"mode": "warm", "plan": [1, 7]}
    assert store.plan_record("s", 3) is None
    assert store.plan_record("other", 0) is None


def test_plan_record_detects_a_tampered_checksum(tmp_path):
    path = tmp_path / "p.db"
    with PlanStore(path) as store:
        store.ensure_stream("s", None)
        store.record_plan("s", 0, {"plan": [1]})
        store.record_plan("s", 1, {"plan": [2]})
    with sqlite3.connect(path) as raw:
        raw.execute("UPDATE plans SET checksum = checksum + 1 WHERE seq = 1")
        raw.commit()
    with PlanStore(path) as store:
        assert store.plan_record("s", 0) == {"plan": [1]}
        with pytest.raises(StoreCorruptionError) as caught:
            store.plan_record("s", 1)
        assert (caught.value.table, caught.value.seq) == ("plans", 1)


def test_checkpoints_latest_and_bounded(store):
    store.ensure_stream("s", None)
    for seq in (0, 10, 20):
        store.save_checkpoint("s", seq, {"events_applied": seq})
    assert store.checkpoint_seqs("s") == [0, 10, 20]
    seq, state = store.latest_checkpoint("s")
    assert (seq, state["events_applied"]) == (20, 20)
    seq, state = store.latest_checkpoint("s", max_seq=15)
    assert (seq, state["events_applied"]) == (10, 10)
    assert store.latest_checkpoint("missing") is None


def test_cursor_and_counters(store):
    store.ensure_stream("s", None)
    assert store.cursor("s") == -1
    store.set_cursor("s", 7)
    store.set_cursor("s", 8)
    assert store.cursor("s") == 8
    store.merge_counters("s", {"pool.pool_to_serial": 2})
    store.merge_counters("s", {"pool.pool_to_serial": 1, "store.retry": 4})
    assert store.counters("s") == {"pool.pool_to_serial": 3, "store.retry": 4}


def test_transaction_rolls_back_on_error(store):
    store.ensure_stream("s", None)
    with pytest.raises(RuntimeError, match="boom"):
        with store.transaction():
            store.record_plan("s", 0, {"plan": []})
            raise RuntimeError("boom")
    assert store.plan_records("s") == []


def test_close_is_idempotent_and_blocks_use(tmp_path):
    store = PlanStore(tmp_path / "p.db")
    store.close()
    store.close()
    with pytest.raises(RuntimeError, match="closed"):
        store.stream_ids()


# --------------------------------------------------------------------- #
# Checksums and corruption detection
# --------------------------------------------------------------------- #
def _corrupt_row(path, table):
    with sqlite3.connect(path) as raw:
        raw.execute(f"UPDATE {table} SET payload = '{{\"tampered\": true}}'")
        raw.commit()


@pytest.mark.parametrize(
    "table, seq", [("events", 0), ("plans", 0), ("checkpoints", 1)]
)
def test_checksum_detects_tampered_rows(tmp_path, table, seq):
    path = tmp_path / "p.db"
    with PlanStore(path) as store:
        store.ensure_stream("s", None)
        store.append_event("s", 0, {"kind": "remove", "index": 1})
        store.record_plan("s", 0, {"plan": [1]})
        store.save_checkpoint("s", 1, {"events_applied": 1})
    _corrupt_row(path, table)
    with PlanStore(path) as store:
        reader = {
            "events": lambda: store.events("s"),
            "plans": lambda: store.plan_records("s"),
            "checkpoints": lambda: store.latest_checkpoint("s"),
        }[table]
        with pytest.raises(StoreCorruptionError):
            reader()
        report = store.verify()
        assert report["corrupt"] == [{"table": table, "stream_id": "s", "seq": seq}]


def test_verify_clean_store(store):
    store.ensure_stream("s", None)
    store.append_event("s", 0, {"kind": "remove", "index": 1})
    report = store.verify()
    assert report["corrupt"] == []
    assert report["rows_checked"] >= 1


# --------------------------------------------------------------------- #
# Transient lock faults are retried, bounded and counted
# --------------------------------------------------------------------- #
def test_injected_lock_faults_are_absorbed(tmp_path):
    policy = BackoffPolicy(attempts=4, base_delay=0.0, max_delay=0.0)
    plan = FaultPlan(seed=5, rates={"store": 0.5}, max_consecutive=2)
    with PlanStore(tmp_path / "p.db", retry_policy=policy) as store:
        with fault_scope(plan), degradation_scope() as degradations:
            store.ensure_stream("s", None)
            for seq in range(20):
                store.append_event("s", seq, {"kind": "remove", "index": seq})
            assert store.event_count("s") == 20
        counts = degradations.snapshot()
        assert counts.get("store.retry", 0) > 0
        assert "store.retries_exhausted" not in counts


def test_exhausted_retries_raise_the_lock_error(tmp_path):
    policy = BackoffPolicy(attempts=2, base_delay=0.0, max_delay=0.0)
    plan = FaultPlan(seed=0, rates={"store": 1.0}, max_consecutive=100)
    with PlanStore(tmp_path / "p.db", retry_policy=policy) as store:
        with fault_scope(plan), degradation_scope() as degradations:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.ensure_stream("s", None)
        assert degradations.get("store", "retries_exhausted") >= 1


def test_nonretryable_errors_propagate_unchanged(store):
    with pytest.raises(sqlite3.OperationalError, match="syntax"):
        store._execute("THIS IS NOT SQL")

"""Unit tests for the cleaning-recommendation service.

Endpoint behavior, idempotent ingest, the fault matrix over the new
``http`` / ``store-read`` sites, planner ownership, and the
storage-backed database mode (lazy loads + dirty-page writeback).
"""

import math
import threading

import numpy as np
import pytest

from repro.resilience import (
    FaultPlan,
    fault_scope,
    injected_counts,
)
from repro.service import (
    CleaningService,
    ServiceClient,
    ServiceError,
    SessionConfig,
    SessionManager,
    plan_signature_hex,
)
from repro.service.sessions import _RWLock
from repro.store import DatabasePageStore, PlanStore, StoredDatabase
from repro.streaming.planner import StreamingPlanner
from repro.uncertainty.database import UncertainDatabase


@pytest.fixture
def service(tmp_path):
    with CleaningService(tmp_path / "svc").start_background() as handle:
        yield handle


@pytest.fixture
def client(service):
    handle = ServiceClient(service.url)
    yield handle
    handle.close()


def _linear_session(client, **overrides):
    config = {"kind": "linear_normal", "n": 40, "seed": 5, "budget": 7.0}
    config.update(overrides)
    return client.create_session(**config)


# --------------------------------------------------------------------- #
# Endpoints
# --------------------------------------------------------------------- #
def test_healthz_and_session_lifecycle(client):
    assert client.healthz()["status"] == "ok"
    created = _linear_session(client)
    sid = created["session"]
    assert created["version"] == 0
    assert created["signature"] == plan_signature_hex(0, created["plan"])
    assert client.request("GET", "/sessions")[1]["sessions"] == [sid]
    info = client.info(sid)
    assert info["track"] == "modular"
    assert info["n"] == 40
    client.delete(sid)
    status, body = client.request("GET", f"/sessions/{sid}")
    assert status == 404 and body["code"] == "not_found"


def test_unknown_routes_and_bad_bodies_are_4xx(client):
    assert client.request("GET", "/nope")[0] == 404
    status, body = client.request("POST", "/sessions", body={"kind": "wat"})
    assert status == 400 and body["code"] == "bad_kind"
    status, body = client.request("POST", "/sessions", body={"n": 40, "bogus": 1})
    assert status == 400 and "bogus" in body["error"]


def test_plan_read_back_matches_fresh_solve_at_any_budget(client):
    created = _linear_session(client, n=60, seed=9, budget=10.0)
    sid = created["session"]
    full = client.plan(sid)
    assert full["plan"] == created["plan"]
    # The served read-back at b must equal a from-scratch solve at b.
    config = SessionConfig(kind="linear_normal", n=60, seed=9, budget=10.0)
    database, function = config.build_inputs()
    for budget in (2.0, 4.5, 7.3, 10.0):
        served = client.plan(sid, budget=budget)
        fresh = [int(i) for i in StreamingPlanner(database, function, budget=budget).plan]
        assert served["plan"] == fresh, f"budget {budget}"
        assert served["signature"] == plan_signature_hex(0, served["plan"])


def test_plan_budget_validation(client):
    sid = _linear_session(client, budget=5.0)["session"]
    status, body = client.request("GET", f"/sessions/{sid}/plan?budget=50")
    assert status == 400 and "exceeds" in body["error"]
    status, body = client.request("GET", f"/sessions/{sid}/plan?budget=-1")
    assert status == 400
    status, body = client.request("GET", f"/sessions/{sid}/plan?budget=abc")
    assert status == 400


def test_ingest_acks_carry_monotone_versions_and_signatures(client):
    sid = _linear_session(client)["session"]
    versions = []
    for i in range(5):
        ack = client.ingest(sid, {"kind": "reveal", "index": i, "value": 10.0 + i})
        assert ack["signature"] == plan_signature_hex(ack["version"], ack["plan"])
        versions.append(ack["version"])
    assert versions == [1, 2, 3, 4, 5]


def test_ingest_validation_leaves_nothing_durable(client, service):
    sid = _linear_session(client)["session"]
    bad_events = [
        {"kind": "reveal", "index": 999, "value": 1.0},  # out of range
        {"kind": "reveal", "index": 0, "value": float("nan")},
        {"kind": "cost_change", "index": 0, "cost": -2.0},
        {"kind": "unknown_kind"},
        {"no_kind": True},
    ]
    for event in bad_events:
        status, body = client.request("POST", f"/sessions/{sid}/events", body=event)
        assert status == 400, event
    session = service.manager.get(sid)
    assert session.store.event_count(sid) == 0
    assert client.info(sid)["version"] == 0


def test_objects_slice(client):
    sid = _linear_session(client, n=25)["session"]
    status, body = client.request("GET", f"/sessions/{sid}/objects?start=20&count=10")
    assert status == 200
    assert [o["index"] for o in body["objects"]] == [20, 21, 22, 23, 24]
    assert all(o["cost"] > 0 for o in body["objects"])


def test_uniqueness_workload_sessions_serve_decomposed_track(client):
    created = client.create_session(
        kind="urx_uniqueness", n=40, seed=0, budget=12.0, gamma=170.0
    )
    sid = created["session"]
    assert client.info(sid)["track"] == "decomposed"
    ack = client.ingest(sid, {"kind": "reveal", "index": 3, "value": 5.0})
    assert ack["version"] == 1
    read = client.plan(sid, budget=6.0)
    assert read["version"] == 1


# --------------------------------------------------------------------- #
# Idempotency
# --------------------------------------------------------------------- #
def test_keyed_retry_is_a_no_op(client, service):
    sid = _linear_session(client)["session"]
    first = client.ingest(
        sid, {"kind": "reveal", "index": 2, "value": 8.0}, idempotency_key="once"
    )
    second = client.ingest(
        sid, {"kind": "reveal", "index": 2, "value": 8.0}, idempotency_key="once"
    )
    assert second["idempotent_replay"] is True
    assert second["seq"] == first["seq"]
    assert second["version"] == first["version"]
    assert second["plan"] == first["plan"]
    assert second["signature"] == first["signature"]
    assert service.manager.get(sid).store.event_count(sid) == 1


def test_header_and_body_idempotency_keys_are_equivalent(client, service):
    sid = _linear_session(client)["session"]
    client.ingest(sid, {"kind": "reveal", "index": 1, "value": 9.0}, idempotency_key="k")
    status, body = client.request(
        "POST",
        f"/sessions/{sid}/events",
        body={"kind": "reveal", "index": 1, "value": 9.0, "idempotency_key": "k"},
    )
    assert status == 200 and body["idempotent_replay"] is True
    assert service.manager.get(sid).store.event_count(sid) == 1


# --------------------------------------------------------------------- #
# The fault matrix: http + store-read sites
# --------------------------------------------------------------------- #
def test_http_fault_kills_request_before_any_durable_write(tmp_path):
    with CleaningService(tmp_path / "svc").start_background() as service:
        client = ServiceClient(service.url, max_retries=1)
        sid = _linear_session(client)["session"]
        store = service.manager.get(sid).store
        # Rate 1.0 with max_consecutive high enough: every request dies.
        with fault_scope(FaultPlan(seed=0, rates={"http": 1.0}, max_consecutive=5)):
            status, body = client.request(
                "POST",
                f"/sessions/{sid}/events",
                body={"kind": "reveal", "index": 0, "value": 9.0},
                idempotency_key="kf",
                retry=False,
            )
            assert status == 503 and body["retryable"] is True
        # The killed in-flight request committed nothing: no journal row,
        # no idempotency binding, version unchanged.
        assert store.event_count(sid) == 0
        assert store.idempotency_seq(sid, "kf") is None
        assert client.info(sid)["version"] == 0
        client.close()


def test_keyed_client_retries_through_injected_http_faults(tmp_path):
    with CleaningService(tmp_path / "svc").start_background() as service:
        client = ServiceClient(service.url)
        sid = _linear_session(client)["session"]
        with fault_scope(FaultPlan(seed=1, rates={"http": 0.9})):
            ack = client.ingest(
                sid, {"kind": "reveal", "index": 4, "value": 11.0}, idempotency_key="kr"
            )
            replay = client.ingest(
                sid, {"kind": "reveal", "index": 4, "value": 11.0}, idempotency_key="kr"
            )
            counts = injected_counts()
        assert ack["version"] == 1
        assert replay["version"] == 1
        assert service.manager.get(sid).store.event_count(sid) == 1
        assert counts.get("http", 0) >= 1
        client.close()


def test_store_read_faults_are_absorbed_by_page_retries(tmp_path):
    rng = np.random.default_rng(0)
    database = UncertainDatabase.from_normal_arrays(
        rng.normal(10, 2, 64), rng.uniform(0.5, 2, 64), costs=rng.uniform(1, 3, 64)
    )
    with PlanStore(tmp_path / "p.db") as store:
        pages = DatabasePageStore(store, "s")
        pages.save_database(database, page_size=8)
        with fault_scope(FaultPlan(seed=2, rates={"store-read": 0.4})):
            stored = pages.open_database()
            assert np.allclose(stored._current_values, database._current_values)
            assert np.allclose(stored._costs, database._costs)
            assert injected_counts().get("store-read", 0) >= 1


# --------------------------------------------------------------------- #
# Planner ownership + version stamps
# --------------------------------------------------------------------- #
def test_planner_ownership_guard():
    config = SessionConfig(kind="linear_normal", n=20, seed=0, budget=4.0)
    database, function = config.build_inputs()
    planner = StreamingPlanner(database, function, budget=4.0)
    planner.claim_owner("svc-a")
    assert planner.owner == "svc-a"
    with pytest.raises(RuntimeError, match="already owned"):
        planner.claim_owner("svc-b")
    planner.release_owner()
    planner.claim_owner("svc-b")
    with pytest.raises(ValueError):
        StreamingPlanner(database, function, budget=4.0).claim_owner("")


def test_version_equals_events_applied():
    config = SessionConfig(kind="linear_normal", n=20, seed=1, budget=4.0)
    database, function = config.build_inputs()
    planner = StreamingPlanner(database, function, budget=4.0)
    assert planner.version == 0
    from repro.streaming.events import RevealEvent

    planner.apply(RevealEvent(index=0, value=9.0))
    planner.apply(RevealEvent(index=1, value=9.5))
    assert planner.version == 2 == planner.events_applied


def test_manager_rejects_double_resume_ownership(tmp_path):
    manager = SessionManager(tmp_path / "svc", owner="svc-1")
    session = manager.create_session({"kind": "linear_normal", "n": 20, "budget": 4.0})
    with pytest.raises(RuntimeError, match="already owned"):
        session.planner.claim_owner("interloper")
    manager.close()


# --------------------------------------------------------------------- #
# Storage-backed mode
# --------------------------------------------------------------------- #
def test_storage_backed_session_lazy_loads_and_writes_back(tmp_path):
    manager = SessionManager(tmp_path / "svc")
    session = manager.create_session(
        {
            "kind": "linear_normal",
            "n": 48,
            "seed": 3,
            "budget": 6.0,
            "storage_backed": True,
            "page_size": 16,
        }
    )
    sid = session.session_id
    assert isinstance(session.planner.database, UncertainDatabase)
    root = session.planner.database._overlay_base or session.planner.database
    assert isinstance(root, StoredDatabase)

    session.ingest({"kind": "reveal", "index": 5, "value": 12.5})
    session.ingest({"kind": "cost_change", "index": 7, "cost": 3.25})
    # Dirty pages were written back: a fresh page view sees the new values.
    fresh = session.pages.open_database()
    assert math.isclose(fresh._current_values[5], 12.5)
    assert math.isclose(fresh._costs[7], 3.25)
    # Means / stds stay pristine (the stored base is the *initial* database).
    config = SessionConfig(kind="linear_normal", n=48, seed=3, budget=6.0)
    database, _ = config.build_inputs()
    assert np.allclose(fresh._means, database._means)
    assert np.allclose(fresh._stds, database._stds)
    manager.close()


def test_storage_backed_session_resumes_to_identical_plan(tmp_path):
    manager = SessionManager(tmp_path / "svc")
    session = manager.create_session(
        {
            "kind": "linear_normal",
            "n": 32,
            "seed": 4,
            "budget": 5.0,
            "storage_backed": True,
            "page_size": 8,
            "checkpoint_every": 3,
        }
    )
    sid = session.session_id
    acks = [
        session.ingest({"kind": "reveal", "index": i, "value": 9.0 + i * 0.25})
        for i in range(7)
    ]
    manager.close()

    recovered = SessionManager(tmp_path / "svc")
    assert recovered.resume_all() == [sid]
    resumed = recovered.get(sid)
    assert resumed.planner.version == 7
    assert resumed.snapshot_plan()["plan"] == acks[-1]["plan"]
    assert resumed.snapshot_plan()["signature"] == acks[-1]["signature"]
    recovered.close()


def test_storage_backed_rejects_discrete_workloads(tmp_path):
    manager = SessionManager(tmp_path / "svc")
    with pytest.raises(ServiceError, match="all-normal"):
        manager.create_session(
            {"kind": "urx_uniqueness", "n": 40, "budget": 8.0, "storage_backed": True}
        )
    manager.close()


def test_storage_backed_must_be_a_json_boolean(client):
    # bool("false") is True: a string must not silently switch paging on.
    for bad in ("false", "true", 0, 1, None):
        status, body = client.request(
            "POST", "/sessions", body={"n": 40, "budget": 7.0, "storage_backed": bad}
        )
        assert status == 400 and body["code"] == "bad_field", bad
        assert "storage_backed" in body["error"]
    for good in (True, False):
        created = _linear_session(client, storage_backed=good)
        assert client.info(created["session"])["storage_backed"] is good


# --------------------------------------------------------------------- #
# The readers-writer lock
# --------------------------------------------------------------------- #
def test_rwlock_excludes_writers_and_admits_parallel_readers():
    lock = _RWLock()
    state = {"readers": 0, "max_readers": 0, "writer_active": False, "tainted": False}
    guard = threading.Lock()

    def reader():
        for _ in range(50):
            with lock.read():
                with guard:
                    state["readers"] += 1
                    state["max_readers"] = max(state["max_readers"], state["readers"])
                    if state["writer_active"]:
                        state["tainted"] = True
                with guard:
                    state["readers"] -= 1

    def writer():
        for _ in range(25):
            with lock.write():
                with guard:
                    if state["readers"] or state["writer_active"]:
                        state["tainted"] = True
                    state["writer_active"] = True
                state["writer_active"] = False

    threads = [threading.Thread(target=reader) for _ in range(4)] + [
        threading.Thread(target=writer) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not state["tainted"]

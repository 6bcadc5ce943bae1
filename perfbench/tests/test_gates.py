"""Each correctness gate accepts a real output and rejects a corrupted one.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import copy
import json
import os
import sqlite3
import subprocess
import sys
import time

import pytest

import dep_select
import service_mixed
from common import FORBIDDEN_ENV
import stream_durable
from run import END_TO_END, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKOUT = os.path.dirname(BENCH)


# ---------------------------------------------------------------------- #
# service_mixed
# ---------------------------------------------------------------------- #
SMALL_SESSIONS = (
    ({"kind": "linear_normal", "n": 80, "storage_backed": True}, 0.10),
    ({"kind": "urx_uniqueness", "n": 60, "gamma": 100.0, "window_width": 4}, 0.15),
)


@pytest.fixture(scope="module")
def service_history(tmp_path_factory):
    """A real two-client history against an in-process service."""
    from repro.service import CleaningService

    root = str(tmp_path_factory.mktemp("service"))
    inputs = service_mixed.session_inputs(7, SMALL_SESSIONS)
    with CleaningService(root).start_background() as service:
        netloc = service.url[len("http://") :]
        control = service_mixed.Connection(netloc)
        sessions = service_mixed.create_sessions(control, inputs)
        control.close()
        loops = [service_mixed.ClientLoop(t, 7, sessions, netloc) for t in range(2)]
        service_mixed._run_segment(loops, 1.5)
        for loop in loops:
            loop.connection.close()
    observations = [row for loop in loops for row in loop.observations]
    assert not [row for loop in loops for row in loop.failures]
    return root, observations


def test_service_gate_accepts_the_served_history(service_history):
    root, observations = service_history
    assert {row["type"] for row in observations} == {"read", "ingest"}
    assert service_mixed.check(root, observations)["passed"]


def test_service_gate_rejects_one_flipped_plan_index(service_history):
    root, observations = service_history
    corrupted = copy.deepcopy(observations)
    row = next(row for row in corrupted if row["plan"])
    row["plan"][0] = (row["plan"][0] + 1) % 60
    assert not service_mixed.check(root, corrupted)["passed"]


def test_service_gate_rejects_a_replay_that_differs_from_its_original(service_history):
    root, observations = service_history
    corrupted = copy.deepcopy(observations)
    replays = [row for row in corrupted if row["op"] == "replay"]
    if not replays:
        pytest.skip("the short history re-sent no key")
    replays[0]["original"]["signature"] = "0" * 64
    assert not service_mixed.check(root, corrupted)["passed"]


# ---------------------------------------------------------------------- #
# stream_durable
# ---------------------------------------------------------------------- #
@pytest.fixture()
def stream_run(tmp_path):
    """Two and a half passes of a short journal, applied durably."""
    inputs = stream_durable.build_inputs(3, n=120, events=12)
    stream = stream_durable.Stream(inputs, str(tmp_path))
    log = stream_durable.EventLog()
    while len(log.latencies_ms) < 30:
        stream.apply_for(0.01, log)
    stream.close()
    assert not log.errors
    return inputs, stream.passes()


def test_stream_gate_accepts_the_durable_run(stream_run):
    inputs, passes = stream_run
    assert len(passes) >= 3
    assert stream_durable.check(inputs, passes)["passed"]


def test_stream_gate_rejects_a_tampered_plan_record(stream_run):
    from repro.store.sqlite_store import PlanStore

    inputs, passes = stream_run
    path, _ = passes[0]
    with PlanStore(path) as store:
        seq, record = store.plan_records(stream_durable.STREAM)[5]
        record["plan"] = list(reversed(record["plan"])) + [0]
        store.record_plan(stream_durable.STREAM, seq, record)  # a valid checksum
    assert not stream_durable.check(inputs, passes)["passed"]


def test_stream_gate_rejects_a_plan_record_corrupted_on_disk(stream_run):
    inputs, passes = stream_run
    path, _ = passes[1]
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE plans SET payload = replace(payload, '\"plan\":[', '\"plan\":[0,') WHERE seq = 3"
        )
    connection.close()
    report = stream_durable.check(inputs, passes)
    assert not report["passed"]
    assert "corrupt" in report["problems"][0]


# ---------------------------------------------------------------------- #
# dep_select
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def dep_run():
    inputs = dep_select.build_inputs(5, n=200)
    log = dep_select.SelectionLog()
    dep_select.select_for(inputs, 0.0, log)  # exactly one selection
    assert len(log.selections) == 1 and not log.errors
    return inputs, log.selections[0]


def _changed_by_one(inputs, selection):
    """The selection with its last pick swapped for another affordable one."""
    costs = inputs.database.costs
    spent = float(costs[selection[:-1]].sum())
    for index in range(len(costs)):
        if index not in selection and spent + costs[index] <= inputs.budget:
            return selection[:-1] + [index]
    raise AssertionError("no affordable substitute")


def test_dep_gate_accepts_the_selection(dep_run):
    inputs, selection = dep_run
    assert dep_select.check(inputs, [selection, list(selection)])["passed"]


def test_dep_gate_rejects_a_selection_changed_by_one_index(dep_run):
    inputs, selection = dep_run
    changed = _changed_by_one(inputs, selection)
    assert not dep_select.check(inputs, [changed])["passed"]
    assert not dep_select.check(inputs, [selection, changed])["passed"]


# ---------------------------------------------------------------------- #
# The command and its output
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_code():
    from tracing import LAYER_METRICS

    with open(os.path.join(CHECKOUT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("variable", FORBIDDEN_ENV)
def test_refuses_an_environment_that_changes_the_program(variable):
    env = dict(os.environ, **{variable: "numpy"})
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "stream_durable",
         "--seed", "1", "--seconds", "0.1"],
        cwd=CHECKOUT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert variable in result.stderr and not result.stdout


def test_a_run_prints_the_result_line_and_leaves_nothing_behind(tmp_path):
    out = tmp_path / "result.json"
    started = time.time()
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "stream_durable",
         "--seed", "1", "--seconds", "0.5", "--trace", "1", "--out", str(out)],
        cwd=CHECKOUT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    stdout, stderr = process.communicate(timeout=170)
    assert process.returncode == 0, stderr
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert line["metrics"]["kernels.outer_downdate.calls"]["value"] == 0
    assert json.loads(out.read_text())["environment"]["seed"] == 1
    assert not os.path.exists(os.path.join(CHECKOUT, ".perfbench_run", str(process.pid)))
    assert time.time() - started < 170

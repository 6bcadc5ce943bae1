"""Workload ``service_mixed``: two closed-loop clients against ``repro serve``.

Set-up boots the server as a subprocess and creates two sessions: a
storage-backed ``linear_normal`` session (n=2000, modular track, its
columns stored as pages) and a ``urx_uniqueness`` session (n=500,
decomposed track).  Each of two client threads then holds one
keep-alive HTTP/1.1 connection and, until time runs out, picks one of the
two sessions uniformly and sends

* 60%: ``GET .../plan``, 40% of them anytime read-backs at a uniform
  0.2-0.95 share of the session budget;
* 35%: a keyed ingest of a fresh ``reveal`` or ``cost_change``;
* 5%: a re-send of a key this client already had acked on that session.

Clients never retry: a non-2xx status or a dropped connection counts as a
failed op.  The correctness gate runs after the server has stopped:
``repro.service.verify_history`` replays each session's journal serially
and checks every observation, and each re-sent key must return exactly
its original ack.
"""

from __future__ import annotations

import glob
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    Outcome,
    RunContext,
    degradation_delta,
    derive_seed,
    file_bytes,
    process_peak_rss_mb,
    repeated_setup,
)

#: The two sessions: (config without seed and budget, budget share of total cost).
SESSIONS = (
    ({"kind": "linear_normal", "n": 2000, "storage_backed": True}, 0.10),
    ({"kind": "urx_uniqueness", "n": 500, "gamma": 100.0, "window_width": 4}, 0.15),
)
CLIENTS = 2
READ_SHARE, FRESH_SHARE = 0.60, 0.35  # the remaining 5% re-send acked keys
READBACK_SHARE = 0.40
READBACK_RANGE = (0.2, 0.95)


# ---------------------------------------------------------------------- #
# Server process and client connection
# ---------------------------------------------------------------------- #
class Server:
    """A ``repro serve`` subprocess (under the span launcher when traced)."""

    def __init__(self, ctx: RunContext, root: str, spans_out: Optional[str]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ctx.checkout, "src"), os.path.dirname(os.path.abspath(__file__))]
        )
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            command = [sys.executable, launcher, "--spans-out", spans_out]
        command += ["serve", "--root", root, "--port", "0"]
        self.process = subprocess.Popen(
            command,
            cwd=ctx.checkout,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            while True:
                line = self.process.stdout.readline()
                if line.startswith("SERVICE LISTENING "):
                    self.url = line.split(" ", 2)[2].strip()
                    return
                if not line and self.process.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.process.returncode}: {self.process.stdout.read()}"
                    )
        except BaseException:
            self.stop()
            raise

    @property
    def netloc(self) -> str:
        return self.url[len("http://") :]

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Interrupt the server (it closes its sessions) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Connection:
    """One keep-alive HTTP/1.1 connection that never retries.

    ``send`` returns ``(status, body, start, end)``; status 0 means the
    connection failed, and the next request opens a fresh connection.
    ``start``/``end`` bracket the send and the read of the last body byte.
    """

    def __init__(self, netloc: str):
        self.netloc = netloc
        self._connection: Optional[http.client.HTTPConnection] = None

    def send(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, object]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, object], float, float]:
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        all_headers = {"Content-Type": "application/json", **(headers or {})}
        if self._connection is None:
            self._connection = http.client.HTTPConnection(self.netloc, timeout=60)
        start = time.perf_counter()
        try:
            self._connection.request(method, path, body=payload, headers=all_headers)
            response = self._connection.getresponse()
            raw = response.read()
            end = time.perf_counter()
            status = response.status
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (http.client.HTTPException, OSError, ValueError) as error:
            self.close()
            return 0, {"error": f"{type(error).__name__}: {error}"}, start, time.perf_counter()
        return status, parsed, start, end

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


# ---------------------------------------------------------------------- #
# The load generator
# ---------------------------------------------------------------------- #
@dataclass
class LiveSession:
    session_id: str
    budget: float
    database: object  # the initial UncertainDatabase, for drawing events


@dataclass
class ClientLoop:
    """One closed-loop client: its op stream is a pure function of the seed."""

    thread_id: int
    seed: int
    sessions: Sequence[LiveSession]
    netloc: str
    observations: List[Dict[str, object]] = field(default_factory=list)
    failures: List[Dict[str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng([self.seed, 100 + self.thread_id])
        self.connection = Connection(self.netloc)
        self.acked: Dict[int, List[Tuple[str, Dict[str, object], Dict[str, object]]]] = {
            slot: [] for slot in range(len(self.sessions))
        }
        self.position = 0

    def _event(self, database) -> Dict[str, object]:
        rng = self.rng
        index = int(rng.integers(len(database)))
        if rng.random() < 0.5:
            return {"kind": "reveal", "index": index, "value": float(database[index].sample(rng))}
        cost = float(database.costs[index]) * float(rng.uniform(0.5, 2.0))
        return {"kind": "cost_change", "index": index, "cost": cost}

    def run_until(self, deadline: float) -> None:
        rng = self.rng
        while time.perf_counter() < deadline:
            slot = int(rng.integers(len(self.sessions)))
            session = self.sessions[slot]
            roll = rng.random()
            rid = f"{self.thread_id}-{self.position}"
            headers = {"X-Request-Id": rid}
            body = original = None
            if roll < READ_SHARE:
                op = "read"
                path = f"/sessions/{session.session_id}/plan"
                if rng.random() < READBACK_SHARE:
                    op = "readback"
                    path += f"?budget={session.budget * rng.uniform(*READBACK_RANGE):.12g}"
                method = "GET"
            else:
                method, path = "POST", f"/sessions/{session.session_id}/events"
                if roll < READ_SHARE + FRESH_SHARE or not self.acked[slot]:
                    op, key = "fresh", f"t{self.thread_id}-op{self.position}"
                    body = self._event(session.database)
                else:
                    op = "replay"
                    key, body, original = self.acked[slot][int(rng.integers(len(self.acked[slot])))]
                headers["X-Idempotency-Key"] = key
            status, reply, start, end = self.connection.send(method, path, body, headers)
            record = {
                "op": op,
                "type": "read" if method == "GET" else "ingest",
                "session": session.session_id,
                "thread": self.thread_id,
                "position": self.position,
                "rid": rid,
                "status": status,
                "start": start,
                "latency_ms": (end - start) * 1000.0,
                "event_kind": body["kind"] if body else None,
            }
            self.position += 1
            if not 200 <= status < 300:
                self.failures.append(record | {"reply": reply})
                continue
            try:
                record.update(
                    version=int(reply["version"]),
                    seq=reply.get("seq"),
                    budget=reply.get("budget"),
                    plan=[int(i) for i in reply["plan"]],
                    signature=str(reply["signature"]),
                    idempotent_replay=bool(reply.get("idempotent_replay", False)),
                    mode=reply.get("mode"),
                    prefix_kept=reply.get("prefix_kept"),
                )
            except (KeyError, TypeError, ValueError) as error:  # a malformed 2xx reply
                self.failures.append(record | {"reply": f"{type(error).__name__}: {error}: {reply}"})
                continue
            if op == "fresh":
                self.acked[slot].append((key, body, record))
            elif op == "replay":
                record["original"] = original
            self.observations.append(record)


def _run_segment(loops: Sequence[ClientLoop], seconds: float) -> float:
    """Run every client until ``seconds`` pass; returns the wall time."""
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=loop.run_until, args=(deadline,), name=f"client-{loop.thread_id}", daemon=True
        )
        for loop in loops
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


# ---------------------------------------------------------------------- #
# Correctness gate
# ---------------------------------------------------------------------- #
def check(root: str, observations: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """``verify_history`` over every observation, plus the replayed acks.

    Passes when every plan is byte-equal to the serial replay at its
    version, every signature recomputes, the fresh acks of each session
    carry contiguous versions, per client the versions of fresh
    responses never decrease, and each re-sent key returned exactly the
    ack of its original ingest.  A replayed ack carries the old version of
    its original by design, so each one is handed to ``verify_history``
    as its own client: its plan and signature are still checked against
    the serial replay, but it cannot count as a stale read.
    """
    from repro.service import verify_history

    rows = [
        row | {"thread": CLIENTS + number} if row["op"] == "replay" else row
        for number, row in enumerate(observations)
    ]
    report = verify_history(root, rows)
    replay_mismatches = []
    for row in observations:
        if row["op"] != "replay":
            continue
        original = row["original"]
        same = row["idempotent_replay"] and all(
            row[key] == original[key] for key in ("seq", "version", "plan", "signature")
        )
        if not same:
            replay_mismatches.append(f"{row['session']} {row['rid']}: replayed ack differs")
    problems = (
        report["plan_mismatches"]
        + report["signature_mismatches"]
        + report["version_violations"]
        + replay_mismatches
    )
    return {
        "passed": not problems and report["responses_verified"] == len(observations),
        "responses_verified": report["responses_verified"],
        "problems": problems[:10],
        "problem_count": len(problems),
    }


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
def session_inputs(seed: int, sessions=SESSIONS) -> List[Tuple[Dict[str, object], object]]:
    """Each session's config (budget included) and initial database."""
    from repro.service import SessionConfig

    inputs = []
    for slot, (base, share) in enumerate(sessions):
        config = SessionConfig.from_payload({**base, "seed": derive_seed(seed, slot)})
        database, _ = config.build_inputs()
        payload = config.to_dict() | {"budget": share * float(database.total_cost)}
        inputs.append((payload, database))
    return inputs


def create_sessions(control: Connection, inputs) -> List[LiveSession]:
    """POST each session config; the live sessions the clients target."""
    sessions = []
    for payload, database in inputs:
        status, reply, _, _ = control.send("POST", "/sessions", payload)
        if status != 201:
            raise RuntimeError(f"session creation returned {status}: {reply}")
        sessions.append(LiveSession(str(reply["session"]), float(payload["budget"]), database))
    return sessions


def _mix(observations: Sequence[Dict[str, object]], failures: Sequence[Dict[str, object]]) -> Dict[str, int]:
    mix: Dict[str, int] = {}
    for row in list(observations) + list(failures):
        fresh = row["op"] == "fresh"
        for key in (row["op"], row["event_kind"] if fresh else None, row.get("mode") if fresh else None):
            if key:
                mix[key] = mix.get(key, 0) + 1
    return mix


def _store_files(root: str) -> List[str]:
    return glob.glob(os.path.join(root, "*.sqlite")) + glob.glob(os.path.join(root, "*.sqlite-wal"))


def _traced_layers(
    spans_out: str,
    segment: Sequence[Dict[str, object]],
    untraced: Sequence[Dict[str, object]],
    traced_wall: float,
    bytes_grown: int,
) -> Dict[str, float]:
    from tracing import Span, layer_metrics, planner_metrics, trace_metrics

    with open(spans_out, encoding="utf-8") as handle:
        document = json.load(handle)
    setup_spans = [Span(*row) for row in document["setup_spans"]]
    spans = [Span(*row) for row in document["spans"]]
    fresh = [row for row in segment if row["op"] == "fresh"]
    # The plan before a fresh ingest is the plan at version - 1 of its
    # session: every version is some client's fresh ack (or the initial plan).
    plan_length = {
        (row["session"], row["version"]): len(row["plan"])
        for row in list(untraced) + list(segment)
        if row["type"] == "ingest"
    }
    kept = [
        (row["prefix_kept"], plan_length.get((row["session"], row["version"] - 1)))
        for row in fresh
    ]
    latencies = [row["latency_ms"] for row in segment]
    measured = {
        "store.bytes_per_event": bytes_grown / max(len(fresh), 1),
        **degradation_delta(document["degradations_before"], document["degradations_after"]),
        **planner_metrics([row["mode"] for row in fresh], kept),
        # Per client, the time outside its request round trips is uncovered.
        **trace_metrics(
            latencies,
            [row["latency_ms"] for row in untraced],
            sum(latencies),
            traced_wall * 1000.0 * CLIENTS,
        ),
    }
    client_ops = [(row["rid"], row["latency_ms"]) for row in segment]
    return layer_metrics(setup_spans, spans, measured, client_ops)


def run(ctx: RunContext) -> Outcome:
    inputs = session_inputs(ctx.seed)
    spans_out = os.path.join(ctx.workdir, "server_spans.json") if ctx.trace else None
    def set_up(attempt: int) -> Tuple[str, Server, Connection, List[LiveSession]]:
        root = os.path.join(ctx.workdir, f"service{attempt}")
        server = Server(ctx, root, spans_out)
        control = Connection(server.netloc)
        try:
            return root, server, control, create_sessions(control, inputs)
        except BaseException:
            server.stop()
            raise

    def tear_down(booted) -> None:
        root, server, control, _ = booted
        control.close()
        server.stop()
        shutil.rmtree(root)

    (root, server, control, sessions), setups = repeated_setup(ctx, set_up, tear_down)

    loops = [ClientLoop(t, ctx.seed, sessions, server.netloc) for t in range(CLIENTS)]
    walls: List[float] = []
    layers = None
    try:
        for number, seconds in enumerate(ctx.segments):
            if ctx.trace:
                switch = "/_bench/trace/on" if number else "/_bench/trace/off"
                status, reply, _, _ = control.send("GET", switch)
                if status != 200:
                    raise RuntimeError(f"tracing switch {switch} returned {status}: {reply}")
                # Where each client's traced half starts, once the loop ends.
                split = [len(loop.observations) for loop in loops]
                bytes_before = file_bytes(_store_files(root))
            walls.append(_run_segment(loops, seconds))
        if ctx.trace:
            bytes_grown = file_bytes(_store_files(root)) - bytes_before
            status, reply, _, _ = control.send("GET", "/_bench/flush")
            if status != 200:
                raise RuntimeError(f"could not flush spans: {status} {reply}")
        peak_rss = server.peak_rss_mb()
    finally:
        for loop in loops:
            loop.connection.close()
        control.close()
        server.stop()

    observations = [row for loop in loops for row in loop.observations]
    failures = [row for loop in loops for row in loop.failures]
    if ctx.trace:
        untraced = [row for loop, mark in zip(loops, split) for row in loop.observations[:mark]]
        traced = [row for loop, mark in zip(loops, split) for row in loop.observations[mark:]]
        layers = _traced_layers(spans_out, traced, untraced, walls[1], bytes_grown)
    latencies: Dict[str, List[float]] = {"read": [], "ingest": []}
    for row in sorted(observations, key=lambda r: r["start"]):
        latencies[row["type"]].append(row["latency_ms"])
    return Outcome(
        setup_s=setups,
        latencies_ms=latencies,
        attempted=len(observations) + len(failures),
        failed=len(failures),
        wall_s=sum(walls),
        peak_rss_mb=peak_rss,
        mix=_mix(observations, failures),
        gate=check(root, observations),
        layers=layers,
        notes={"failures": [f["reply"] for f in failures[:5]]},
    )

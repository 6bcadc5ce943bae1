"""The SQLite-backed durability layer for journals, checkpoints and plans.

:class:`PlanStore` is the crash-safe half of the streaming engine: the
in-memory :class:`~repro.streaming.planner.StreamingPlanner` is fast but
dies with the process, so everything needed to reconstruct it — the event
journal, periodic state checkpoints, and the plan committed after every
event — is written here first.  Design points, following the WAL /
resume-state idiom of large ingest pipelines:

* **WAL mode** (``PRAGMA journal_mode=WAL``) so readers never block the
  writer and a SIGKILL mid-transaction rolls back cleanly on next open;
  ``synchronous=NORMAL`` keeps commits cheap (the WAL is fsynced at
  checkpoint, not per commit) while still guaranteeing atomicity.
* **busy_timeout + bounded retries** — concurrent sessions contend on the
  file; every statement waits up to the busy timeout inside SQLite and is
  additionally wrapped in the resilience layer's counted, jittered
  :func:`~repro.resilience.retry.retry_call` loop, so transient
  ``database is locked`` errors (real or injected by a
  :class:`~repro.resilience.faults.FaultPlan`) degrade to a counter, not a
  crash.
* **Checksummed rows** — every payload row carries a CRC32 computed at
  write time and verified at read time; a flipped bit surfaces as a
  :exc:`StoreCorruptionError` naming the table, stream and sequence number
  instead of a JSON error three layers up.  :meth:`PlanStore.verify` scans
  the whole file on demand (the ``repro store verify`` subcommand).

Layout (all tables keyed by ``stream_id`` so one file serves many streams):

================  =====================================================
``streams``       stream registry + journal metadata
``events``        the durable journal: one row per event, in order
``plans``         the committed plan after every applied event
``checkpoints``   serialized planner state every ``checkpoint_every`` events
``cursors``       last event whose plan row is durable, per stream
``counters``      persisted degradation counters, per stream
``idempotency``   client idempotency keys → the seq they committed as
``column_pages``  checksummed column pages backing a ``StoredDatabase``
================  =====================================================

The write protocol behind crash safety: the *event* row is committed before
the event is applied, and the *plan* row, *cursor* and (periodically)
*checkpoint* are committed together in one transaction after it.  A SIGKILL
anywhere in between leaves either a fully recorded step or an event whose
plan is missing — and the resume path re-applies any event past the last
checkpoint, so both shapes recover to the identical state.
"""

from __future__ import annotations

import json
import sqlite3
import zlib
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.resilience.faults import maybe_inject
from repro.resilience.retry import BackoffPolicy, retry_call

__all__ = ["PlanStore", "StoreCorruptionError"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS streams (
    stream_id TEXT PRIMARY KEY,
    created_utc TEXT NOT NULL,
    metadata TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS events (
    stream_id TEXT NOT NULL REFERENCES streams(stream_id) ON DELETE CASCADE,
    seq INTEGER NOT NULL,
    payload TEXT NOT NULL,
    checksum INTEGER NOT NULL,
    PRIMARY KEY (stream_id, seq)
);
CREATE TABLE IF NOT EXISTS plans (
    stream_id TEXT NOT NULL REFERENCES streams(stream_id) ON DELETE CASCADE,
    seq INTEGER NOT NULL,
    payload TEXT NOT NULL,
    checksum INTEGER NOT NULL,
    PRIMARY KEY (stream_id, seq)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    stream_id TEXT NOT NULL REFERENCES streams(stream_id) ON DELETE CASCADE,
    seq INTEGER NOT NULL,
    payload TEXT NOT NULL,
    checksum INTEGER NOT NULL,
    created_utc TEXT NOT NULL,
    PRIMARY KEY (stream_id, seq)
);
CREATE TABLE IF NOT EXISTS cursors (
    stream_id TEXT PRIMARY KEY REFERENCES streams(stream_id) ON DELETE CASCADE,
    applied_seq INTEGER NOT NULL,
    updated_utc TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    stream_id TEXT NOT NULL REFERENCES streams(stream_id) ON DELETE CASCADE,
    key TEXT NOT NULL,
    count INTEGER NOT NULL,
    PRIMARY KEY (stream_id, key)
);
CREATE TABLE IF NOT EXISTS idempotency (
    stream_id TEXT NOT NULL REFERENCES streams(stream_id) ON DELETE CASCADE,
    key TEXT NOT NULL,
    seq INTEGER NOT NULL,
    created_utc TEXT NOT NULL,
    PRIMARY KEY (stream_id, key)
);
CREATE TABLE IF NOT EXISTS column_pages (
    stream_id TEXT NOT NULL REFERENCES streams(stream_id) ON DELETE CASCADE,
    column_name TEXT NOT NULL,
    page INTEGER NOT NULL,
    payload TEXT NOT NULL,
    checksum INTEGER NOT NULL,
    PRIMARY KEY (stream_id, column_name, page)
);
"""


class StoreCorruptionError(RuntimeError):
    """A checksum mismatch (or impossible row) in the durable store.

    Carries the table, stream and sequence number of the offending row so
    an operator can surgically inspect or delete it.
    """

    def __init__(self, message: str, table: str = "", stream_id: str = "", seq: Optional[int] = None):
        super().__init__(message)
        self.table = table
        self.stream_id = stream_id
        self.seq = seq


def _checksum(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _dump(payload: Dict[str, object]) -> str:
    # Canonical form: key-sorted, no whitespace.  Non-finite floats (the
    # tombstone's inf cost) round-trip through Python's json by default.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class PlanStore:
    """A crash-safe SQLite store for event journals, checkpoints and plans.

    Open with a filesystem path (``":memory:"`` works for tests, though an
    in-memory store obviously survives nothing).  The store is usable as a
    context manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        path: Union[str, Path],
        busy_timeout_ms: int = 30000,
        retry_policy: Optional[BackoffPolicy] = None,
        check_same_thread: bool = True,
    ):
        self.path = str(path)
        self.retry_policy = retry_policy or BackoffPolicy()
        # check_same_thread=False lets a store be used from multiple threads
        # as long as the *caller* serializes statements (the service layer's
        # per-session write lock does); SQLite itself is compiled threadsafe.
        self._connection = sqlite3.connect(
            self.path, isolation_level=None, check_same_thread=check_same_thread
        )
        self._connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute("PRAGMA foreign_keys=ON")
        self._connection.executescript(_SCHEMA)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "PlanStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"PlanStore(path={self.path!r}, streams={self.stream_ids()!r})"

    # ------------------------------------------------------------------ #
    # Retried execution
    # ------------------------------------------------------------------ #
    def _retryable(self, error: sqlite3.OperationalError) -> bool:
        return "locked" in str(error) or "busy" in str(error)

    def _execute(self, sql: str, parameters: Tuple = ()) -> sqlite3.Cursor:
        """Run one statement with fault injection + bounded lock retries."""
        if self._connection is None:
            raise RuntimeError(f"plan store {self.path!r} is closed")

        def attempt() -> sqlite3.Cursor:
            maybe_inject("store")
            return self._connection.execute(sql, parameters)

        def guarded() -> sqlite3.Cursor:
            try:
                return attempt()
            except sqlite3.OperationalError as error:
                if self._retryable(error):
                    raise
                raise _NotRetryable(error) from error

        try:
            return retry_call(
                guarded,
                retryable=(sqlite3.OperationalError,),
                policy=self.retry_policy,
                site="store",
            )
        except _NotRetryable as wrapper:
            raise wrapper.error

    def transaction(self) -> "_Transaction":
        """An explicit transaction: ``with store.transaction(): ...``.

        ``BEGIN IMMEDIATE`` takes the write lock up front (retried when
        contended), the body's statements run through the same retried
        executor, and COMMIT / ROLLBACK close it out.  Everything inside
        commits atomically — the property the crash-safe apply protocol
        relies on.
        """
        return _Transaction(self)

    # ------------------------------------------------------------------ #
    # Streams
    # ------------------------------------------------------------------ #
    def ensure_stream(self, stream_id: str, metadata: Optional[Dict[str, object]] = None) -> None:
        """Register ``stream_id`` (first writer wins; metadata updates merge)."""
        self._execute(
            "INSERT OR IGNORE INTO streams (stream_id, created_utc, metadata) VALUES (?, ?, ?)",
            (stream_id, _now(), _dump(metadata or {})),
        )
        if metadata:
            existing = self.stream_metadata(stream_id)
            existing.update(metadata)
            self._execute(
                "UPDATE streams SET metadata = ? WHERE stream_id = ?",
                (_dump(existing), stream_id),
            )

    def stream_ids(self) -> List[str]:
        """Every registered stream id, sorted."""
        rows = self._execute("SELECT stream_id FROM streams ORDER BY stream_id").fetchall()
        return [row[0] for row in rows]

    def stream_metadata(self, stream_id: str) -> Dict[str, object]:
        """The metadata dict registered for ``stream_id`` (empty if unknown)."""
        row = self._execute(
            "SELECT metadata FROM streams WHERE stream_id = ?", (stream_id,)
        ).fetchone()
        return json.loads(row[0]) if row else {}

    # ------------------------------------------------------------------ #
    # Events (the durable journal)
    # ------------------------------------------------------------------ #
    def append_event(self, stream_id: str, seq: int, payload: Dict[str, object]) -> None:
        """Durably record event ``seq`` of ``stream_id`` (idempotent).

        Re-appending the same sequence number with the identical payload is
        a no-op (the resume path re-applies events); re-appending with a
        *different* payload raises :exc:`StoreCorruptionError` — a journal
        is append-only, a rewritten event means two histories diverged.
        """
        text = _dump(payload)
        existing = self._execute(
            "SELECT payload FROM events WHERE stream_id = ? AND seq = ?",
            (stream_id, int(seq)),
        ).fetchone()
        if existing is not None:
            if existing[0] != text:
                raise StoreCorruptionError(
                    f"event {seq} of stream {stream_id!r} already recorded with a "
                    "different payload — the journal is append-only",
                    table="events",
                    stream_id=stream_id,
                    seq=int(seq),
                )
            return
        self._execute(
            "INSERT INTO events (stream_id, seq, payload, checksum) VALUES (?, ?, ?, ?)",
            (stream_id, int(seq), text, _checksum(text)),
        )

    def events(self, stream_id: str, start_seq: int = 0) -> List[Tuple[int, Dict[str, object]]]:
        """``(seq, payload)`` for every event with ``seq >= start_seq``, in order."""
        rows = self._execute(
            "SELECT seq, payload, checksum FROM events "
            "WHERE stream_id = ? AND seq >= ? ORDER BY seq",
            (stream_id, int(start_seq)),
        ).fetchall()
        return [
            (int(seq), self._verified(payload, checksum, "events", stream_id, seq))
            for seq, payload, checksum in rows
        ]

    def event_count(self, stream_id: str) -> int:
        """Number of durable events recorded for ``stream_id``."""
        row = self._execute(
            "SELECT COUNT(*) FROM events WHERE stream_id = ?", (stream_id,)
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------ #
    # Plans
    # ------------------------------------------------------------------ #
    def record_plan(self, stream_id: str, seq: int, record: Dict[str, object]) -> None:
        """Record the committed plan after applying event ``seq`` (idempotent)."""
        text = _dump(record)
        self._execute(
            "INSERT OR REPLACE INTO plans (stream_id, seq, payload, checksum) "
            "VALUES (?, ?, ?, ?)",
            (stream_id, int(seq), text, _checksum(text)),
        )

    def plan_record(self, stream_id: str, seq: int) -> Optional[Dict[str, object]]:
        """The committed plan after event ``seq``, or ``None`` when it has no row.

        One primary-key lookup, checksum-verified like every read: the
        idempotent-replay path calls this per re-sent key, so its cost must
        not grow with the stream's history.
        """
        row = self._execute(
            "SELECT payload, checksum FROM plans WHERE stream_id = ? AND seq = ?",
            (stream_id, int(seq)),
        ).fetchone()
        if row is None:
            return None
        payload, checksum = row
        return self._verified(payload, checksum, "plans", stream_id, int(seq))

    def plan_records(
        self, stream_id: str, upto_seq: Optional[int] = None
    ) -> List[Tuple[int, Dict[str, object]]]:
        """``(seq, record)`` for every committed plan, optionally capped at ``upto_seq``."""
        if upto_seq is None:
            rows = self._execute(
                "SELECT seq, payload, checksum FROM plans WHERE stream_id = ? ORDER BY seq",
                (stream_id,),
            ).fetchall()
        else:
            rows = self._execute(
                "SELECT seq, payload, checksum FROM plans "
                "WHERE stream_id = ? AND seq <= ? ORDER BY seq",
                (stream_id, int(upto_seq)),
            ).fetchall()
        return [
            (int(seq), self._verified(payload, checksum, "plans", stream_id, seq))
            for seq, payload, checksum in rows
        ]

    # ------------------------------------------------------------------ #
    # Checkpoints
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, stream_id: str, seq: int, state: Dict[str, object]) -> None:
        """Persist planner state after ``seq`` events (idempotent per seq)."""
        text = _dump(state)
        self._execute(
            "INSERT OR REPLACE INTO checkpoints (stream_id, seq, payload, checksum, created_utc) "
            "VALUES (?, ?, ?, ?, ?)",
            (stream_id, int(seq), text, _checksum(text), _now()),
        )

    def latest_checkpoint(
        self, stream_id: str, max_seq: Optional[int] = None
    ) -> Optional[Tuple[int, Dict[str, object]]]:
        """The newest checkpoint (optionally at or below ``max_seq``), or None."""
        if max_seq is None:
            row = self._execute(
                "SELECT seq, payload, checksum FROM checkpoints "
                "WHERE stream_id = ? ORDER BY seq DESC LIMIT 1",
                (stream_id,),
            ).fetchone()
        else:
            row = self._execute(
                "SELECT seq, payload, checksum FROM checkpoints "
                "WHERE stream_id = ? AND seq <= ? ORDER BY seq DESC LIMIT 1",
                (stream_id, int(max_seq)),
            ).fetchone()
        if row is None:
            return None
        seq, payload, checksum = row
        return int(seq), self._verified(payload, checksum, "checkpoints", stream_id, seq)

    def checkpoint_seqs(self, stream_id: str) -> List[int]:
        """Sequence numbers of every durable checkpoint, in order."""
        rows = self._execute(
            "SELECT seq FROM checkpoints WHERE stream_id = ? ORDER BY seq", (stream_id,)
        ).fetchall()
        return [int(row[0]) for row in rows]

    # ------------------------------------------------------------------ #
    # Cursor + counters
    # ------------------------------------------------------------------ #
    def set_cursor(self, stream_id: str, applied_seq: int) -> None:
        """Mark event ``applied_seq`` as the last one durably applied."""
        self._execute(
            "INSERT OR REPLACE INTO cursors (stream_id, applied_seq, updated_utc) "
            "VALUES (?, ?, ?)",
            (stream_id, int(applied_seq), _now()),
        )

    def cursor(self, stream_id: str) -> int:
        """Seq of the last durably applied event (-1 when nothing applied)."""
        row = self._execute(
            "SELECT applied_seq FROM cursors WHERE stream_id = ?", (stream_id,)
        ).fetchone()
        return int(row[0]) if row is not None else -1

    def merge_counters(self, stream_id: str, counts: Dict[str, int]) -> None:
        """Add a degradation-counter snapshot into the stream's durable totals."""
        for key, count in counts.items():
            self._execute(
                "INSERT INTO counters (stream_id, key, count) VALUES (?, ?, ?) "
                "ON CONFLICT (stream_id, key) DO UPDATE SET count = count + excluded.count",
                (stream_id, str(key), int(count)),
            )

    def counters(self, stream_id: str) -> Dict[str, int]:
        """The persisted degradation counters for ``stream_id``."""
        rows = self._execute(
            "SELECT key, count FROM counters WHERE stream_id = ? ORDER BY key",
            (stream_id,),
        ).fetchall()
        return {key: int(count) for key, count in rows}

    # ------------------------------------------------------------------ #
    # Idempotency keys
    # ------------------------------------------------------------------ #
    def record_idempotency_key(self, stream_id: str, key: str, seq: int) -> None:
        """Durably bind a client idempotency ``key`` to event ``seq``.

        Committed in the *same transaction* as the event row it names, so a
        crash between the event append and the plan commit still leaves the
        key findable — a client retry after resume reads back the committed
        seq instead of appending a duplicate event.  Re-binding an existing
        key to a different seq raises :exc:`StoreCorruptionError`.
        """
        existing = self.idempotency_seq(stream_id, key)
        if existing is not None:
            if existing != int(seq):
                raise StoreCorruptionError(
                    f"idempotency key {key!r} of stream {stream_id!r} already "
                    f"bound to seq {existing}, refusing rebind to {seq}",
                    table="idempotency",
                    stream_id=stream_id,
                    seq=int(seq),
                )
            return
        self._execute(
            "INSERT OR IGNORE INTO idempotency (stream_id, key, seq, created_utc) "
            "VALUES (?, ?, ?, ?)",
            (stream_id, str(key), int(seq), _now()),
        )

    def idempotency_seq(self, stream_id: str, key: str) -> Optional[int]:
        """The seq a key committed as, or ``None`` when the key is unseen."""
        row = self._execute(
            "SELECT seq FROM idempotency WHERE stream_id = ? AND key = ?",
            (stream_id, str(key)),
        ).fetchone()
        return int(row[0]) if row is not None else None

    # ------------------------------------------------------------------ #
    # Column pages (storage-backed databases)
    # ------------------------------------------------------------------ #
    def save_column_page(
        self, stream_id: str, column_name: str, page: int, values: List[float]
    ) -> None:
        """Write (or rewrite) one checksummed page of a stored column.

        Pages are the dirty-write granularity of the storage-backed
        database: a reveal or cost change rewrites only the page holding
        that object's slot, not the whole column.
        """
        text = _dump({"values": [float(v) for v in values]})
        self._execute(
            "INSERT OR REPLACE INTO column_pages "
            "(stream_id, column_name, page, payload, checksum) VALUES (?, ?, ?, ?, ?)",
            (stream_id, str(column_name), int(page), text, _checksum(text)),
        )

    def load_column_page(self, stream_id: str, column_name: str, page: int) -> List[float]:
        """Read one page of a stored column, verifying its checksum."""
        row = self._execute(
            "SELECT payload, checksum FROM column_pages "
            "WHERE stream_id = ? AND column_name = ? AND page = ?",
            (stream_id, str(column_name), int(page)),
        ).fetchone()
        if row is None:
            raise StoreCorruptionError(
                f"missing page {page} of column {column_name!r} "
                f"(stream {stream_id!r})",
                table="column_pages",
                stream_id=stream_id,
                seq=int(page),
            )
        payload, checksum = row
        record = self._verified(payload, checksum, "column_pages", stream_id, int(page))
        return [float(v) for v in record["values"]]

    def column_names(self, stream_id: str) -> List[str]:
        """Every column with at least one stored page, sorted."""
        rows = self._execute(
            "SELECT DISTINCT column_name FROM column_pages "
            "WHERE stream_id = ? ORDER BY column_name",
            (stream_id,),
        ).fetchall()
        return [row[0] for row in rows]

    def column_page_count(self, stream_id: str, column_name: str) -> int:
        """Number of stored pages for one column of ``stream_id``."""
        row = self._execute(
            "SELECT COUNT(*) FROM column_pages WHERE stream_id = ? AND column_name = ?",
            (stream_id, str(column_name)),
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------ #
    # Integrity
    # ------------------------------------------------------------------ #
    def _verified(
        self, payload: str, checksum: int, table: str, stream_id: str, seq: int
    ) -> Dict[str, object]:
        if _checksum(payload) != int(checksum):
            raise StoreCorruptionError(
                f"checksum mismatch in {table} row (stream {stream_id!r}, seq {seq}): "
                "the row was corrupted on disk",
                table=table,
                stream_id=stream_id,
                seq=int(seq),
            )
        return json.loads(payload)

    def verify(self, stream_id: Optional[str] = None) -> Dict[str, object]:
        """Scan every checksummed row; return a summary of what was checked.

        Returns ``{"rows_checked": n, "corrupt": [...]}`` where each corrupt
        entry names the table, stream and seq.  Never raises — the caller
        decides whether corruption is fatal (``repro store verify`` exits
        nonzero when the list is non-empty).
        """
        rows_checked = 0
        corrupt: List[Dict[str, object]] = []
        for table in ("events", "plans", "checkpoints"):
            if stream_id is None:
                rows = self._execute(
                    f"SELECT stream_id, seq, payload, checksum FROM {table} ORDER BY stream_id, seq"
                ).fetchall()
            else:
                rows = self._execute(
                    f"SELECT stream_id, seq, payload, checksum FROM {table} "
                    "WHERE stream_id = ? ORDER BY seq",
                    (stream_id,),
                ).fetchall()
            for row_stream, seq, payload, checksum in rows:
                rows_checked += 1
                if _checksum(payload) != int(checksum):
                    corrupt.append({"table": table, "stream_id": row_stream, "seq": int(seq)})
        if stream_id is None:
            page_rows = self._execute(
                "SELECT stream_id, column_name, page, payload, checksum FROM column_pages "
                "ORDER BY stream_id, column_name, page"
            ).fetchall()
        else:
            page_rows = self._execute(
                "SELECT stream_id, column_name, page, payload, checksum FROM column_pages "
                "WHERE stream_id = ? ORDER BY column_name, page",
                (stream_id,),
            ).fetchall()
        for row_stream, column_name, page, payload, checksum in page_rows:
            rows_checked += 1
            if _checksum(payload) != int(checksum):
                corrupt.append(
                    {
                        "table": "column_pages",
                        "stream_id": row_stream,
                        "seq": int(page),
                        "column": column_name,
                    }
                )
        return {"rows_checked": rows_checked, "corrupt": corrupt}


class _NotRetryable(Exception):
    """Internal wrapper marking an OperationalError the retry loop must not eat."""

    def __init__(self, error: sqlite3.OperationalError):
        super().__init__(str(error))
        self.error = error


class _Transaction:
    """Context manager for an explicit, retried BEGIN IMMEDIATE transaction."""

    def __init__(self, store: PlanStore):
        self._store = store

    def __enter__(self) -> PlanStore:
        self._store._execute("BEGIN IMMEDIATE")
        return self._store

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._store._execute("COMMIT")
        else:
            try:
                self._store._connection.execute("ROLLBACK")
            except sqlite3.OperationalError:
                pass

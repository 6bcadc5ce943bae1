"""The append-only event model for the streaming re-planning engine.

Four event kinds cover everything that can change out-of-band between two
solves:

``reveal``
    An object's true value became known (someone cleaned it outside the
    plan, or fresh data confirmed it).
``cost_change``
    An object's cleaning cost moved (a source went behind a paywall, an
    expert became available).
``insert``
    A new uncertain object arrived at the end of the database.
``remove``
    An object left the feed.  Removal is modeled as a *tombstone* — the
    object is revealed at its current value (its variance contribution
    drops to zero) and its cost is set to ``inf`` (it can never be
    selected again) — so every existing positional claim index stays
    valid.

Events are frozen dataclasses with a plain-dict wire form
(:func:`event_to_dict` / :func:`event_from_dict`) and a one-event-per-line
JSONL import/export format through :class:`Journal`.
:func:`synthesize_journal` draws a deterministic mixed event stream from a
seeded generator for the replay benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.uncertainty.database import UncertainDatabase

__all__ = [
    "RevealEvent",
    "CostChangeEvent",
    "InsertEvent",
    "RemoveEvent",
    "StreamEvent",
    "event_to_dict",
    "event_from_dict",
    "Journal",
    "JournalCorruptionError",
    "synthesize_journal",
]


class JournalCorruptionError(ValueError):
    """A JSONL journal line failed to parse (truncation, noise, a bad edit).

    Carries ``line_number`` (1-based) and ``byte_offset`` (the offset of the
    corrupt line's first byte in the file) so the broken region can be
    inspected or truncated by hand.
    """

    def __init__(self, message: str, line_number: int, byte_offset: int):
        super().__init__(
            f"{message} (line {line_number}, byte offset {byte_offset})"
        )
        self.line_number = int(line_number)
        self.byte_offset = int(byte_offset)


@dataclass(frozen=True)
class RevealEvent:
    """Object ``index``'s true value became known to be ``value``."""

    index: int
    value: float
    kind: str = "reveal"


@dataclass(frozen=True)
class CostChangeEvent:
    """Object ``index``'s cleaning cost changed to ``cost`` (must be positive)."""

    index: int
    cost: float
    kind: str = "cost_change"


@dataclass(frozen=True)
class InsertEvent:
    """A new normal-error object appended at the end of the database.

    ``weight`` is the coefficient the linear claim tracks gain for the new
    object (0 keeps the claim unchanged); the decomposed track ignores it —
    a claim-quality measure never references objects that postdate it.
    """

    name: str
    current_value: float
    mean: float
    std: float
    cost: float = 1.0
    weight: float = 0.0
    kind: str = "insert"


@dataclass(frozen=True)
class RemoveEvent:
    """Object ``index`` left the feed (tombstoned: revealed + infinite cost)."""

    index: int
    kind: str = "remove"


StreamEvent = Union[RevealEvent, CostChangeEvent, InsertEvent, RemoveEvent]
StreamEvent.__doc__ = (
    "Any journal entry: one of the four event dataclasses above "
    "(a :data:`typing.Union` alias, not a base class)."
)

_EVENT_TYPES = {
    "reveal": RevealEvent,
    "cost_change": CostChangeEvent,
    "insert": InsertEvent,
    "remove": RemoveEvent,
}


def event_to_dict(event: StreamEvent) -> Dict[str, object]:
    """The event's plain-dict wire form (``kind`` first, JSON-safe values)."""
    if isinstance(event, RevealEvent):
        return {"kind": "reveal", "index": int(event.index), "value": float(event.value)}
    if isinstance(event, CostChangeEvent):
        return {"kind": "cost_change", "index": int(event.index), "cost": float(event.cost)}
    if isinstance(event, InsertEvent):
        return {
            "kind": "insert",
            "name": str(event.name),
            "current_value": float(event.current_value),
            "mean": float(event.mean),
            "std": float(event.std),
            "cost": float(event.cost),
            "weight": float(event.weight),
        }
    if isinstance(event, RemoveEvent):
        return {"kind": "remove", "index": int(event.index)}
    raise TypeError(f"not a stream event: {event!r}")


def event_from_dict(payload: Dict[str, object]) -> StreamEvent:
    """Rebuild an event from its :func:`event_to_dict` wire form."""
    data = dict(payload)
    kind = data.pop("kind", None)
    event_type = _EVENT_TYPES.get(kind)  # type: ignore[arg-type]
    if event_type is None:
        raise ValueError(f"unknown event kind {kind!r}")
    return event_type(**data)  # type: ignore[arg-type]


class Journal:
    """A replayable sequence of stream events.

    ``metadata`` carries whatever the producer wants replays to know (the
    synthesis seed, the base-database size, ...).  The JSONL form is one
    event per line, preceded by a single ``{"journal": {...}}`` header line
    when metadata is present.  JSONL is the import/export format; the
    durable event log is the :class:`~repro.store.sqlite_store.PlanStore`.
    """

    def __init__(
        self,
        events: Iterable[StreamEvent] = (),
        metadata: Optional[Dict[str, object]] = None,
    ):
        self.events: Tuple[StreamEvent, ...] = tuple(events)
        self.metadata: Dict[str, object] = dict(metadata or {})

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Journal)
            and self.events == other.events
            and self.metadata == other.metadata
        )

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        return f"Journal(events={len(self.events)}, kinds={kinds})"

    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the journal as JSONL (header line only when metadata exists)."""
        path = Path(path)
        lines: List[str] = []
        if self.metadata:
            lines.append(json.dumps({"journal": self.metadata}, sort_keys=True))
        for event in self.events:
            lines.append(json.dumps(event_to_dict(event), sort_keys=True))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "Journal":
        """Read a journal previously written by :meth:`to_jsonl`.

        Any unparsable line raises :class:`JournalCorruptionError` naming its
        line number and byte offset.
        """
        path = Path(path)
        events: List[StreamEvent] = []
        metadata: Dict[str, object] = {}
        offset = 0
        with path.open("rb") as handle:
            for line_number, raw in enumerate(handle, start=1):
                line_offset = offset
                offset += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line.decode("utf-8"))
                    if not isinstance(payload, dict):
                        raise ValueError(f"journal line is not an object: {payload!r}")
                    if "journal" in payload and "kind" not in payload:
                        metadata.update(payload["journal"])
                        continue
                    events.append(event_from_dict(payload))
                except (ValueError, TypeError, UnicodeDecodeError) as error:
                    raise JournalCorruptionError(
                        f"corrupt journal line in {path}: {error}",
                        line_number,
                        line_offset,
                    ) from error
        return cls(events, metadata)


def synthesize_journal(
    database: UncertainDatabase,
    events: int,
    seed: int,
    mix: Optional[Dict[str, float]] = None,
    cost_range: Tuple[float, float] = (0.5, 2.0),
    insert_weight: float = 0.0,
) -> Journal:
    """A deterministic mixed event stream over ``database``.

    ``mix`` weights the four event kinds (default: reveals dominate, the
    way live cleaning feeds behave).  Reveals draw the revealed value from
    the object's own distribution; cost changes scale the object's
    *original* cost by a uniform factor from ``cost_range``; inserts append
    normal objects named ``stream0, stream1, ...`` whose parameters are
    drawn near the base population; removes tombstone a random live object.
    Reveal/remove targets are drawn without replacement from the original
    objects — once none are left, the synthesizer falls back to cost
    changes so the journal always reaches ``events`` entries.  Everything
    is driven by one ``np.random.default_rng(seed)``, so the same inputs
    always produce the identical journal.
    """
    if events < 0:
        raise ValueError(f"events must be nonnegative, got {events}")
    rng = np.random.default_rng(seed)
    weights = {"reveal": 0.55, "cost_change": 0.25, "insert": 0.1, "remove": 0.1}
    if mix:
        unknown = set(mix) - set(weights)
        if unknown:
            raise ValueError(f"unknown event kinds in mix: {sorted(unknown)}")
        weights.update({kind: float(share) for kind, share in mix.items()})
    kinds = sorted(weights)
    shares = np.array([weights[kind] for kind in kinds], dtype=float)
    if shares.sum() <= 0:
        raise ValueError("event mix must have positive total weight")
    shares = shares / shares.sum()

    n = len(database)
    live = list(range(n))  # original objects not yet revealed or removed
    stream: List[StreamEvent] = []
    inserts = 0
    base_means = float(np.mean(database.means)) if n else 0.0
    base_stds = float(np.mean(database.stds)) if n else 1.0
    for _ in range(events):
        kind = kinds[int(rng.choice(len(kinds), p=shares))]
        if kind in ("reveal", "remove") and not live:
            kind = "cost_change"
        if kind == "reveal":
            position = int(rng.integers(len(live)))
            index = live.pop(position)
            value = float(database[index].sample(rng))
            stream.append(RevealEvent(index=index, value=value))
        elif kind == "remove":
            position = int(rng.integers(len(live)))
            index = live.pop(position)
            stream.append(RemoveEvent(index=index))
        elif kind == "cost_change":
            index = int(rng.integers(n)) if n else 0
            factor = float(rng.uniform(*cost_range))
            stream.append(
                CostChangeEvent(index=index, cost=float(database.costs[index]) * factor)
            )
        else:  # insert
            mean = base_means + float(rng.normal(scale=max(base_stds, 1e-6)))
            std = abs(float(rng.normal(loc=base_stds, scale=0.25 * max(base_stds, 1e-6))))
            std = max(std, 1e-3)
            stream.append(
                InsertEvent(
                    name=f"stream{inserts}",
                    current_value=mean + float(rng.normal(scale=std)),
                    mean=mean,
                    std=std,
                    cost=float(rng.uniform(0.5, 5.0)),
                    weight=float(insert_weight),
                )
            )
            inserts += 1
    return Journal(
        stream,
        metadata={"seed": int(seed), "base_n": int(n), "events": int(events)},
    )

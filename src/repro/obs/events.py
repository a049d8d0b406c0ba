"""Live progress events: a bounded ring-buffer bus with mergeable snapshots.

The metrics registry (:mod:`.registry`) answers "how much work happened";
this module answers "what is happening *right now*".  An :class:`EventBus`
is a thread-safe bounded ring buffer of typed :class:`Event` records with
monotonically increasing sequence numbers.  Long-running layers emit
progress events (``mc.round``, ``search.climb``, ``sim.chunk``, the job
lifecycle) through the ambient accessor :func:`repro.obs.emit`; consumers
follow the stream with :meth:`EventBus.poll` — a cursor-based, optionally
blocking read that reports ring truncation explicitly instead of silently
skipping (the service layer turns this into Server-Sent Events, the CLI
into ``--progress`` lines and ``--events-out`` JSONL).

The discipline mirrors :class:`~repro.obs.registry.MetricsSnapshot`:

- the *live* bus is process-local and never crosses a process boundary;
- what ships home from ``n_jobs`` worker shards is the immutable,
  picklable :class:`EventsSnapshot`, whose ``merge`` is associative and
  commutative (records are totally ordered by ``(ts, kind, payload)``,
  then re-sequenced), riding in the same return tuples as the metrics
  snapshots;
- the disabled path is :data:`NULL_EVENTS` — a shared no-op bus, so
  instrumented call sites cost one attribute check when events are off
  (bench-gated in ``benchmarks/bench_obs.py``).

:class:`TaggedBus` is an emit-only view that forwards onto a target bus
with fixed extra payload fields (the job queue tags every event of a job
session with its job id before it lands on the engine-wide bus).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "Event",
    "EventPage",
    "EventsSnapshot",
    "EventBus",
    "TaggedBus",
    "NullEventBus",
    "NULL_EVENTS",
    "EMPTY_EVENTS",
    "DEFAULT_EVENT_CAPACITY",
    "estimate_eta",
]

#: Default ring capacity.  Big enough to hold every round/lifecycle event
#: of a typical campaign; per-accept search events on huge runs wrap, and
#: the wrap is *signalled* (``EventPage.truncated``), never silent.
DEFAULT_EVENT_CAPACITY = 4096


@dataclass(frozen=True)
class Event:
    """One progress event: a bus-assigned sequence number, a wall-clock
    timestamp (Unix epoch seconds), a dotted kind, and a JSON-ready
    payload dict."""

    seq: int
    ts: float
    kind: str
    data: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "data": dict(self.data),
        }

    @staticmethod
    def from_dict(doc: dict[str, Any]) -> "Event":
        return Event(
            seq=int(doc["seq"]),
            ts=float(doc["ts"]),
            kind=str(doc["kind"]),
            data=dict(doc.get("data") or {}),
        )


@dataclass(frozen=True)
class EventPage:
    """One :meth:`EventBus.poll` result.

    ``cursor`` is what the next poll should pass as ``after`` (the last
    delivered sequence number, or the requested ``after`` when the page
    is empty).  ``truncated`` is True when events between ``after`` and
    the oldest retained record were dropped by the bounded ring —
    consumers resume from the oldest survivor but are *told* about the
    gap (``missed`` counts the dropped records).
    """

    events: tuple[Event, ...]
    cursor: int
    truncated: bool = False
    missed: int = 0


def _record_key(event: Event) -> tuple[float, str, str]:
    """Total order on records ignoring shard-local sequence numbers."""
    return (event.ts, event.kind, json.dumps(event.data, sort_keys=True, default=str))


@dataclass(frozen=True)
class EventsSnapshot:
    """Immutable, picklable event log with an associative ``merge``.

    The same shipping discipline as ``MetricsSnapshot``: worker shards
    build a private :class:`EventBus`, ship ``bus.snapshot()`` home in
    their return tuples, and the parent folds shards in any order —
    ``merge`` sorts the union by ``(ts, kind, payload)`` and re-assigns
    sequence numbers 1..n, so ``a.merge(b) == b.merge(a)`` and the fold
    is associative (property-tested in ``tests/test_events.py``).
    """

    events: tuple[Event, ...] = ()

    def merge(self, other: "EventsSnapshot") -> "EventsSnapshot":
        if not other.events:
            return self
        if not self.events:
            return other
        combined = sorted((*self.events, *other.events), key=_record_key)
        return EventsSnapshot(
            events=tuple(
                Event(seq=i + 1, ts=e.ts, kind=e.kind, data=e.data)
                for i, e in enumerate(combined)
            )
        )

    def as_dicts(self) -> list[dict[str, Any]]:
        return [e.as_dict() for e in self.events]


EMPTY_EVENTS = EventsSnapshot()

_EMPTY_PAGE = EventPage(events=(), cursor=0)


class EventBus:
    """Thread-safe bounded ring buffer of :class:`Event` records.

    ``emit`` assigns sequence numbers from 1, monotonically, for the
    lifetime of the bus; the ring keeps the newest ``capacity`` records.
    ``poll(after)`` is the subscriber cursor: it returns every retained
    record with ``seq > after`` (optionally blocking until one arrives),
    flagging truncation when the cursor has fallen off the ring.

    ``on_emit`` is an optional callback invoked with each event after it
    is buffered (outside the lock) — the CLI uses it for live progress
    lines and JSONL export without a reader thread.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_EVENT_CAPACITY,
        *,
        on_emit: "Callable[[Event], None] | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.on_emit = on_emit
        self._cond = threading.Condition()
        self._ring: deque[Event] = deque(maxlen=self.capacity)
        self._next_seq = 1

    # -- producer side -------------------------------------------------
    def emit(self, kind: str, *, _ts: "float | None" = None, **data: Any) -> Event:
        """Append one event; returns it (with its assigned ``seq``)."""
        with self._cond:
            event = Event(
                seq=self._next_seq,
                ts=time.time() if _ts is None else float(_ts),
                kind=kind,
                data=data,
            )
            self._next_seq += 1
            self._ring.append(event)
            self._cond.notify_all()
        hook = self.on_emit
        if hook is not None:
            hook(event)
        return event

    def replay(self, snapshot: EventsSnapshot) -> None:
        """Re-emit a shipped shard log with fresh local sequence numbers
        (original timestamps and payloads are preserved)."""
        for event in snapshot.events:
            self.emit(event.kind, _ts=event.ts, **event.data)

    # -- consumer side -------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest event (0 when none yet)."""
        with self._cond:
            return self._next_seq - 1

    def poll(
        self,
        after: int = 0,
        *,
        timeout: "float | None" = 0.0,
        limit: "int | None" = None,
    ) -> EventPage:
        """Events with ``seq > after`` (cursor semantics, oldest first).

        ``timeout`` bounds how long to block waiting for the first new
        event: ``0.0`` never blocks, ``None`` blocks indefinitely.
        ``limit`` caps the page size; the cursor advances only over what
        was delivered, so the next poll picks up exactly where this page
        ended — no gaps, no duplicates (property-tested).
        """
        after = max(0, int(after))
        with self._cond:
            if timeout != 0.0:
                self._cond.wait_for(
                    lambda: self._next_seq - 1 > after, timeout=timeout
                )
            newest = self._next_seq - 1
            if newest <= after:
                return EventPage(events=(), cursor=after)
            oldest = self._ring[0].seq if self._ring else self._next_seq
            missed = max(0, oldest - after - 1)
            start = max(after + 1, oldest)
            events = [e for e in self._ring if e.seq >= start]
        if limit is not None and len(events) > limit:
            events = events[: max(0, int(limit))]
        cursor = events[-1].seq if events else after
        return EventPage(
            events=tuple(events),
            cursor=cursor,
            truncated=missed > 0,
            missed=missed,
        )

    def snapshot(self) -> EventsSnapshot:
        """Freeze the retained ring for shipping across processes."""
        with self._cond:
            return EventsSnapshot(events=tuple(self._ring))


class TaggedBus:
    """Emit-only view forwarding onto a target bus with fixed payload tags.

    The job queue wraps the engine-wide bus in ``TaggedBus(bus,
    job="job-3")`` so every event a job session emits carries its job id
    — ``/jobs/<id>/events`` and the engine-wide ``/events`` stream then
    share one ring and one sequence space.  ``on_forward`` (called with
    each forwarded event) lets the queue mirror progress onto the job
    status document without a reader thread.
    """

    enabled = True

    __slots__ = ("_target", "_tags", "on_forward")

    def __init__(
        self,
        target: "EventBus | TaggedBus",
        *,
        on_forward: "Callable[[Event], None] | None" = None,
        **tags,
    ) -> None:
        self._target = target
        self._tags = tags
        self.on_forward = on_forward

    def emit(self, kind: str, *, _ts: "float | None" = None, **data: Any) -> Event:
        merged = dict(self._tags)
        merged.update(data)
        event = self._target.emit(kind, _ts=_ts, **merged)
        hook = self.on_forward
        if hook is not None:
            hook(event)
        return event

    def replay(self, snapshot: EventsSnapshot) -> None:
        for event in snapshot.events:
            self.emit(event.kind, _ts=event.ts, **event.data)

    def snapshot(self) -> EventsSnapshot:  # emit-only: nothing retained here
        return EMPTY_EVENTS

    def poll(self, after: int = 0, **kwargs) -> EventPage:
        return EventPage(events=(), cursor=max(0, int(after)))


class NullEventBus(EventBus):
    """Disabled bus: every operation is a shared no-op.

    ``emit`` allocates nothing and returns nothing, so instrumented hot
    paths pay one ``enabled`` check (or one no-op call) when events are
    off — the same bar as :class:`~repro.obs.registry.NullRegistry`.
    """

    enabled = False

    def __init__(self) -> None:
        self.capacity = 0
        self.on_emit = None

    def emit(self, kind: str, *, _ts=None, **data):  # type: ignore[override]
        return None

    def replay(self, snapshot: EventsSnapshot) -> None:
        pass

    @property
    def last_seq(self) -> int:
        return 0

    def poll(self, after: int = 0, *, timeout=0.0, limit=None) -> EventPage:
        return _EMPTY_PAGE if after <= 0 else EventPage(events=(), cursor=after)

    def snapshot(self) -> EventsSnapshot:
        return EMPTY_EVENTS


NULL_EVENTS = NullEventBus()


def estimate_eta(
    total_reps: int,
    relative_half_width: float,
    target: float,
    elapsed_s: float,
) -> dict:
    """ETA fields for an adaptive campaign's ``mc.round`` event.

    The CI half-width shrinks like ``1/sqrt(n)``, so the replication
    count at which the current trajectory reaches ``target`` is
    ``n * (hw/target)^2``; combined with the observed replication rate
    this predicts wall-clock time to convergence.  Degenerate inputs
    (infinite first-round half-width, zero variance, zero elapsed) yield
    ``None`` fields rather than non-finite JSON.
    """
    reps_per_s = (
        total_reps / elapsed_s if elapsed_s > 0.0 and total_reps > 0 else None
    )
    if (
        not math.isfinite(relative_half_width)
        or relative_half_width <= 0.0
        or target <= 0.0
        or total_reps <= 0
    ):
        return {
            "reps_per_s": reps_per_s,
            "predicted_total_reps": None,
            "remaining_reps": None,
            "eta_s": None,
        }
    predicted = math.ceil(total_reps * (relative_half_width / target) ** 2)
    remaining = max(0, predicted - total_reps)
    eta_s = remaining / reps_per_s if reps_per_s else None
    return {
        "reps_per_s": reps_per_s,
        "predicted_total_reps": predicted,
        "remaining_reps": remaining,
        "eta_s": eta_s,
    }

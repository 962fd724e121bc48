"""XEvents-style structured event stream over a bounded ring buffer.

SQL Server's Extended Events framework lets an administrator attach a
lightweight session that captures typed events — statement completions,
checkpoints, plan regressions — into an in-memory *ring buffer target*
(``sys.dm_xe_session_targets``) without perturbing the engine. This
module is that facility for the repro engine: one
:class:`EventStream` per :class:`~repro.storage.database.Database`
(``database.events``) receives typed events from the executor, the WAL,
the buffer pool, the admission controller, and the fault injector, and
retains the most recent ``capacity`` of them.

Event taxonomy (emitters in parentheses):

* ``statement_begin`` / ``statement_end`` — every executed statement;
  ``statement_end`` carries the statement's modeled totals and, when it
  blocked, its wait profile (:class:`~repro.storage.waits`).
* ``checkpoint`` — durable snapshot + WAL truncation
  (:meth:`Database.save`).
* ``recovery`` — crash recovery replay summary (:meth:`Database.open`).
* ``plan_change`` — the Query Store observed a new plan fingerprint for
  a previously seen statement (the plan-regression trigger).
* ``grant_timeout`` — a memory grant waited past its timeout
  (:class:`~repro.server.scheduler.MemoryGrantPool`).
* ``eviction_storm`` — one buffer-pool insertion evicted an unusually
  large batch of frames (working set far above budget).
* ``fault_injection`` — a :class:`~repro.storage.faults.FaultInjector`
  point fired.

Contract, same as :mod:`repro.storage.waits`:

* **Observation-only.** Emitting never charges modeled cost; subscriber
  exceptions are swallowed (and counted) so a misbehaving observer can
  never break execution.
* **Deterministic payloads.** ``timestamp`` is the
  :class:`~repro.storage.telemetry.LogicalClock` stamp, never wall
  time, and payloads carry only deterministic engine state (modeled
  costs, counts, fingerprints) — so the DMV snapshot/Prometheus
  determinism tests hold across identical runs. Real wall-clock wait
  milliseconds appear in payloads only when a wait actually occurred,
  which the single-threaded determinism harnesses never trigger.

The ring is bounded (``deque(maxlen=capacity)``): old events fall off
the front and are counted in ``dropped``. ``subscribe`` registers a
callback invoked synchronously on every emit (outside the ring lock) —
the hook the future online tuner will use to react to plan changes and
eviction storms without polling.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Callable, Dict, List, Optional

#: Default ring capacity, matching the spirit of the 4 MB default ring
#: buffer target of an XEvents session.
DEFAULT_RING_CAPACITY = 1024

#: Canonical event names (emitters may only use these — typos become
#: loud instead of silently unqueryable).
EVENT_NAMES = (
    "statement_begin",
    "statement_end",
    "checkpoint",
    "recovery",
    "plan_change",
    "grant_timeout",
    "eviction_storm",
    "fault_injection",
)

_EVENT_NAME_SET = frozenset(EVENT_NAMES)


class Event:
    """One captured event: a monotonically increasing id, the logical
    clock stamp at emission, the emitting session, and a JSON-friendly
    payload."""

    __slots__ = ("event_id", "timestamp", "name", "session_id", "payload")

    def __init__(self, event_id: int, timestamp: int, name: str,
                 session_id: int,
                 payload: Optional[Dict[str, object]] = None) -> None:
        self.event_id = event_id
        self.timestamp = timestamp
        self.name = name
        self.session_id = session_id
        self.payload = {} if payload is None else payload

    def as_dict(self) -> Dict[str, object]:
        return {
            "event_id": self.event_id,
            "timestamp": self.timestamp,
            "name": self.name,
            "session_id": self.session_id,
            "payload": self.payload,
        }

    def to_json(self) -> str:
        """One deterministic JSON line (sorted keys) for JSONL export."""
        return json.dumps(self.as_dict(), sort_keys=True, default=str)


class EventStream:
    """Bounded ring buffer of typed events with subscriber hooks.

    Parameters
    ----------
    capacity:
        Ring size; the oldest events are dropped (and counted) once the
        ring is full.
    clock:
        A :class:`~repro.storage.telemetry.LogicalClock`; event
        timestamps are its thread-local statement stamp, keeping the
        stream deterministic. Without a clock, timestamps are 0.
    session_resolver:
        Zero-argument callable returning the session id to attribute an
        emit to when the emitter does not pass one — wired to
        ``WaitStatsCollector.current_session_id`` so events and waits
        agree on attribution.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY,
                 clock=None,
                 session_resolver: Optional[Callable[[], int]] = None):
        if capacity <= 0:
            raise ValueError("event ring capacity must be positive")
        self.capacity = int(capacity)
        self._ring: "deque[Event]" = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._clock = clock
        self._session_resolver = session_resolver
        self._subscribers: List[Callable[[Event], None]] = []
        self._next_id = 1
        self.emitted = 0
        self.dropped = 0
        self.subscriber_errors = 0

    # ------------------------------------------------------------ emitting
    def emit(self, name: str, payload: Optional[Dict[str, object]] = None,
             session_id: Optional[int] = None) -> Event:
        """Append one event to the ring and notify subscribers.

        The event keeps ``payload`` itself, not a copy: pass a dict made
        for this call and leave it unchanged afterwards. Subscribers run
        synchronously *outside* the ring lock; their exceptions are
        swallowed and counted in ``subscriber_errors``.
        """
        if name not in _EVENT_NAME_SET:
            raise ValueError(f"unknown event name {name!r}")
        if session_id is None:
            resolver = self._session_resolver
            session_id = resolver() if resolver is not None else 0
        timestamp = self._clock.stamp if self._clock is not None else 0
        with self._lock:
            event = Event(self._next_id, int(timestamp), name,
                          int(session_id), payload)
            self._next_id += 1
            self.emitted += 1
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(event)
            subscribers = list(self._subscribers) if self._subscribers else ()
        for fn in subscribers:
            try:
                fn(event)
            except Exception:
                # Observation must never break execution: a subscriber
                # that throws loses its notification, nothing else.
                self.subscriber_errors += 1
        return event

    # --------------------------------------------------------- subscribers
    def subscribe(self, fn: Callable[[Event], None]) -> Callable[[], None]:
        """Register a per-event callback; returns an unsubscribe
        function."""
        with self._lock:
            self._subscribers.append(fn)

        def unsubscribe() -> None:
            with self._lock:
                try:
                    self._subscribers.remove(fn)
                except ValueError:
                    pass

        return unsubscribe

    # ------------------------------------------------------------ readouts
    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def events(self, name: Optional[str] = None) -> List[Event]:
        """The retained events oldest-first, optionally filtered by
        name."""
        with self._lock:
            out = list(self._ring)
        if name is not None:
            out = [e for e in out if e.name == name]
        return out

    def to_jsonl(self) -> str:
        """The retained events as JSON Lines (one sorted-keys object per
        line, oldest first)."""
        return "\n".join(e.to_json() for e in self.events())

    def write_jsonl(self, path: str) -> int:
        """Write the retained events to ``path`` as JSONL; returns the
        number of events written."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(event.to_json())
                fh.write("\n")
        return len(events)

    def clear(self) -> None:
        """Drop retained events and zero the counters (ids keep
        increasing so event_id stays unique over the stream's life)."""
        with self._lock:
            self._ring.clear()
            self.emitted = 0
            self.dropped = 0
            self.subscriber_errors = 0

    def __repr__(self) -> str:
        with self._lock:
            return (f"EventStream(retained={len(self._ring)}, "
                    f"emitted={self.emitted}, dropped={self.dropped})")

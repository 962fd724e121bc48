"""Engine-wide wait statistics (the ``sys.dm_os_wait_stats`` analog).

SQL Server's tuning methodology starts from *wait statistics*: every
time a task blocks — on a latch, a memory grant, a page fault or the
log flush — the engine classifies the blocked interval under a wait
type and accumulates it server-wide and per session
(``sys.dm_os_wait_stats`` / ``sys.dm_exec_session_wait_stats``). This
module is that ledger for the repro engine. The blocking primitives
grown by the serving/durability/paging PRs each record into one
taxonomy entry:

======================  ====================================================
wait type               recorded by
======================  ====================================================
``LATCH_SH``            :class:`~repro.server.scheduler.DatabaseLatch`
                        shared acquires that actually blocked
``LATCH_EX``            exclusive acquires that actually blocked
``RESOURCE_SEMAPHORE``  :class:`~repro.server.scheduler.MemoryGrantPool`
                        grants that had to queue
``PAGEIOLATCH``         :class:`~repro.storage.bufferpool.BufferPool`
                        demand-paging faults (time spent in the loader)
``WRITELOG``            :class:`~repro.storage.wal.WriteAheadLog` commit
                        flush + fsync
======================  ====================================================

Design rules (same contract as :mod:`repro.storage.telemetry`):

* **Observation-only.** Recording never touches
  :class:`~repro.engine.metrics.QueryMetrics` or charges modeled cost;
  figure outputs stay byte-identical. Wait *times* are real wall
  milliseconds and therefore nondeterministic — they never enter
  determinism digests (see :mod:`repro.storage.timeseries`).
* **Per-session == server-wide by construction.** Every
  :meth:`WaitStatsCollector.record` folds the wait into the server
  totals *and* the recording session's bucket under one lock. Work not
  attributable to a session (a standalone
  :class:`~repro.engine.executor.Executor`, a checkpoint) lands in
  session ``0``, so summing the per-session table always reproduces the server table
  exactly — the invariant the differential test asserts.
* **Only genuine blocking counts.** An uncontended latch acquire or an
  immediately satisfied grant records nothing (SQL Server likewise only
  accumulates signal/resource time when a task actually waited).

Session attribution is thread-local: :meth:`session_scope` is entered
by :meth:`repro.server.session.Session.execute` around the whole
admission + execution window, so latch/grant/WAL waits on that thread
carry the session id. :meth:`statement` additionally captures a
per-statement wait profile (what EXPLAIN ANALYZE and the Query Store
surface). Every operator of a statement, columnstore scans included,
runs on the thread that executes it, so each wait its execution hits
lands in its profile.

Lives under :mod:`repro.storage` so storage structures can record waits
without a storage → engine import cycle.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

WAIT_LATCH_SH = "LATCH_SH"
WAIT_LATCH_EX = "LATCH_EX"
WAIT_RESOURCE_SEMAPHORE = "RESOURCE_SEMAPHORE"
WAIT_PAGEIOLATCH = "PAGEIOLATCH"
WAIT_WRITELOG = "WRITELOG"

#: Every wait type, in the canonical display order of
#: ``dm_os_wait_stats``.
WAIT_TYPES = (
    WAIT_LATCH_SH,
    WAIT_LATCH_EX,
    WAIT_RESOURCE_SEMAPHORE,
    WAIT_PAGEIOLATCH,
    WAIT_WRITELOG,
)

_WAIT_TYPE_SET = frozenset(WAIT_TYPES)

#: Upper bounds (milliseconds) of the fixed wait-duration histogram the
#: Prometheus export surfaces; a final +Inf bucket is implicit. Fixed
#: buckets keep the exposition shape deterministic even when the
#: recorded durations are not.
HISTOGRAM_BUCKETS_MS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0)


class WaitAccumulator:
    """Running totals for one (scope, wait type) pair."""

    __slots__ = ("waiting_tasks_count", "wait_time_ms", "max_wait_time_ms",
                 "bucket_counts")

    def __init__(self) -> None:
        self.waiting_tasks_count = 0
        self.wait_time_ms = 0.0
        self.max_wait_time_ms = 0.0
        #: One count per HISTOGRAM_BUCKETS_MS entry plus the +Inf bucket.
        self.bucket_counts = [0] * (len(HISTOGRAM_BUCKETS_MS) + 1)

    def record(self, ms: float) -> None:
        self.waiting_tasks_count += 1
        self.wait_time_ms += ms
        if ms > self.max_wait_time_ms:
            self.max_wait_time_ms = ms
        for i, bound in enumerate(HISTOGRAM_BUCKETS_MS):
            if ms <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def copy(self) -> "WaitAccumulator":
        out = WaitAccumulator()
        out.waiting_tasks_count = self.waiting_tasks_count
        out.wait_time_ms = self.wait_time_ms
        out.max_wait_time_ms = self.max_wait_time_ms
        out.bucket_counts = list(self.bucket_counts)
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of this accumulator."""
        return {
            "waiting_tasks_count": self.waiting_tasks_count,
            "wait_time_ms": round(self.wait_time_ms, 4),
            "max_wait_time_ms": round(self.max_wait_time_ms, 4),
        }

    def __repr__(self) -> str:
        return (f"WaitAccumulator(n={self.waiting_tasks_count}, "
                f"ms={self.wait_time_ms:.3f})")


class _SessionScope:
    """The context manager :meth:`WaitStatsCollector.session_scope`
    returns."""

    __slots__ = ("_local", "_session_id", "_previous")

    def __init__(self, local: threading.local, session_id: int) -> None:
        self._local = local
        self._session_id = session_id

    def __enter__(self) -> None:
        self._previous = getattr(self._local, "session_id", 0)
        self._local.session_id = self._session_id

    def __exit__(self, *exc) -> None:
        self._local.session_id = self._previous


class _StatementScope:
    """The context manager :meth:`WaitStatsCollector.statement`
    returns."""

    __slots__ = ("_local",)

    def __init__(self, local: threading.local) -> None:
        self._local = local

    def __enter__(self) -> Dict[str, List[float]]:
        profile: Dict[str, List[float]] = {}
        self._local.profile = profile
        return profile

    def __exit__(self, *exc) -> None:
        self._local.profile = None


class WaitStatsCollector:
    """Server-wide + per-session wait accumulation with thread-local
    session and statement attribution.

    One collector is owned per :class:`~repro.storage.database.Database`
    (``database.waits``) and shared by every session and every
    storage structure of that database.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._server: Dict[str, WaitAccumulator] = {
            t: WaitAccumulator() for t in WAIT_TYPES}
        #: session_id -> wait_type -> accumulator; buckets materialize
        #: lazily on the session's first recorded wait.
        self._sessions: Dict[int, Dict[str, WaitAccumulator]] = {}
        self._local = threading.local()

    # -------------------------------------------------------- attribution
    @property
    def current_session_id(self) -> int:
        """The session id waits on *this thread* are attributed to
        (``0`` outside any :meth:`session_scope` — the unattributed /
        internal bucket)."""
        return getattr(self._local, "session_id", 0)

    def session_scope(self, session_id: int) -> "_SessionScope":
        """Attribute every wait recorded on this thread to
        ``session_id`` for the duration of the scope (nested scopes restore the
        outer attribution on exit)."""
        return _SessionScope(self._local, int(session_id))

    def statement(self) -> "_StatementScope":
        """Capture this thread's waits into a per-statement profile.

        Entering the scope gives a dict ``wait_type -> [count, wait_ms]``
        that fills in as the statement blocks.
        """
        return _StatementScope(self._local)

    # ---------------------------------------------------------- recording
    def record(self, wait_type: str, ms: float) -> None:
        """Fold one completed wait of ``ms`` wall milliseconds into the
        server totals, the current session's bucket, and (when a
        :meth:`statement` scope is open on this thread) the statement
        profile."""
        if wait_type not in _WAIT_TYPE_SET:
            raise ValueError(f"unknown wait type {wait_type!r}")
        ms = max(0.0, float(ms))
        session_id = self.current_session_id
        with self._lock:
            self._server[wait_type].record(ms)
            per_session = self._sessions.get(session_id)
            if per_session is None:
                per_session = {}
                self._sessions[session_id] = per_session
            acc = per_session.get(wait_type)
            if acc is None:
                acc = WaitAccumulator()
                per_session[wait_type] = acc
            acc.record(ms)
        profile = getattr(self._local, "profile", None)
        if profile is not None:
            entry = profile.get(wait_type)
            if entry is None:
                profile[wait_type] = [1, ms]
            else:
                entry[0] += 1
                entry[1] += ms

    # ----------------------------------------------------------- readouts
    def server_stats(self) -> Dict[str, WaitAccumulator]:
        """A consistent copy of the server-wide accumulators, every wait
        type present (zeros included), in canonical order."""
        with self._lock:
            return {t: self._server[t].copy() for t in WAIT_TYPES}

    def session_stats(self) -> Dict[int, Dict[str, WaitAccumulator]]:
        """A consistent copy of the per-session accumulators (only
        sessions and wait types that recorded at least one wait),
        session ids ascending."""
        with self._lock:
            out: Dict[int, Dict[str, WaitAccumulator]] = {}
            for session_id in sorted(self._sessions):
                buckets = self._sessions[session_id]
                out[session_id] = {
                    t: buckets[t].copy() for t in WAIT_TYPES if t in buckets}
            return out

    def total_wait_ms(self, wait_type: Optional[str] = None) -> float:
        """Server-wide accumulated wait milliseconds, optionally for one
        type."""
        with self._lock:
            if wait_type is not None:
                return self._server[wait_type].wait_time_ms
            return sum(a.wait_time_ms for a in self._server.values())

    def total_waits(self, wait_type: Optional[str] = None) -> int:
        """Server-wide count of recorded waits, optionally for one type."""
        with self._lock:
            if wait_type is not None:
                return self._server[wait_type].waiting_tasks_count
            return sum(a.waiting_tasks_count for a in self._server.values())

    def reset(self) -> None:
        """Zero every accumulator, server-wide and per-session — the
        ``DBCC SQLPERF('sys.dm_os_wait_stats', CLEAR)`` analog, used
        between bench phases."""
        with self._lock:
            self._server = {t: WaitAccumulator() for t in WAIT_TYPES}
            self._sessions.clear()

    def __repr__(self) -> str:
        with self._lock:
            total = sum(a.waiting_tasks_count for a in self._server.values())
        return f"WaitStatsCollector(waits={total})"

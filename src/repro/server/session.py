"""Sessions and the in-process session manager.

A :class:`SessionManager` wraps one
:class:`~repro.storage.database.Database` and hands out
:class:`Session` objects — one per client. Each session owns its own
:class:`~repro.engine.executor.Executor` (its own binder; a statement's
state lives in the record its pipeline run creates, so it never crosses
sessions) while sharing the manager's
:class:`~repro.optimizer.catalog.Catalog` (statistics are a property of
the data, not the client), admission controller, and optional morsel
pool.

What is per-session vs shared (the ownership rules DESIGN.md spells
out):

* **Per session:** encoded-execution override, run temperature
  (hot/cold), the statement clock stamp (thread-local on the shared
  :class:`~repro.storage.telemetry.LogicalClock`), transaction scope,
  and all :class:`SessionStats`.
* **Per database (shared, lock-protected):** segment cache, fault
  injector, telemetry/usage counters, the tables themselves.
* **Process-global (default only):** the encoded-execution default in
  :mod:`repro.engine.encoded`.

Modeled I/O is charged to ``QueryMetrics``, never slept: a statement's
wall time is the interpreter work it does, so concurrent sessions
interleave under the GIL rather than overlap. Measured at PR 21 on a
1 M-row primary columnstore (31 rowgroups): the fig-1 selectivity sweep
runs 2.9 ms/stmt serial vs 3.3 ms/stmt with four morsel workers, the CH
analytic mix 20.3 vs 20.0 ms/stmt.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.errors import ExecutionError
from repro.engine.executor import Executor, QueryResult
from repro.optimizer.catalog import Catalog
from repro.server.parallel_scan import MorselPool
from repro.server.scheduler import AdmissionController
from repro.storage.database import Database


class SessionStats:
    """Per-session counters.

    All counts are real observed quantities except
    ``modeled_elapsed_ms``, which aggregates the engine's *modeled*
    milliseconds — it is not a wall-clock measurement.
    """

    __slots__ = ("statements", "reads", "writes", "rows_returned",
                 "rows_affected", "errors", "modeled_elapsed_ms")

    def __init__(self) -> None:
        self.statements = 0
        self.reads = 0
        self.writes = 0
        self.rows_returned = 0
        self.rows_affected = 0
        self.errors = 0
        #: Sum of the statements' modeled elapsed_ms (what the figures
        #: would report for the same statements).
        self.modeled_elapsed_ms = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict snapshot (frontend/bench reporting)."""
        return {name: getattr(self, name) for name in self.__slots__}


class Session:
    """One client's connection to the database.

    Created via :meth:`SessionManager.session`; safe to use from exactly
    one thread at a time (the normal one-thread-per-client shape).
    """

    def __init__(self, manager: "SessionManager", session_id: int,
                 encoded_execution: Optional[bool] = None,
                 cold: bool = False):
        self.manager = manager
        self.session_id = session_id
        #: Per-session run temperature: cold statements charge modeled I/O.
        self.cold = cold
        self.stats = SessionStats()
        self._txn_depth = 0
        self._executor = Executor(
            manager.database,
            catalog=manager.catalog,
            query_store=manager.query_store,
        )
        self._executor.encoded_execution = encoded_execution
        self._executor.morsel_pool = manager.morsel_pool
        self.closed = False

    @property
    def encoded_execution(self) -> Optional[bool]:
        """Per-session dictionary-coded execution override (None defers
        to the process default) — the fix for the process-global
        ``set_encoded_execution`` leak. Lives on the session's executor."""
        return self._executor.encoded_execution

    @encoded_execution.setter
    def encoded_execution(self, value: Optional[bool]) -> None:
        self._executor.encoded_execution = value

    # ---------------------------------------------------------- execution
    def execute(self, sql: str, params: Sequence[object] = (),
                cold: Optional[bool] = None,
                memory_grant_bytes: Optional[int] = None) -> QueryResult:
        """Run one statement under admission control.

        The statement is prepared (text that does not parse fails here,
        holding nothing), queues for the database latch in the mode its
        class needs (SELECT shared, DML exclusive) and for its memory
        grant, and executes.
        """
        if self.closed:
            raise ExecutionError(f"session {self.session_id} is closed")
        try:
            record = self._executor.prepare(sql, params)
            record.enter = self.manager.admission.admit(
                self.session_id, not record.read_only, memory_grant_bytes)
            # The session scope attributes every wait this thread hits,
            # admission queueing included, to this session in
            # dm_exec_session_wait_stats.
            with self.manager.database.waits.session_scope(self.session_id):
                result = self._executor.execute(
                    record, cold=self.cold if cold is None else cold,
                    memory_grant_bytes=memory_grant_bytes)
        except Exception:
            self.stats.errors += 1
            raise
        self.stats.statements += 1
        if record.read_only:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        self.stats.rows_returned += len(result.rows)
        self.stats.rows_affected += result.rows_affected
        self.stats.modeled_elapsed_ms += result.metrics.elapsed_ms
        return result

    # --------------------------------------------------------- transactions
    @contextmanager
    def transaction(self) -> Iterator["Session"]:
        """Hold the database latch exclusively across several statements.

        This is an *isolation* scope, not a durability one: statements
        inside see no interleaving from other sessions (their shared or
        exclusive acquires re-enter under this session's hold), but
        there is no rollback on exit — the engine's statement-level
        atomicity (PR 2's compensation machinery) is the undo unit.
        """
        with self.manager.database.waits.session_scope(self.session_id):
            with self.manager.admission.latch.exclusive(self.session_id):
                self._txn_depth += 1
                try:
                    yield self
                finally:
                    self._txn_depth -= 1

    @property
    def in_transaction(self) -> bool:
        """Whether a :meth:`transaction` scope is currently open."""
        return self._txn_depth > 0

    # -------------------------------------------------------------- misc
    def explain(self, sql: str, params: Sequence[object] = ()) -> str:
        """EXPLAIN without executing (no admission needed: plan-only)."""
        return self._executor.explain(sql, params)

    def close(self) -> None:
        """Mark the session closed and unregister it from the manager."""
        if not self.closed:
            self.closed = True
            self.manager._unregister(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Session(id={self.session_id}, "
                f"statements={self.stats.statements})")


class SessionManager:
    """Owns the shared halves of the serving layer.

    Parameters
    ----------
    database:
        The database every session executes against.
    morsel_workers:
        Size of the shared morsel pool; 0 disables intra-query
        parallelism entirely (every scan serial — the byte-identical
        configuration).
    grant_capacity_bytes:
        Memory-grant pool capacity; defaults to 8 default grants.
    """

    def __init__(self, database: Database,
                 morsel_workers: int = 0,
                 grant_capacity_bytes: Optional[int] = None,
                 query_store: Optional[object] = None):
        self.database = database
        self.catalog = Catalog(database)
        self.query_store = query_store
        self.admission = AdmissionController(
            default_grant_bytes=database.cost_model.default_memory_grant_bytes,
            capacity_bytes=grant_capacity_bytes,
            waits=database.waits,
            events=database.events,
        )
        self.morsel_pool: Optional[MorselPool] = None
        if morsel_workers > 0:
            self.morsel_pool = MorselPool(n_workers=morsel_workers)
        self._sessions: Dict[int, Session] = {}
        self._next_session_id = 1
        self._lock = threading.Lock()

    # ----------------------------------------------------------- sessions
    def session(self, encoded_execution: Optional[bool] = None,
                cold: bool = False) -> Session:
        """Open a new session."""
        with self._lock:
            session_id = self._next_session_id
            self._next_session_id += 1
            session = Session(self, session_id,
                              encoded_execution=encoded_execution,
                              cold=cold)
            self._sessions[session_id] = session
            return session

    def _unregister(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)

    def active_sessions(self) -> List[Session]:
        """Currently open sessions."""
        with self._lock:
            return list(self._sessions.values())

    def refresh(self) -> None:
        """Invalidate shared catalog caches (after design changes/DML)."""
        self.catalog.invalidate()

    def checkpoint(self) -> Optional[str]:
        """Checkpoint a durable database under the exclusive latch.

        Quiesces every session (snapshotting is not safe against
        concurrent DML), writes the snapshot, and truncates the WAL.
        Returns the snapshot path, or None when the database has no
        durability backend attached."""
        if not self.database.durable:
            return None
        with self.admission.latch.exclusive(owner=0):
            return self.database.checkpoint()

    def close(self) -> None:
        """Close every session and drain the morsel pool."""
        for session in self.active_sessions():
            session.close()
        if self.morsel_pool is not None:
            self.morsel_pool.close()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

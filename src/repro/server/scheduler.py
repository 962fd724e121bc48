"""Admission control for the serving layer.

Two primitives sit between a :class:`~repro.server.session.Session` and
the engine:

* :class:`MemoryGrantPool` — a byte-budgeted counting semaphore over the
  engine's existing memory-grant sizing. Every statement asks for its
  grant (the context's ``memory_grant_bytes``, defaulting to the cost
  model's ``default_memory_grant_bytes``) before it runs; when the pool
  is exhausted the statement queues FIFO (oldest waiter first), which is
  exactly how SQL Server's resource semaphore throttles concurrent
  memory-hungry queries.
* :class:`DatabaseLatch` — a reader/writer latch giving SELECTs shared
  access and DML exclusive access. The storage structures are
  thread-safe for concurrent *reads* (the shared-state bugfixes in this
  PR), but a writer mutating a B+ tree or delta store mid-scan is not a
  supported interleaving, so DML drains readers first. The latch is
  re-entrant per owner: a session holding it exclusively (an explicit
  transaction) can keep executing its own statements.

Lock ordering is **latch first, grant second** (see
:meth:`AdmissionController.admit`): a statement never holds pool bytes
while blocked on the latch, so every grant holder is already executing
and must eventually release — the pair cannot form a circular wait.

Waits are measured in real wall milliseconds and recorded on the
*session's* stats — never on :class:`~repro.engine.metrics.QueryMetrics`
— so admission queuing can never perturb the deterministic modeled
metrics the figures and differential tests rely on.

Both primitives feed the engine-wide wait-stats taxonomy
(:mod:`repro.storage.waits`) when a collector is attached: a blocked
shared/exclusive latch acquire records ``LATCH_SH``/``LATCH_EX`` and a
queued grant records ``RESOURCE_SEMAPHORE``. Only *genuine* blocking is
recorded — an uncontended acquire leaves the taxonomy untouched, while
the legacy ``total_wait_ms`` scalars keep their historical
measure-always semantics for backward compatibility. Both primitives
have a ``reset_stats()`` symmetric with ``BufferPool.reset_stats()``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, Optional

from repro.core.errors import ExecutionError
from repro.storage.waits import (
    WAIT_LATCH_EX,
    WAIT_LATCH_SH,
    WAIT_RESOURCE_SEMAPHORE,
)

#: Default pool capacity, in multiples of one default memory grant:
#: enough for a handful of concurrent analytic statements while still
#: forcing queueing at high session counts.
DEFAULT_GRANT_CAPACITY_MULTIPLE = 8


class MemoryGrantPool:
    """Byte-budgeted admission pool for statement memory grants.

    ``waits``/``events`` are the optional observability sinks: queued
    grants record ``RESOURCE_SEMAPHORE`` waits, and a grant that
    exceeds its timeout emits a ``grant_timeout`` event before raising.
    """

    def __init__(self, capacity_bytes: int, waits=None, events=None):
        if capacity_bytes <= 0:
            raise ExecutionError("grant pool capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._available = capacity_bytes
        self._cond = threading.Condition()
        #: FIFO ticket queue — admission is strictly oldest-first.
        self._waiters: Deque[object] = deque()
        #: Statements admitted / statements that had to queue first.
        self.grants_admitted = 0
        self.grant_waits = 0
        self.total_wait_ms = 0.0
        self.peak_granted_bytes = 0
        self.grant_timeouts = 0
        self.waits = waits
        self.events = events
        #: Seconds a queued grant may wait before failing with an
        #: ExecutionError (SQL Server: ``RESOURCE_SEMAPHORE`` timeout /
        #: error 8645). None means wait forever — the historical
        #: behavior and the default.
        self.default_timeout_s: Optional[float] = None

    @property
    def available_bytes(self) -> int:
        """Bytes currently unreserved."""
        return self._available

    def reset_stats(self) -> None:
        """Zero the admission counters (capacity and current
        reservations are untouched)."""
        with self._cond:
            self.grants_admitted = 0
            self.grant_waits = 0
            self.total_wait_ms = 0.0
            self.grant_timeouts = 0
            self.peak_granted_bytes = self.capacity_bytes - self._available

    @contextmanager
    def grant(self, requested_bytes: int,
              timeout_s: Optional[float] = None) -> Iterator[int]:
        """Reserve a grant, queueing FIFO until the pool can satisfy it.

        Admission is strictly oldest-first (SQL Server's resource
        semaphore is FIFO-ordered): a request queues behind every
        earlier waiter even when enough bytes happen to be free, so a
        large grant can never be starved by a stream of smaller
        requests slicing up freed capacity ahead of it.

        Requests larger than the whole pool are clamped to the pool size
        (they would otherwise deadlock) — mirroring how the engine's
        operators already spill when their grant is undersized.

        ``timeout_s`` (defaulting to :attr:`default_timeout_s`) bounds
        the queue wait: a grant still unsatisfied past the deadline
        emits a ``grant_timeout`` event and raises
        :class:`~repro.core.errors.ExecutionError`, like SQL Server's
        resource-semaphore timeout (error 8645).
        """
        amount = max(1, min(int(requested_bytes), self.capacity_bytes))
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        started = time.perf_counter()
        timed_out = False
        with self._cond:
            if self._waiters or self._available < amount:
                deadline = (started + timeout_s
                            if timeout_s is not None else None)
                ticket = object()
                self._waiters.append(ticket)
                try:
                    while (self._waiters[0] is not ticket
                           or self._available < amount):
                        if deadline is None:
                            self._cond.wait()
                            continue
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            timed_out = True
                            break
                        self._cond.wait(remaining)
                finally:
                    # Leave the queue on success *and* on interruption,
                    # and wake the next head either way.
                    self._waiters.remove(ticket)
                    self._cond.notify_all()
                waited_ms = (time.perf_counter() - started) * 1000.0
                self.total_wait_ms += waited_ms
                if timed_out:
                    self.grant_timeouts += 1
                else:
                    self.grant_waits += 1
                if self.waits is not None:
                    self.waits.record(WAIT_RESOURCE_SEMAPHORE, waited_ms)
            if not timed_out:
                self._available -= amount
                self.grants_admitted += 1
                granted = self.capacity_bytes - self._available
                if granted > self.peak_granted_bytes:
                    self.peak_granted_bytes = granted
        if timed_out:
            if self.events is not None:
                self.events.emit("grant_timeout", {
                    "requested_bytes": amount,
                    "timeout_s": timeout_s,
                })
            raise ExecutionError(
                f"memory grant of {amount} bytes timed out after "
                f"{timeout_s:.3f}s in the resource semaphore queue")
        try:
            yield amount
        finally:
            with self._cond:
                self._available += amount
                self._cond.notify_all()


class DatabaseLatch:
    """Reader/writer latch over one database, re-entrant per owner.

    ``shared(owner)`` admits any number of concurrent readers;
    ``exclusive(owner)`` drains readers and other writers first.
    Writers take priority: once one is waiting, new readers queue behind
    it so DML cannot starve. An owner already holding the latch
    exclusively re-enters both modes freely (how statements inside an
    explicit transaction run). Upgrading shared -> exclusive is not
    supported and raises instead of deadlocking.
    """

    def __init__(self, waits=None) -> None:
        self._cond = threading.Condition()
        self._writer: Optional[object] = None
        self._writer_depth = 0
        self._readers: Dict[object, int] = {}
        self._waiting_writers = 0
        self.shared_acquires = 0
        self.exclusive_acquires = 0
        self.total_wait_ms = 0.0
        #: Acquires that actually blocked (what LATCH_SH/LATCH_EX count;
        #: ``total_wait_ms`` keeps its legacy measure-always semantics).
        self.shared_waits = 0
        self.exclusive_waits = 0
        self.waits = waits

    def reset_stats(self) -> None:
        """Zero the acquire/wait counters (held state is untouched)."""
        with self._cond:
            self.shared_acquires = 0
            self.exclusive_acquires = 0
            self.total_wait_ms = 0.0
            self.shared_waits = 0
            self.exclusive_waits = 0

    @contextmanager
    def shared(self, owner: object) -> Iterator[None]:
        """Shared (read) access for ``owner``."""
        started = time.perf_counter()
        with self._cond:
            if self._writer == owner:
                # Re-entrant under this owner's exclusive hold.
                self._writer_depth += 1
                reentrant = True
            else:
                reentrant = False
                blocked = False
                while self._writer is not None or (
                        self._waiting_writers and owner not in self._readers):
                    blocked = True
                    self._cond.wait()
                self._readers[owner] = self._readers.get(owner, 0) + 1
                if blocked:
                    self.shared_waits += 1
                    if self.waits is not None:
                        self.waits.record(
                            WAIT_LATCH_SH,
                            (time.perf_counter() - started) * 1000.0)
            self.shared_acquires += 1
            self.total_wait_ms += (time.perf_counter() - started) * 1000.0
        try:
            yield
        finally:
            with self._cond:
                if reentrant:
                    self._writer_depth -= 1
                else:
                    depth = self._readers[owner] - 1
                    if depth:
                        self._readers[owner] = depth
                    else:
                        del self._readers[owner]
                self._cond.notify_all()

    @contextmanager
    def exclusive(self, owner: object) -> Iterator[None]:
        """Exclusive (write) access for ``owner``."""
        started = time.perf_counter()
        with self._cond:
            if self._writer == owner:
                self._writer_depth += 1
            else:
                if owner in self._readers:
                    raise ExecutionError(
                        "cannot upgrade a shared latch to exclusive")
                blocked = False
                self._waiting_writers += 1
                try:
                    while self._writer is not None or self._readers:
                        blocked = True
                        self._cond.wait()
                finally:
                    self._waiting_writers -= 1
                self._writer = owner
                self._writer_depth = 1
                if blocked:
                    self.exclusive_waits += 1
                    if self.waits is not None:
                        self.waits.record(
                            WAIT_LATCH_EX,
                            (time.perf_counter() - started) * 1000.0)
            self.exclusive_acquires += 1
            self.total_wait_ms += (time.perf_counter() - started) * 1000.0
        try:
            yield
        finally:
            with self._cond:
                self._writer_depth -= 1
                if self._writer_depth == 0:
                    self._writer = None
                self._cond.notify_all()


class AdmissionController:
    """Statement admission: a memory grant plus the right latch mode.

    One controller is owned by a
    :class:`~repro.server.session.SessionManager` and shared by its
    sessions; :meth:`admit` wraps every statement execution.
    """

    def __init__(self, default_grant_bytes: int,
                 capacity_bytes: Optional[int] = None,
                 waits=None, events=None):
        if capacity_bytes is None:
            capacity_bytes = (
                default_grant_bytes * DEFAULT_GRANT_CAPACITY_MULTIPLE)
        self.default_grant_bytes = default_grant_bytes
        self.grants = MemoryGrantPool(capacity_bytes, waits=waits,
                                      events=events)
        self.latch = DatabaseLatch(waits=waits)

    @contextmanager
    def admit(self, owner: object, writes: bool,
              grant_bytes: Optional[int] = None) -> Iterator[None]:
        """Admit one statement for ``owner``: take the latch in the mode
        its statement class needs, then reserve its memory grant.

        The latch-before-grant ordering is load-bearing. A statement
        waiting for pool bytes already holds the latch, and every grant
        holder is past both waits and executing, so grants always drain
        and the two primitives cannot form a circular wait. The reverse
        order deadlocks: :meth:`~repro.server.session.Session.transaction`
        takes the latch
        exclusively with *no* grant, so statements queued on the latch
        behind an open transaction would pin the whole pool while the
        transaction owner's next statement blocked forever on a grant.
        """
        requested = (grant_bytes if grant_bytes is not None
                     else self.default_grant_bytes)
        if writes:
            with self.latch.exclusive(owner):
                with self.grants.grant(requested):
                    yield
        else:
            with self.latch.shared(owner):
                with self.grants.grant(requested):
                    yield

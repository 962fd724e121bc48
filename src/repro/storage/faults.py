"""Deterministic fault injection for the storage engine.

Real engines prove their DML atomicity guarantees by injecting failures
mid-operation (SQL Server's fault-injection test harness behind DBCC
CHECKDB is the model here). This module provides the same capability for
the repro engine: a :class:`FaultInjector` is registered on a
:class:`~repro.storage.database.Database` and threaded through every
storage structure; named *injection points* sprinkled through
``heap.py``, ``btree.py``, ``columnstore.py`` and ``table.py`` call
:meth:`FaultInjector.hit` just before the mutation they guard, and an
armed injector raises :class:`InjectedFault` there.

Three schedules are supported:

* **Nth hit** (:meth:`FaultInjector.arm`): fire once on the Nth time the
  point is reached after arming — the workhorse of the exhaustive fault
  sweep in ``tests/test_faults.py``.
* **Probabilistic** (:meth:`FaultInjector.arm_probabilistic`): fire each
  hit with probability ``p`` from a seeded RNG (chaos testing with a
  reproducible seed).
* **Scripted** (:meth:`FaultInjector.arm_script`): a boolean sequence
  consumed one entry per hit (precise multi-fault choreography).

The injector is inert unless a point is armed: ``hit`` then only counts,
so production paths and every figure/experiment output are unchanged.
A failed statement's undo log (:mod:`repro.storage.undo`) is replayed
under :meth:`FaultInjector.suspended`, so an inverse can never itself
fault.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence

from repro.core.errors import ProcessAbort, StorageError

#: Catalog of every injection point threaded through the storage layer.
#: Tests iterate this tuple to prove exhaustive coverage; ``arm``/``hit``
#: reject names outside it so points cannot silently rot.
INJECTION_POINTS = (
    # Heap file mutations.
    "heap.insert",
    "heap.delete",
    "heap.update",
    # B+ tree index mutations (primary and secondary flavours share the
    # points: what matters is which physical step is about to run).
    "btree.insert",
    "btree.delete",
    "btree.update",
    # Columnstore DML: delta-store insert, per-rid delete (delta removal,
    # delete-bitmap mark, or delete-buffer insert).
    "csi.delta_insert",
    "csi.delete",
    # Columnstore maintenance: tuple-mover compression, full rebuild,
    # delete-buffer compaction.
    "csi.move_tuples.compress",
    "csi.rebuild.compress",
    "csi.compact_delete_buffer",
    # Table-level: fires before each secondary index receives its share
    # of a DML statement (the classic half-updated-table scenario).
    "table.secondary_apply",
)

#: Crash-style points threaded through the durability layer
#: (``wal.py`` / ``pages.py``). Unlike the logical points above, firing
#: one raises :class:`~repro.core.errors.ProcessAbort` — a
#: ``BaseException`` modelling a hard ``kill -9`` — instead of
#: :class:`InjectedFault`, so no rollback path can catch it. Kept out of
#: ``INJECTION_POINTS`` because the exhaustive logical fault sweep
#: proves all-or-nothing *in-memory* semantics, which a simulated
#: process death is definitionally outside of.
CRASH_POINTS = (
    # Before a WAL record frame is written (a torn half-frame is left
    # behind, like a power cut mid-append).
    "wal_append",
    # After WAL frames are written but before the fsync barrier.
    "wal_fsync",
    # Mid-checkpoint, after some snapshot pages are written to the
    # temp file (the atomic-rename publish never happens).
    "checkpoint_mid",
    # While flushing one snapshot page: a torn (truncated) page is left
    # in the temp file.
    "page_flush_torn",
)

ALL_POINTS = INJECTION_POINTS + CRASH_POINTS

_POINT_SET = frozenset(INJECTION_POINTS)
_ALL_SET = frozenset(ALL_POINTS)
_CRASH_SET = frozenset(CRASH_POINTS)


class InjectedFault(StorageError):
    """Raised by an armed :class:`FaultInjector` at an injection point.

    Subclasses :class:`~repro.core.errors.StorageError` so injected
    faults travel the same recovery paths as organic storage failures.
    """

    def __init__(self, point: str, hit_number: int):
        super().__init__(
            f"injected fault at {point!r} (hit {hit_number})")
        self.point = point
        self.hit_number = hit_number


class FaultInjector:
    """Registry of armed injection points plus hit/injection counters.

    One injector is shared by a database's tables and index structures;
    standalone structures have ``faults = None`` and skip all checks.

    Thread safety: arming, disarming, and hit counting/firing take one
    re-entrant lock, so one-shot schedules fire exactly once no matter
    how many sessions race through the point. Rollback masking
    (:meth:`suspended`) is **per thread** — one session suspending the
    injector around its undo work must not blind the injector to every
    other session's mutations.
    """

    def __init__(self, enabled: bool = True):
        #: Master switch: a disabled injector neither counts nor fires.
        self.enabled = enabled
        #: Cumulative hits per point since construction / ``reset``.
        self.hits: Dict[str, int] = {p: 0 for p in ALL_POINTS}
        #: Faults actually raised per point.
        self.injected: Dict[str, int] = {p: 0 for p in ALL_POINTS}
        self._armed: Dict[str, dict] = {}
        self._lock = threading.RLock()
        self._suspend = threading.local()
        #: When True, a firing crash point calls ``os._exit(137)``
        #: instead of raising :class:`ProcessAbort` — the subprocess
        #: crash harness sets this on its child so a "crash" kills the
        #: whole process without unwinding, exactly like SIGKILL.
        self.crash_exit = False
        #: Optional :class:`~repro.storage.events.EventStream` (attached
        #: by the owning Database): every fault that actually fires
        #: emits a ``fault_injection`` event before raising.
        self.events = None

    # ------------------------------------------------------------ arming
    def _validate(self, point: str) -> None:
        if point not in _ALL_SET:
            armed = ", ".join(sorted(self._armed)) or "<none>"
            raise StorageError(
                f"unknown injection point {point!r}; "
                f"armed points: {armed}; "
                f"known points: {', '.join(ALL_POINTS)}")

    def arm(self, point: str, on_hit: int = 1) -> None:
        """Fire once on the ``on_hit``-th hit of ``point`` from now.

        One-shot: the arming is consumed when it fires.
        """
        self._validate(point)
        if on_hit < 1:
            raise StorageError("on_hit must be >= 1")
        with self._lock:
            self._armed[point] = {"kind": "nth", "remaining": on_hit}

    def arm_probabilistic(self, point: str, probability: float,
                          seed: int = 0) -> None:
        """Fire each hit of ``point`` with the given probability, drawn
        from a dedicated RNG seeded with ``seed`` for reproducibility."""
        self._validate(point)
        if not 0.0 <= probability <= 1.0:
            raise StorageError("probability must be within [0, 1]")
        with self._lock:
            self._armed[point] = {
                "kind": "probability",
                "probability": probability,
                "rng": random.Random(seed),
            }

    def arm_script(self, point: str, script: Sequence[bool]) -> None:
        """Consume one ``script`` entry per hit; truthy entries fire.
        The arming disarms itself once the script is exhausted."""
        self._validate(point)
        with self._lock:
            self._armed[point] = {"kind": "script", "script": list(script)}

    def scenario(self, points: Dict[str, object]) -> None:
        """Arm several points in one call (crash-harness convenience).

        ``points`` maps point name to a spec: an ``int`` arms an Nth-hit
        one-shot (:meth:`arm`), a sequence of booleans arms a script
        (:meth:`arm_script`), and a dict selects explicitly —
        ``{"kind": "nth", "on_hit": 3}``,
        ``{"kind": "probability", "probability": 0.1, "seed": 7}``, or
        ``{"kind": "script", "script": [...]}``.
        """
        for point, spec in points.items():
            if isinstance(spec, bool):
                raise StorageError(
                    f"scenario spec for {point!r} must be an int, "
                    "sequence, or dict — got a bare bool")
            if isinstance(spec, int):
                self.arm(point, on_hit=spec)
            elif isinstance(spec, dict):
                kind = spec.get("kind")
                if kind == "nth":
                    self.arm(point, on_hit=spec.get("on_hit", 1))
                elif kind == "probability":
                    self.arm_probabilistic(
                        point, spec["probability"], seed=spec.get("seed", 0))
                elif kind == "script":
                    self.arm_script(point, spec["script"])
                else:
                    raise StorageError(
                        f"scenario spec for {point!r} has unknown kind "
                        f"{kind!r}")
            elif isinstance(spec, (list, tuple)):
                self.arm_script(point, spec)
            else:
                raise StorageError(
                    f"scenario spec for {point!r} must be an int, "
                    f"sequence, or dict — got {type(spec).__name__}")

    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point, or every point when ``point`` is None."""
        with self._lock:
            if point is None:
                self._armed.clear()
            else:
                self._validate(point)
                self._armed.pop(point, None)

    def reset(self) -> None:
        """Disarm everything and zero the counters."""
        with self._lock:
            self._armed.clear()
            self.hits = {p: 0 for p in ALL_POINTS}
            self.injected = {p: 0 for p in ALL_POINTS}

    def armed_points(self) -> Sequence[str]:
        """Names of currently armed points."""
        with self._lock:
            return tuple(self._armed)

    # ---------------------------------------------------------- counters
    @property
    def total_hits(self) -> int:
        """Total hits across every point."""
        return sum(self.hits.values())

    @property
    def total_injected(self) -> int:
        """Total faults raised across every point."""
        return sum(self.injected.values())

    # --------------------------------------------------------- execution
    @property
    def active(self) -> bool:
        """Whether hits from *this thread* are counted / fired."""
        return self.enabled and getattr(self._suspend, "depth", 0) == 0

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Context manager that masks the injector — used around
        compensating (rollback) work so undo paths cannot fault.

        The mask is thread-local: a session rolling back must not
        suppress fault checks for every other session's foreground
        mutations (the single shared depth counter did exactly that)."""
        self._suspend.depth = getattr(self._suspend, "depth", 0) + 1
        try:
            yield
        finally:
            self._suspend.depth -= 1

    def hit(self, point: str) -> None:
        """Record one arrival at ``point``; raise if an arming fires.

        Counting, one-shot decrement, and disarm happen under the lock,
        so exactly one of N racing sessions consumes an ``arm(...)``.
        Crash-style points (:data:`CRASH_POINTS`) fire
        :class:`~repro.core.errors.ProcessAbort` — or ``os._exit`` when
        :attr:`crash_exit` is set — instead of :class:`InjectedFault`."""
        if point not in _ALL_SET:
            self._validate(point)
        if not self.active:
            return
        with self._lock:
            self.hits[point] += 1
            hit_number = self.hits[point]
            arming = self._armed.get(point)
            if arming is None:
                return
            fire = False
            kind = arming["kind"]
            if kind == "nth":
                arming["remaining"] -= 1
                if arming["remaining"] == 0:
                    fire = True
                    del self._armed[point]
            elif kind == "probability":
                fire = arming["rng"].random() < arming["probability"]
            else:  # scripted
                if arming["script"]:
                    fire = bool(arming["script"].pop(0))
                if not arming["script"]:
                    del self._armed[point]
            if fire:
                self.injected[point] += 1
        if fire:
            if self.events is not None:
                # Emitted outside the injector lock, before the raise,
                # so the event is retained even when the fault (or the
                # crash-style abort) unwinds the statement.
                self.events.emit("fault_injection", {
                    "point": point,
                    "hit_number": hit_number,
                    "crash_point": point in _CRASH_SET,
                })
            if point in _CRASH_SET:
                if self.crash_exit:
                    os._exit(137)
                raise ProcessAbort(point, hit_number)
            raise InjectedFault(point, hit_number)


def trip(faults: Optional[FaultInjector], point: str) -> None:
    """Hit ``point`` on ``faults`` when an injector is attached.

    The one-liner every storage structure calls just before a guarded
    mutation; ``faults is None`` (standalone structures) is free.
    """
    if faults is not None:
        faults.hit(point)

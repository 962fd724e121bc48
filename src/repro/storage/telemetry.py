"""Always-on, observation-only index telemetry primitives.

This module holds the storage-layer half of the DMV subsystem (the
engine-facing system views live in :mod:`repro.engine.dmv`): a
deterministic logical clock, per-index cumulative usage counters, and
the database-wide :class:`Telemetry` aggregate that also collects
missing-index observations from the optimizer.

Design rules, enforced throughout:

* **Zero modeled cost.** Recording never touches
  :class:`~repro.engine.metrics.QueryMetrics` or charges CPU/IO, so
  every figure and benchmark output stays byte-identical.
* **Deterministic stamps.** ``last_user_*`` columns are *logical* clock
  values — a monotonic statement sequence number advanced once per
  executed statement — never wall time, so DMV snapshots are
  reproducible and diff-stable in tests.
* **User accesses only.** Storage methods record usage only when called
  with an :class:`~repro.engine.metrics.ExecutionContext`; internal
  reads (consistency checker, statistics builds, index builds) pass no
  context and therefore leave the counters untouched — mirroring how
  ``sys.dm_db_index_usage_stats`` counts *user* operations separately
  from system ones.

This module lives under :mod:`repro.storage` (not the engine) so the
index structures can import it without creating a storage → engine
cycle.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

#: How many distinct recent statement stamps each index remembers for
#: update dedup. Bounds memory; far larger than any realistic number of
#: statements concurrently maintaining one index.
_UPDATE_DEDUP_WINDOW = 256


class LogicalClock:
    """A monotonic statement sequence counter, safe under concurrent
    sessions.

    The executor calls :meth:`advance` once at the start of every
    statement; the increment is lock-protected, so two sessions can
    never claim the same sequence number (the race that made
    ``user_updates`` double-count). :meth:`advance` also remembers the
    claimed number in thread-local storage: :attr:`stamp` returns *this
    thread's* current statement stamp, while :attr:`now` stays the
    global high-water mark (what DMV snapshots report). Stamp ``0``
    means "before any statement" — usage stamps of 0 read as *never
    used*.
    """

    __slots__ = ("_now", "_lock", "_local")

    def __init__(self) -> None:
        self._now = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def now(self) -> int:
        """The latest statement sequence number issued (global)."""
        return self._now

    @property
    def stamp(self) -> int:
        """The stamp of the statement *this thread* is executing.

        Falls back to :attr:`now` for threads that never advanced the
        clock (internal/system reads), preserving single-session
        behavior exactly."""
        return getattr(self._local, "stamp", self._now)

    def advance(self) -> int:
        """Start the next statement; returns its sequence number."""
        with self._lock:
            self._now += 1
            stamp = self._now
        self._local.stamp = stamp
        return stamp

    def __repr__(self) -> str:
        return f"LogicalClock(now={self._now})"


class IndexUsageStats:
    """Cumulative per-index usage counters (``dm_db_index_usage_stats``).

    Seeks, scans, lookups, and updates follow SQL Server's semantics:

    * a *seek* is a range/point access through the index's order;
    * a *scan* is a full traversal (open bounds on both ends);
    * a *lookup* is a bookmark/RID lookup into the table's **primary**
      structure on behalf of a non-covering secondary index — lookups are
      counted against the primary, as in SQL Server;
    * an *update* counts **statements** that maintained the index, not
      rows (one multi-row UPDATE increments ``user_updates`` once).

    ``segments_scanned``/``segments_skipped`` attribute columnstore
    segment elimination per index, so the per-index sums reconcile with
    the statement-level :class:`~repro.engine.metrics.QueryMetrics`
    totals.

    The owning :class:`~repro.storage.table.Table` attaches the shared
    :class:`LogicalClock` (``clock``); without one, stamps stay 0.

    Thread safety: every recording takes a per-instance lock, and
    update dedup keys on the *recording session's* statement stamp
    (``clock.stamp``, thread-local) against a bounded set of recently
    seen stamps — not a single ``last_user_update`` scalar, which two
    interleaving sessions would ping-pong into double counting.
    """

    __slots__ = (
        "clock", "_lock",
        "user_seeks", "user_scans", "user_lookups", "user_updates",
        "last_user_seek", "last_user_scan", "last_user_lookup",
        "last_user_update",
        "segments_scanned", "segments_skipped",
        "_update_stamps", "_update_stamp_order",
    )

    def __init__(self, clock: Optional[LogicalClock] = None) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self.user_seeks = 0
        self.user_scans = 0
        self.user_lookups = 0
        self.user_updates = 0
        self.last_user_seek = 0
        self.last_user_scan = 0
        self.last_user_lookup = 0
        self.last_user_update = 0
        self.segments_scanned = 0
        self.segments_skipped = 0
        self._update_stamps: Set[int] = set()
        self._update_stamp_order: Deque[int] = deque()

    def _stamp(self) -> int:
        return self.clock.stamp if self.clock is not None else 0

    def record_seek(self) -> None:
        """One seek (bounded range access) through the index."""
        stamp = self._stamp()
        with self._lock:
            self.user_seeks += 1
            if stamp > self.last_user_seek:
                self.last_user_seek = stamp

    def record_scan(self) -> None:
        """One full scan of the index."""
        stamp = self._stamp()
        with self._lock:
            self.user_scans += 1
            if stamp > self.last_user_scan:
                self.last_user_scan = stamp

    def record_lookup(self) -> None:
        """One bookmark/RID lookup into this (primary) structure."""
        stamp = self._stamp()
        with self._lock:
            self.user_lookups += 1
            if stamp > self.last_user_lookup:
                self.last_user_lookup = stamp

    def record_update(self) -> None:
        """One DML statement that maintained this index.

        Statement-granular: a statement that maintains the index through
        several internal operations (a multi-row INSERT inserting row by
        row, an UPDATE implemented as delete+insert) still counts once,
        because every recording inside one statement carries the same
        clock stamp. Dedup is against a bounded window of recently seen
        stamps so that two sessions' statements interleaving on the same
        index each count exactly once. Without a clock (stamp 0) each
        call counts."""
        stamp = self._stamp()
        with self._lock:
            if stamp:
                if stamp in self._update_stamps:
                    return
                self._update_stamps.add(stamp)
                self._update_stamp_order.append(stamp)
                if len(self._update_stamp_order) > _UPDATE_DEDUP_WINDOW:
                    self._update_stamps.discard(
                        self._update_stamp_order.popleft())
            self.user_updates += 1
            if stamp > self.last_user_update:
                self.last_user_update = stamp

    def add_segment_counts(self, scanned: int, skipped: int) -> None:
        """Fold segments a scan read or eliminated into the per-index
        attribution (a columnstore scan calls this once per rowgroup)."""
        if scanned == 0 and skipped == 0:
            return
        with self._lock:
            self.segments_scanned += scanned
            self.segments_skipped += skipped

    @property
    def total_reads(self) -> int:
        """Seeks + scans + lookups — the read side of the usage ledger."""
        return self.user_seeks + self.user_scans + self.user_lookups

    def reset(self) -> None:
        """Zero every counter and stamp (the clock itself is untouched)."""
        with self._lock:
            self.user_seeks = self.user_scans = 0
            self.user_lookups = self.user_updates = 0
            self.last_user_seek = self.last_user_scan = 0
            self.last_user_lookup = self.last_user_update = 0
            self.segments_scanned = self.segments_skipped = 0
            self._update_stamps.clear()
            self._update_stamp_order.clear()

    def __repr__(self) -> str:
        return (
            f"IndexUsageStats(seeks={self.user_seeks}, "
            f"scans={self.user_scans}, lookups={self.user_lookups}, "
            f"updates={self.user_updates})"
        )


@dataclass
class MissingIndexDetails:
    """One missing-index observation group (``dm_db_missing_index_details``).

    Grouped by (table, equality columns, inequality columns) exactly like
    SQL Server's missing-index DMVs; ``statement_count`` counts how many
    plans would have benefited and ``avg_selectivity`` tracks how
    selective the unserved predicate was on average (lower is a stronger
    signal).
    """

    table_name: str
    equality_columns: Tuple[str, ...]
    inequality_columns: Tuple[str, ...]
    included_columns: Tuple[str, ...] = ()
    statement_count: int = 0
    total_selectivity: float = 0.0
    last_seen: int = 0

    @property
    def avg_selectivity(self) -> float:
        """Mean estimated selectivity of the unserved predicate."""
        if not self.statement_count:
            return 0.0
        return self.total_selectivity / self.statement_count

    @property
    def key_columns(self) -> Tuple[str, ...]:
        """Suggested key: equality columns first, then inequality."""
        return self.equality_columns + self.inequality_columns


class Telemetry:
    """Database-wide telemetry aggregate: the logical clock plus the
    missing-index observations the optimizer reports.

    Per-index usage lives on the index structures themselves (each has a
    ``usage`` :class:`IndexUsageStats`); this object carries only state
    that is not anchored to one physical index.
    """

    def __init__(self) -> None:
        self.clock = LogicalClock()
        self._lock = threading.Lock()
        self._missing: Dict[Tuple[str, Tuple[str, ...], Tuple[str, ...]],
                            MissingIndexDetails] = {}

    def record_missing_index(
        self,
        table_name: str,
        equality_columns: Tuple[str, ...],
        inequality_columns: Tuple[str, ...],
        included_columns: Tuple[str, ...] = (),
        selectivity: float = 0.0,
    ) -> MissingIndexDetails:
        """Fold one optimizer observation into the grouped details."""
        key = (table_name, tuple(equality_columns),
               tuple(inequality_columns))
        with self._lock:
            details = self._missing.get(key)
            if details is None:
                details = MissingIndexDetails(
                    table_name=table_name,
                    equality_columns=tuple(equality_columns),
                    inequality_columns=tuple(inequality_columns),
                    included_columns=tuple(included_columns),
                )
                self._missing[key] = details
            else:
                # Widen the included set so the suggestion stays covering.
                merged = list(details.included_columns)
                for column in included_columns:
                    if column not in merged:
                        merged.append(column)
                details.included_columns = tuple(merged)
            details.statement_count += 1
            details.total_selectivity += selectivity
            details.last_seen = self.clock.stamp
            return details

    def missing_indexes(self) -> List[MissingIndexDetails]:
        """All observation groups, most-requested first (ties broken by
        table and key for deterministic output)."""
        return sorted(
            self._missing.values(),
            key=lambda d: (-d.statement_count, d.table_name,
                           d.equality_columns, d.inequality_columns),
        )

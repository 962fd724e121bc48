"""Database container: a namespace of tables plus shared services.

The :class:`Database` is the top-level handle the public API exposes:
workload generators populate it, the SQL front end binds statements
against it, the optimizer reads its statistics, and the advisor changes
its physical design.
"""

from __future__ import annotations

import os
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional

from repro.core.errors import CatalogError, StorageError
from repro.core.schema import TableSchema
from repro.engine.costs import DEFAULT_COST_MODEL, CostModel
from repro.storage.events import EventStream
from repro.storage.faults import FaultInjector
from repro.storage.table import Table
from repro.storage.telemetry import Telemetry
from repro.storage.timeseries import TelemetryHistory
from repro.storage.waits import WaitStatsCollector


class Database:
    """A named collection of tables sharing one cost model."""

    def __init__(self, name: str = "db",
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        self.name = name
        self.cost_model = cost_model
        # Stand-in for a decoded-segment cache the engine no longer has:
        # the wall-clock benchmark's harness reads
        # ``segment_cache.stats.evictions``. The next change to the
        # benchmark removes it (ROADMAP 1(e)).
        self.segment_cache = SimpleNamespace(
            stats=SimpleNamespace(evictions=0))
        #: Shared fault injector, attached to every index structure of
        #: every table. Disarmed by default — arming points (see
        #: :mod:`repro.storage.faults`) is how robustness tests simulate
        #: storage failures mid-statement.
        self.fault_injector = FaultInjector()
        #: Always-on observation-only telemetry: the logical statement
        #: clock plus missing-index observations. Per-index usage
        #: counters live on the index structures themselves.
        self.telemetry = Telemetry()
        #: Engine-wide wait statistics (``dm_os_wait_stats`` /
        #: ``dm_exec_session_wait_stats``): every blocking primitive of
        #: this database — latch, memory grants, buffer-pool faults, WAL
        #: flush — records into this one collector.
        self.waits = WaitStatsCollector()
        #: XEvents-style ring buffer of typed engine events
        #: (``dm_xe_ring_buffer``); timestamps come from the logical
        #: clock and session attribution follows the wait collector's.
        self.events = EventStream(
            clock=self.telemetry.clock,
            session_resolver=lambda: self.waits.current_session_id)
        #: Deterministic interval telemetry history, sampled by the
        #: executor on logical-clock boundaries (the drift substrate for
        #: the future online tuner).
        self.history = TelemetryHistory()
        #: Parsed-statement templates keyed by SQL text, shared by every
        #: session and executor of this database. Imported here because
        #: the ``repro.sql`` package imports this module (the binder).
        from repro.sql.cache import StatementCache
        self.statement_cache = StatementCache()
        self.fault_injector.events = self.events
        self._tables: Dict[str, Table] = {}
        #: Durability backend, both None by default (pure simulator — the
        #: byte-identical configuration): a directory holding the page
        #: snapshot + WAL, and the attached
        #: :class:`~repro.storage.wal.WriteAheadLog`. Set by
        #: :meth:`enable_durability` / :meth:`open`.
        self.data_dir: Optional[str] = None
        self.wal = None
        #: :class:`~repro.storage.recovery.RecoveryReport` of the
        #: recovery that produced this database, when it came from
        #: :meth:`open`.
        self.last_recovery = None
        #: Demand-paging state, set by ``open(..., paging=True)``: the
        #: shared :class:`~repro.storage.bufferpool.BufferPool` all paged
        #: structures fault through, and the open snapshot reader whose
        #: lifetime this database owns. Both None on the default
        #: in-memory path.
        self.buffer_pool = None
        self._snapshot_reader = None
        #: Materialized system-view snapshots (dm_* tables) registered by
        #: :mod:`repro.engine.dmv`. Resolved by :meth:`table` as a
        #: fallback so DMVs bind/plan/execute like ordinary tables, but
        #: excluded from :meth:`tables`/:meth:`table_names`/sizing so no
        #: workload, advisor, or figure path ever sees them.
        self._system_views: Dict[str, Table] = {}

    # ------------------------------------------------------------ tables
    def create_table(self, schema: TableSchema) -> Table:
        """Create and register a new empty table."""
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema, fault_injector=self.fault_injector,
                      usage_clock=self.telemetry.clock)
        self._tables[schema.name] = table
        if self.wal is not None:
            table.attach_wal(self.wal)
            from repro.storage.pages import _schema_payload
            self.wal.log_ops([{
                "op": "create_table",
                "name": schema.name,
                "schema": _schema_payload(schema),
            }])
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table (CatalogError when absent)."""
        if name not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        self._tables[name].release_pages()
        del self._tables[name]
        if self.wal is not None:
            self.wal.log_ops([{"op": "drop_table", "name": name}])

    def table(self, name: str) -> Table:
        """Look up a table by name (CatalogError when absent).

        System-view snapshots (``dm_*``) resolve as a fallback, so a real
        table always shadows a DMV of the same name."""
        try:
            return self._tables[name]
        except KeyError:
            pass
        try:
            return self._system_views[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    # ------------------------------------------------------- system views
    def register_system_view(self, table: Table) -> None:
        """Install (or replace) one materialized system-view snapshot.

        Called by :mod:`repro.engine.dmv` on each rematerialization; the
        snapshot participates in name resolution only, never in
        :meth:`tables`, sizing, or workload enumeration."""
        self._system_views[table.name] = table

    def is_system_view(self, name: str) -> bool:
        """Whether ``name`` resolves to a registered system view (and is
        not shadowed by a real table)."""
        return name in self._system_views and name not in self._tables

    def tables(self) -> List[Table]:
        """All tables, in creation order."""
        return list(self._tables.values())

    def table_names(self) -> List[str]:
        """Names of all tables, in creation order."""
        return list(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # ------------------------------------------------------------ sizing
    def total_size_bytes(self) -> int:
        """Combined size of every index in the database."""
        return sum(t.total_index_bytes() for t in self._tables.values())

    def index_inventory(self) -> List[str]:
        """Human-readable list of every index, for examples and reports."""
        lines = []
        for table in self._tables.values():
            for index in table.all_indexes:
                role = "primary" if index.is_primary else "secondary"
                lines.append(
                    f"{table.name}.{index.name} [{index.kind}, {role}, "
                    f"{index.size_bytes() / (1024 * 1024):.2f} MB]"
                )
        return lines

    # -------------------------------------------------------- durability
    @property
    def durable(self) -> bool:
        """Whether a durability backend (data dir + WAL) is attached."""
        return self.wal is not None

    def _attach_storage(self, data_dir: str, wal) -> None:
        """Attach a WAL: every table starts logging its DML/DDL."""
        self.data_dir = str(data_dir)
        self.wal = wal
        for table in self._tables.values():
            table.attach_wal(wal)

    def save(self, path: Optional[str] = None) -> str:
        """Write an atomic page snapshot of the current state.

        The snapshot goes to ``<path>/snapshot.db`` via a temp file +
        fsync + rename, so a crash mid-write can never clobber the
        previously published snapshot. When a WAL is attached this is a
        *checkpoint*: the snapshot captures the log's last LSN and the
        log is truncated afterwards.

        Not safe against concurrent DML — callers must quiesce first
        (the serving layer checkpoints under the exclusive latch).
        """
        from repro.storage.pages import write_snapshot
        from repro.storage.wal import SNAPSHOT_FILENAME, SNAPSHOT_TMP_FILENAME

        target = path or self.data_dir
        if target is None:
            raise StorageError(
                "Database.save needs a path (no data_dir attached)")
        os.makedirs(target, exist_ok=True)
        checkpoint_lsn = self.wal.last_lsn if self.wal is not None else 0
        tmp = os.path.join(target, SNAPSHOT_TMP_FILENAME)
        final = os.path.join(target, SNAPSHOT_FILENAME)
        with open(tmp, "wb") as out:
            write_snapshot(self, out, checkpoint_lsn=checkpoint_lsn,
                           faults=self.fault_injector)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, final)
        if self.wal is not None:
            self.wal.checkpoint(checkpoint_lsn)
        self.events.emit("checkpoint", {
            "checkpoint_lsn": checkpoint_lsn,
            "tables": len(self._tables),
            "durable": self.wal is not None,
        })
        return final

    def checkpoint(self) -> str:
        """Snapshot + WAL reset into the attached data directory."""
        if self.data_dir is None:
            raise StorageError("checkpoint needs an attached data_dir")
        return self.save(self.data_dir)

    def enable_durability(self, data_dir: str, fsync: bool = False) -> None:
        """Turn this in-memory database durable.

        Writes an initial snapshot of the current state to ``data_dir``
        and attaches a WAL; every committed statement from here on is
        durable before it returns. Typical flow: build the workload
        in memory (fast, unlogged), then enable durability, then serve.
        """
        from repro.storage.wal import WAL_FILENAME, WriteAheadLog

        if self.wal is not None:
            raise StorageError(
                f"database {self.name!r} is already durable "
                f"(data_dir={self.data_dir!r})")
        os.makedirs(data_dir, exist_ok=True)
        wal_path = os.path.join(data_dir, WAL_FILENAME)
        if os.path.exists(wal_path):
            os.remove(wal_path)
        self.save(data_dir)
        wal = WriteAheadLog(wal_path, fsync=fsync,
                            faults=self.fault_injector, waits=self.waits)
        wal.checkpoint(0)
        self._attach_storage(data_dir, wal)

    def close(self) -> None:
        """Release the files this database holds open: the WAL handle
        and, after a paged open, the snapshot reader. Idempotent. A
        closed database can still be read where it is resident; logging
        a statement or faulting a deferred page raises."""
        if self.wal is not None:
            self.wal.close()
        if self._snapshot_reader is not None:
            self._snapshot_reader.close()

    @classmethod
    def open(cls, data_dir: str, cost_model: CostModel = DEFAULT_COST_MODEL,
             fsync: bool = False, paging: bool = False,
             pool_bytes: Optional[int] = None) -> "Database":
        """Recover a durable database directory and reattach its WAL.

        Runs full crash recovery (snapshot load + committed-WAL redo +
        consistency check — see :mod:`repro.storage.recovery`), truncates
        any torn WAL tail, and returns a database ready to serve and log
        further statements. The recovery report is available as
        ``db.last_recovery``.

        With ``paging=True`` the snapshot is opened lazily through a
        :class:`~repro.storage.bufferpool.BufferPool` of ``pool_bytes``
        (default :data:`~repro.storage.bufferpool.DEFAULT_POOL_BYTES`):
        B+ leaf pages and columnstore segment pages are demand-loaded
        from ``snapshot.db`` on first touch and LRU-evicted under the
        byte budget, so tables larger than memory can be served. The
        default (``paging=False``) is the fully-loaded path and stays
        byte-identical to prior releases.
        """
        from repro.storage.bufferpool import DEFAULT_POOL_BYTES, BufferPool
        from repro.storage.recovery import recover
        from repro.storage.wal import WAL_FILENAME, WriteAheadLog

        pool = None
        if paging:
            pool = BufferPool(
                budget_bytes=pool_bytes or DEFAULT_POOL_BYTES)
        elif pool_bytes is not None:
            raise StorageError("pool_bytes requires paging=True")
        database, report = recover(data_dir, cost_model=cost_model,
                                   buffer_pool=pool)
        wal_path = os.path.join(data_dir, WAL_FILENAME)
        if report.torn_tail and os.path.exists(wal_path):
            with open(wal_path, "r+b") as f:
                f.truncate(report.wal_valid_bytes)
        wal = WriteAheadLog(
            wal_path, fsync=fsync, faults=database.fault_injector,
            start_lsn=max(report.last_lsn, report.checkpoint_lsn),
            start_txn=report.last_txn, waits=database.waits,
        )
        database._attach_storage(data_dir, wal)
        database.last_recovery = report
        if pool is not None:
            # The pool was built before the database existed; attach the
            # observability sinks now so faults record PAGEIOLATCH and
            # eviction storms reach the event ring.
            pool.waits = database.waits
            pool.events = database.events
        database.events.emit("recovery", {
            "snapshot_pages": report.snapshot_pages,
            "wal_records": report.wal_records,
            "txns_committed": report.txns_committed,
            "ops_replayed": report.ops_replayed,
            "torn_tail": report.torn_tail,
            "check_ok": report.check_ok,
        })
        return database

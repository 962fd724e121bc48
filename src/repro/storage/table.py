"""Table object: a schema, a primary structure, and coordinated index
maintenance.

A :class:`Table` owns

* a *primary structure* — heap file, clustered B+ tree, or primary
  columnstore — which *is* the table: the one copy of each row, the
  structure every rid read goes to, and what determines base-table
  access paths and sizes,
* any number of secondary indexes (B+ trees, and at most one secondary
  columnstore per table, matching SQL Server's restriction noted in
  Section 4.3), which reach the rest of a row through the primary.

Every DML call updates the primary structure and all secondary indexes,
charging maintenance costs to the supplied execution context — this is
where "B+ trees are the cheapest to update" and the delta-store /
delete-buffer behaviours of Figure 5 come from. Each call is one undo
scope (:meth:`Table.statement`): every structure records the physical
inverse of each step it completes in the table's
:class:`~repro.storage.undo.UndoLog`, and a failure replays the log
backwards, so the table and all its indexes end exactly as the
statement found them — only the rid a failed insert drew stays burned.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.errors import CatalogError, StorageError
from repro.core.schema import TableSchema
from repro.engine.metrics import ExecutionContext
from repro.storage.btree import PrimaryBTreeIndex, SecondaryBTreeIndex
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.faults import FaultInjector, InjectedFault, trip
from repro.storage.heap import HeapFile
from repro.storage.records import Records
from repro.storage.telemetry import LogicalClock
from repro.storage.undo import UndoLog

Row = Tuple[object, ...]
PrimaryStructure = Union[HeapFile, PrimaryBTreeIndex, ColumnstoreIndex]
SecondaryIndex = Union[SecondaryBTreeIndex, ColumnstoreIndex]


class Table:
    """A named table with a schema, rows, and physical design."""

    def __init__(self, schema: TableSchema,
                 fault_injector: Optional[FaultInjector] = None,
                 usage_clock: Optional[LogicalClock] = None):
        self.schema = schema
        self.name = schema.name
        self._next_rid = 0
        #: Shared fault injector handed down by the owning Database;
        #: attached to every index structure built on this table. None
        #: (standalone tables) disables injection entirely.
        self.fault_injector = fault_injector
        #: The write statements' undo log, attached to every index
        #: structure built on this table (see :meth:`statement`).
        self.undo = UndoLog()
        #: Shared logical clock handed down by the owning Database's
        #: Telemetry (standalone tables get a private one); attached to
        #: every index's usage counters for last_user_* stamps.
        self.usage_clock = usage_clock or LogicalClock()
        #: Rows touched by DML since creation — drives statistics
        #: staleness detection (SQL Server's auto-update-stats rule).
        self.modification_counter = 0
        #: Write-ahead log attached by a durable owning Database (None
        #: keeps the table pure-simulator). Every successful DML/DDL
        #: call logs its redo ops here *after* applying in memory; the
        #: executor's statement scope makes multi-call statements one
        #: atomic log transaction.
        self.wal = None
        self.primary: PrimaryStructure = self._wire(
            HeapFile(f"{self.name}_heap", schema))
        self.secondary_indexes: Dict[str, SecondaryIndex] = {}

    def _wire(self, index):
        """Hand a new index structure this table's shared services — the
        one place fault injector, undo log, usage clock and WAL
        maintenance hook are attached, whoever built the index."""
        index.faults = self.fault_injector
        index.undo = self.undo
        index.usage.clock = self.usage_clock
        self._attach_wal_hooks(index)
        return index

    # --------------------------------------------------------- durability
    def attach_wal(self, wal) -> None:
        """Start logging this table's DML/DDL to ``wal``."""
        self.wal = wal
        for index in self.all_indexes:
            self._attach_wal_hooks(index)

    def _attach_wal_hooks(self, index) -> None:
        """Give columnstores their explicit-maintenance redo logger."""
        if self.wal is not None and isinstance(index, ColumnstoreIndex):
            index.wal_notify = self._maintenance_logger(index.name)

    def _maintenance_logger(self, index_name: str) -> Callable[[str], None]:
        def notify(kind: str) -> None:
            self._log_ops([{
                "op": "maintenance", "table": self.name,
                "index": index_name, "kind": kind,
            }])
        return notify

    def _log_ops(self, ops) -> None:
        if self.wal is not None:
            self.wal.log_ops(ops)

    # The snapshot loader and WAL redo rebuild a table through the three
    # methods below; nothing outside this module writes ``_next_rid``.
    # None of them logs, charges or trips a fault point.

    def restore_counters(self, next_rid: int,
                         modification_counter: int) -> None:
        """Snapshot restore: resume rid allocation and the statistics
        staleness count where the snapshot left them."""
        self._next_rid = next_rid
        self.modification_counter = modification_counter

    def adopt_index(self, index, primary: bool) -> None:
        """Snapshot restore: install an index rebuilt from its pages as
        the primary structure or as a secondary index."""
        self._wire(index)
        if primary:
            self.primary = index
        else:
            self.secondary_indexes[index.name] = index

    def redo_insert(self, rids: Sequence[int],
                    rows: Sequence[Sequence[object]]) -> None:
        """WAL redo of logged inserts (one row, or a bulk load's): every
        row goes in at its logged rid. ``insert_row`` cannot be reused:
        rid allocation must match the log exactly even when aborted
        statements burned rids in the original process (their rids are
        absent from the log and must stay absent)."""
        rows = [tuple(row) for row in rows]
        self._store_rows(rids, rows)
        if rids:
            self._next_rid = max(self._next_rid, max(rids) + 1)
        self.modification_counter += len(rids)

    # ------------------------------------------------------------ basics
    #
    # Every rid read goes to the primary structure, the one copy of each
    # row; none of these charges anything.

    def __len__(self) -> int:
        return len(self.primary)

    @property
    def row_count(self) -> int:
        """Number of live rows in the table."""
        return len(self.primary)

    def get_row(self, rid: int) -> Row:
        """Fetch a row tuple by RID (StorageError if absent)."""
        try:
            return self.primary.fetch(rid)
        except StorageError:
            raise StorageError(f"rid {rid} not in table {self.name!r}") from None

    def get_rows(self, rids: Sequence[int]) -> List[Row]:
        """The rows at ``rids``, read in the primary's storage order: a
        clustered tree's by key, so a paged leaf is faulted once per
        call rather than once per rid."""
        primary = self.primary
        if (isinstance(primary, PrimaryBTreeIndex)
                and all(map(primary.__contains__, rids))):
            return primary.fetch_many(rids)
        return list(map(self.get_row, rids))

    def has_rid(self, rid: int) -> bool:
        """Whether the RID currently exists."""
        return rid in self.primary

    def columns_by_rid(self) -> Tuple[np.ndarray, Records]:
        """Every rid in ascending order, and the rows at them as columns
        (a copy, one array per table column): the table read that index
        builds, statistics, size estimation and the snapshot writer
        share."""
        rids, values = self.primary.columns_by_rid()
        if not len(rids):
            values = Records([np.empty(0, object)] * len(self.schema.columns))
        return rids, values

    def iter_rows(self) -> Iterator[Tuple[int, Row]]:
        """(rid, row) pairs in RID order: :meth:`columns_by_rid` a row at
        a time."""
        rids, values = self.columns_by_rid()
        return zip(rids.tolist(), values)

    # ----------------------------------------------------------- indexes
    @property
    def all_indexes(self) -> List[Union[PrimaryStructure, SecondaryIndex]]:
        """The primary structure plus every secondary index."""
        return [self.primary] + list(self.secondary_indexes.values())

    def index_by_name(self, name: str) -> Union[PrimaryStructure, SecondaryIndex]:
        """Find an index (primary or secondary) by name."""
        if self.primary.name == name:
            return self.primary
        try:
            return self.secondary_indexes[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no index {name!r}"
            ) from None

    def columnstore_index(self) -> Optional[ColumnstoreIndex]:
        """The table's columnstore index, primary or secondary, if any."""
        if isinstance(self.primary, ColumnstoreIndex):
            return self.primary
        for index in self.secondary_indexes.values():
            if isinstance(index, ColumnstoreIndex):
                return index
        return None

    def secondary_btrees(self) -> List[SecondaryBTreeIndex]:
        """The table's nonclustered B+ tree indexes."""
        return [
            idx for idx in self.secondary_indexes.values()
            if isinstance(idx, SecondaryBTreeIndex)
        ]

    def release_pages(self, structures=None) -> None:
        """Free the buffer-pool frames of structures this table drops or
        replaces — all of its structures when the table itself is
        dropped. No read can reach those pages again, and a paged
        columnstore or B+ index leaves them resident until released."""
        for structure in (self.all_indexes if structures is None
                          else structures):
            release = getattr(structure, "release_pages", None)
            if release is not None:
                release()

    def set_primary_btree(self, key_columns: Sequence[str],
                          name: Optional[str] = None) -> PrimaryBTreeIndex:
        """Convert the primary structure to a clustered B+ tree."""
        index_name = name or f"{self.name}_pk_btree"
        self._check_primary_name(index_name)
        index = self._wire(PrimaryBTreeIndex.build(
            index_name, self.schema, key_columns, *self.columns_by_rid()
        ))
        self.release_pages([self.primary])
        self.primary = index
        self._log_ops([{
            "op": "set_primary_btree", "table": self.name,
            "key_columns": list(key_columns), "name": index_name,
        }])
        return index

    def set_primary_columnstore(
        self,
        name: Optional[str] = None,
        rowgroup_size: Optional[int] = None,
        presorted: bool = False,
    ) -> ColumnstoreIndex:
        """Convert the primary structure to a primary columnstore."""
        if self.schema.has_unsupported_columns():
            raise CatalogError(
                f"table {self.name!r} has columnstore-unsupported columns; "
                "a primary columnstore cannot be created"
            )
        existing = self.columnstore_index()
        if existing is not None and not existing.is_primary:
            raise CatalogError(
                f"table {self.name!r} already has columnstore {existing.name!r}"
            )
        index_name = name or f"{self.name}_pk_csi"
        self._check_primary_name(index_name)
        kwargs = {}
        if rowgroup_size is not None:
            kwargs["rowgroup_size"] = rowgroup_size
        index = self._wire(ColumnstoreIndex.build(
            index_name, self.schema, *self.columns_by_rid(),
            is_primary=True, presorted=presorted, **kwargs,
        ))
        self.release_pages([self.primary])
        self.primary = index
        self._log_ops([{
            "op": "set_primary_columnstore", "table": self.name,
            "name": index.name, "rowgroup_size": rowgroup_size,
            "presorted": presorted,
            # Logged so redo rebuilds the index with the *same* id:
            # columnstore object ids participate in the snapshot
            # digest, so replay must not draw a fresh one.
            "object_id": index.object_id,
        }])
        return index

    def set_primary_heap(self) -> HeapFile:
        """Convert the primary structure back to a heap file."""
        heap = self._wire(HeapFile(f"{self.name}_heap", self.schema))
        rids, values = self.columns_by_rid()
        heap.load(rids.tolist(), values)
        self.release_pages([self.primary])
        self.primary = heap
        self._log_ops([{"op": "set_primary_heap", "table": self.name}])
        return heap

    def create_secondary_btree(
        self,
        name: str,
        key_columns: Sequence[str],
        included_columns: Sequence[str] = (),
    ) -> SecondaryBTreeIndex:
        """Build a nonclustered B+ tree on the current rows."""
        self._check_index_name(name)
        index = self._wire(SecondaryBTreeIndex.build(
            name, self.schema, key_columns, *self.columns_by_rid(),
            included_columns=included_columns,
        ))
        self.secondary_indexes[name] = index
        self._log_ops([{
            "op": "create_secondary_btree", "table": self.name,
            "name": name, "key_columns": list(key_columns),
            "included_columns": list(included_columns),
        }])
        return index

    def create_secondary_columnstore(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        rowgroup_size: Optional[int] = None,
        sorted_on: Optional[str] = None,
        allow_multiple: bool = False,
    ) -> ColumnstoreIndex:
        """Create a secondary columnstore.

        ``sorted_on`` builds a *sorted* columnstore (a Vertica-style
        projection, Section 4.5's extension): rows are globally sorted on
        that column before compression, so segments have disjoint min/max
        ranges and range predicates on it eliminate aggressively.

        ``allow_multiple`` lifts the engine's one-columnstore-per-table
        restriction (Section 4.5: "If multiple columnstores are allowed
        on the same table...") — several projections with different sort
        orders may then coexist.
        """
        self._check_index_name(name)
        if self.columnstore_index() is not None and not allow_multiple:
            raise CatalogError(
                f"table {self.name!r} already has a columnstore index "
                "(SQL Server allows one per table)"
            )
        kwargs = {}
        if rowgroup_size is not None:
            kwargs["rowgroup_size"] = rowgroup_size
        rids, values = self.columns_by_rid()
        presorted = False
        if sorted_on is not None:
            column = values.column(self.schema.ordinal(sorted_on)).tolist()
            order = np.array(sorted(range(len(column)), key=lambda i: (
                column[i] is not None, column[i])), np.intp)
            rids, values = rids[order], values.take(order)
            presorted = True
        index = self._wire(ColumnstoreIndex.build(
            name, self.schema, rids, values,
            columns=columns, is_primary=False, presorted=presorted,
            **kwargs,
        ))
        self.secondary_indexes[name] = index
        self._log_ops([{
            "op": "create_secondary_columnstore", "table": self.name,
            "name": name,
            "columns": None if columns is None else list(columns),
            "rowgroup_size": rowgroup_size, "sorted_on": sorted_on,
            "allow_multiple": allow_multiple,
            # See set_primary_columnstore: replayed ids must match.
            "object_id": index.object_id,
        }])
        return index

    def drop_index(self, name: str) -> None:
        """Drop one secondary index by name."""
        if name not in self.secondary_indexes:
            raise CatalogError(f"table {self.name!r} has no secondary index {name!r}")
        self.release_pages([self.secondary_indexes[name]])
        del self.secondary_indexes[name]
        self._log_ops([{
            "op": "drop_index", "table": self.name, "name": name,
        }])

    def drop_all_secondary_indexes(self) -> None:
        """Drop every secondary index."""
        self.release_pages(self.secondary_indexes.values())
        had_indexes = bool(self.secondary_indexes)
        self.secondary_indexes.clear()
        if had_indexes:
            self._log_ops([{
                "op": "drop_all_secondary_indexes", "table": self.name,
            }])

    def _check_index_name(self, name: str) -> None:
        if name in self.secondary_indexes or name == self.primary.name:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")

    def _check_primary_name(self, name: str) -> None:
        """A new primary may reuse the old primary's name, never a
        secondary index's."""
        if name in self.secondary_indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")

    def total_index_bytes(self) -> int:
        """Combined size of every index on the table."""
        return sum(index.size_bytes() for index in self.all_indexes)

    # --------------------------------------------------------------- DML
    #
    # Every write call is all-or-nothing across the primary structure and
    # all secondary indexes, through the one undo log each structure was
    # handed in ``_wire``: see :meth:`statement`. ``modification_counter``
    # only advances on success; ``_next_rid`` burns a failed insert's rid.

    @contextmanager
    def statement(self, ctx: Optional[ExecutionContext],
                  rows: int) -> Iterator[None]:
        """The undo scope of one write statement that changes ``rows``
        rows. Scopes nest — a multi-row INSERT opens one around its
        ``insert_row`` calls, each of which opens its own — and the
        outermost decides for all of them. On success it advances
        ``modification_counter`` by every row written and records the
        statement on each index's usage counters. On failure it replays
        the log in reverse, with fault injection suspended and nothing
        charged, counts one rollback on ``ctx`` and re-raises."""
        undo = self.undo
        if undo.is_open:
            yield
            undo.rows += rows
            return
        undo.is_open = True
        try:
            yield
        except BaseException as exc:
            faults = self.fault_injector
            with nullcontext() if faults is None else faults.suspended():
                undo.undo()
            if ctx is not None:
                ctx.metrics.rollbacks += 1
                if isinstance(exc, InjectedFault):
                    ctx.metrics.faults_injected += 1
            raise
        rows += undo.rows
        undo.close()
        self.modification_counter += rows
        if rows and ctx is not None:
            # Statement-granular like SQL Server's ``user_updates``: only
            # context-carrying (user) statements count, once each.
            for structure in self.all_indexes:
                structure.usage.record_update()

    def insert_row(self, row: Sequence[object],
                   ctx: Optional[ExecutionContext] = None) -> int:
        """Insert one validated row into the table and all indexes."""
        validated = self.schema.validate_row(row)
        rid = self._next_rid
        self._next_rid += 1
        with self.statement(ctx, 1):
            self.primary.insert(rid, validated, ctx)
            for index in self.secondary_indexes.values():
                trip(self.fault_injector, "table.secondary_apply")
                index.insert(rid, validated, ctx)
        self._log_ops([{
            "op": "insert", "table": self.name, "rid": rid,
            "row": validated,
        }])
        return rid

    def bulk_load(self, rows: Sequence[Sequence[object]]) -> List[int]:
        """Fast path used by workload generators: validates every row,
        then stores them all without charges; call before creating
        indexes. A row that fails validation leaves the table, its rid
        allocation and the log untouched."""
        if self.secondary_indexes or len(self):
            raise StorageError(
                f"bulk_load requires an empty, index-free table; "
                f"{self.name!r} has {len(self)} rows and "
                f"{len(self.secondary_indexes)} secondary indexes"
            )
        validated_rows = list(map(self.schema.validate_row, rows))
        rids = list(range(self._next_rid, self._next_rid + len(validated_rows)))
        self._store_rows(rids, validated_rows)
        self._next_rid += len(rids)
        self.modification_counter += len(rids)
        if rids:
            self._log_ops([{
                "op": "bulk_insert", "table": self.name,
                "rids": rids, "rows": validated_rows,
            }])
        return rids

    def _store_rows(self, rids: List[int], rows: List[Row]) -> None:
        """Add ``rows`` at the ascending ``rids`` to every index,
        uncharged and uncounted: an empty heap with no secondary index is
        built in one columnar pass, anything else takes the rows one at
        a time in one undo scope."""
        primary = self.primary
        if (isinstance(primary, HeapFile) and not len(primary)
                and not self.secondary_indexes):
            primary.load(rids, rows)
            return
        with self.statement(None, 0):
            for rid, row in zip(rids, rows):
                for index in self.all_indexes:
                    index.insert(rid, row)

    def delete_rid(self, rid: int, ctx: Optional[ExecutionContext] = None) -> Row:
        """Delete one row by RID through every index; returns the row."""
        row = self.get_row(rid)
        self.delete_rids([rid], ctx)
        return row

    def delete_rids(self, rids: Sequence[int],
                    ctx: Optional[ExecutionContext] = None) -> int:
        """Batch delete: lets columnstores amortise their per-statement
        row-group locator scans."""
        rows = dict(zip(rids, self.get_rows(rids)))
        with self.statement(ctx, len(rows)):
            for structure in self.all_indexes:
                if structure is not self.primary:
                    trip(self.fault_injector, "table.secondary_apply")
                if isinstance(structure, ColumnstoreIndex):
                    structure.delete_many(list(rows), ctx)
                else:
                    for rid, row in rows.items():
                        structure.delete(rid, row, ctx)
        if rows:
            self._log_ops([{
                "op": "delete", "table": self.name, "rids": list(rows),
            }])
        return len(rows)

    def update_rid(self, rid: int, new_row: Sequence[object],
                   ctx: Optional[ExecutionContext] = None) -> None:
        """Replace one row by RID through every index."""
        self.update_rids([(rid, new_row)], ctx)

    def update_rids(
        self,
        updates: Sequence[Tuple[int, Sequence[object]]],
        ctx: Optional[ExecutionContext] = None,
    ) -> int:
        """Batch update, amortising columnstore locator scans per statement.

        Duplicate rids in ``updates`` collapse last-write-wins: each rid is
        applied to every index exactly once, with its final value (applying
        the same rid twice per statement would double-charge maintenance
        and corrupt delete buffers)."""
        final: Dict[int, Row] = {}
        for rid, new_row in updates:
            final[rid] = self.schema.validate_row(new_row)
        triples = list(zip(final, self.get_rows(list(final)),
                           final.values()))
        with self.statement(ctx, len(triples)):
            for structure in self.all_indexes:
                if structure is not self.primary:
                    trip(self.fault_injector, "table.secondary_apply")
                if isinstance(structure, ColumnstoreIndex):
                    structure.update_many(triples, ctx)
                else:
                    for rid, old_row, new_row in triples:
                        structure.update(rid, old_row, new_row, ctx)
        if triples:
            self._log_ops([{
                "op": "update", "table": self.name,
                "updates": [(rid, new_row)
                            for rid, _, new_row in triples],
            }])
        return len(triples)

    def fetch_columns(self, rid: int, ordinals: Sequence[int],
                      ctx: Optional[ExecutionContext] = None) -> Row:
        """RID lookup into the primary structure (the bookmark lookup that
        non-covering secondary indexes pay). One random page read cold."""
        return self.lookup_columns([rid], ordinals, ctx)[0]

    def lookup_columns(self, rids: Sequence[int], ordinals: Sequence[int],
                       ctx: Optional[ExecutionContext] = None) -> List[Row]:
        """``len(rids)`` bookmark lookups, charged one rid at a time as
        :meth:`fetch_columns` charges one, the rows read by
        :meth:`get_rows`."""
        if ctx is not None:
            for _ in rids:
                ctx.charge_random_read(1)
                ctx.charge_serial_cpu(ctx.cost_model.seek_cpu_ms)
                # Bookmark lookups count against the primary structure,
                # as in sys.dm_db_index_usage_stats.
                self.primary.usage.record_lookup()
        return [tuple(row[i] for i in ordinals) for row in self.get_rows(rids)]

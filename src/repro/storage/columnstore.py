"""Columnstore index (CSI): compressed row groups, delta store, delete
buffer / delete bitmap, segment elimination, and the tuple mover.

Follows the SQL Server design described in Section 2 of the paper:

* Data is split into **row groups** (a scaled-down 4K–64K rows here vs SQL
  Server's 100K–1M); each column within a group forms a compressed
  **column segment** with min/max metadata used for **segment
  elimination**.
* **Inserts** land in a B+ tree **delta store**; once the delta store
  reaches the row-group size, the **tuple mover** compresses it into a new
  row group (bulk loads go straight to compressed groups via ``build``).
* **Deletes** differ between the two flavours:

  - a **secondary** CSI has a *delete buffer* (a B+ tree of deleted row
    locators): deleting is a cheap B+ tree insert, but every scan pays an
    anti-semi join between the compressed groups and the buffer;
  - a **primary** CSI has only the *delete bitmap*: deleting must first
    locate the row's physical position, which requires scanning the
    compressed row group — making small deletes expensive (Figure 5) —
    but scans stay fast because positions are masked directly.

* **Updates** are a delete followed by an insert into the delta store.

Every mutation records its physical inverse in the owning table's undo
log (:mod:`repro.storage.undo`): a delta row removed or put back, a
delete-bitmap slot unmasked with its locator, a delete-buffer rid
discarded or put back, an auto tuple move swapped back. A failed
statement so leaves the index exactly as it found it; used on its own,
the index is not all-or-nothing.

Scans yield :class:`~repro.engine.batch.Batch` objects (batch mode).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import StorageError
from repro.core.schema import TableSchema
from repro.engine.batch import Batch, batch_column
from repro.engine.encoded import EncodedColumn
from repro.engine.metrics import ExecutionContext
from repro.storage.btree import BPlusTree, Chunk
from repro.storage.compression import CompressedRowGroup, compress_rowgroup
from repro.storage.faults import FaultInjector, trip
from repro.storage.heap import SCAN_CHUNK_ROWS
from repro.storage.records import Records
from repro.storage.telemetry import IndexUsageStats
from repro.storage.undo import UndoLog

Row = Tuple[object, ...]

#: Default number of rows per compressed row group (scaled down from SQL
#: Server's 100K-1M so scaled tables still get many groups).
DEFAULT_ROWGROUP_SIZE = 32768

RID_COLUMN = "__rid__"


class ObjectIds:
    """One database's columnstore object ids: each index its database
    builds draws the next, so two databases built alike get the same ids
    whatever else the process built. The id keys the index's segment
    frames in a demand-paged database's buffer pool."""

    def __init__(self):
        self._ids = itertools.count(1)

    def allocate(self) -> int:
        """A fresh id."""
        return next(self._ids)

    def ensure_above(self, minimum: int) -> None:
        """Allocate only ids above ``minimum`` from now on. Snapshot
        restore and redo re-create indexes with their persisted ids;
        without this, a later id could collide with a restored one, and
        releasing one index would drop the other's pool frames."""
        self._ids = itertools.count(max(next(self._ids), minimum + 1))


class _RowGroupState:
    """A compressed row group plus its delete mask."""

    __slots__ = ("group", "deleted_mask", "n_deleted", "_rid_order")

    def __init__(self, group: CompressedRowGroup):
        self.group = group
        self.deleted_mask = np.zeros(group.n_rows, dtype=bool)
        self.n_deleted = 0
        #: Argsort of the group's rids, made on the first search (two
        #: concurrent readers may both make it; the copies are equal).
        self._rid_order: Optional[np.ndarray] = None

    def slots_of(self, rids: np.ndarray) -> np.ndarray:
        """The slots of those of ``rids`` this group holds: one binary
        search per rid, where ``np.isin`` would sort or sweep all the
        group's rids on every scan (a group's rids are unique)."""
        if self._rid_order is None:
            self._rid_order = np.argsort(self.group.rids)
        order = self._rid_order
        found = order[np.minimum(
            np.searchsorted(self.group.rids, rids, sorter=order),
            len(order) - 1)]
        return found[self.group.rids[found] == rids]

    @property
    def live_rows(self) -> int:
        """Rows in the group not masked by the delete bitmap."""
        return self.group.n_rows - self.n_deleted


class ColumnstoreIndex:
    """A primary or secondary columnstore index.

    Parameters
    ----------
    name:
        Index name (catalog-unique).
    schema:
        The owning table's schema.
    columns:
        Columns stored in the index. A primary CSI must store every table
        column; a secondary CSI stores any subset of
        columnstore-supported columns.
    is_primary:
        Selects the delete mechanism (bitmap-only vs delete buffer) and
        whether the index is the table's main storage.
    rowgroup_size:
        Rows per compressed row group; also the delta-store compression
        threshold for the tuple mover.
    """

    kind = "csi"

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        columns: Optional[Sequence[str]] = None,
        is_primary: bool = False,
        rowgroup_size: int = DEFAULT_ROWGROUP_SIZE,
        object_id: int = 0,
    ):
        if rowgroup_size < 64:
            raise StorageError("rowgroup_size must be at least 64")
        self.name = name
        self.schema = schema
        self.is_primary = is_primary
        self.rowgroup_size = rowgroup_size
        #: 0 for an index built outside a table (nothing pages it).
        self.object_id = object_id
        #: Fault injector attached by the owning Table (None standalone).
        self.faults: Optional[FaultInjector] = None
        #: The owning Table's undo log (a private, never-opened one
        #: standalone): each write records its inverse there.
        self.undo = UndoLog()
        #: WAL maintenance hook attached by the owning Table when the
        #: database is durable: called with the op kind ("tuple_move",
        #: "rebuild", "reorganize", "compact") at each *explicit*
        #: maintenance commit point. Auto-triggered tuple moves (delta
        #: reaching the rowgroup threshold mid-DML) are deliberately not
        #: logged: they are a deterministic consequence of the logged DML
        #: and replay identically during redo.
        self.wal_notify = None
        #: Cumulative usage counters (dm_db_index_usage_stats), including
        #: the per-index segments_scanned/segments_skipped attribution;
        #: recorded only for context-carrying (user) accesses, never
        #: charged. Survives rebuild/reorganize: those swap the index's
        #: internals, not the index object.
        self.usage = IndexUsageStats()
        #: Demand-paging hooks, set by :meth:`attach_pager` when the
        #: database opened with ``paging=True``: the shared
        #: :class:`~repro.storage.bufferpool.BufferPool` and the pager
        #: that faults this index's segment pages through it. Both stay
        #: None on the default in-memory path; after REBUILD no group
        #: has a loader (rebuilt groups are in memory), so nothing
        #: faults through them.
        self.buffer_pool = None
        self._pager = None
        if columns is None:
            columns = schema.columnstore_columns()
        self.columns = list(columns)
        unsupported = [
            c for c in self.columns
            if not schema.column(c).col_type.columnstore_supported
        ]
        if unsupported:
            raise StorageError(
                f"columns {unsupported} have types unsupported by columnstore"
            )
        if is_primary:
            if set(self.columns) != set(schema.column_names()):
                raise StorageError(
                    "a primary columnstore must contain all table columns"
                )
            # In table order, so that its values at a rid are the row.
            self.columns = schema.column_names()
        self._column_ordinals = schema.ordinals(self.columns)
        self._groups: List[_RowGroupState] = []
        #: rid -> (group index, position) for compressed rows.
        self._rid_location: Dict[int, Tuple[int, int]] = {}
        #: Delta store: rid -> row values (in self.columns order), a heap's
        #: structure: a B+ tree keyed by the bare rid with SCAN_CHUNK_ROWS-row
        #: Records leaves. Its maintenance CPU is charged via the cost model.
        self._delta = BPlusTree(leaf_capacity=SCAN_CHUNK_ROWS)
        #: Secondary CSI only: rids awaiting background compaction into the
        #: delete bitmaps (the "delete buffer" B+ tree).
        self._delete_buffer: Set[int] = set()

    # ------------------------------------------------------------- build
    @classmethod
    def build(
        cls,
        name: str,
        schema: TableSchema,
        rids: np.ndarray,
        values: Records,
        columns: Optional[Sequence[str]] = None,
        is_primary: bool = False,
        rowgroup_size: int = DEFAULT_ROWGROUP_SIZE,
        presorted: bool = False,
        object_id: int = 0,
    ) -> "ColumnstoreIndex":
        """Bulk load: compress the table rows ``values`` at ``rids``
        directly into row groups, in that order (bulk loaded data
        bypasses the delta store, Section 2).

        ``presorted`` preserves the incoming row order inside each row
        group instead of applying the greedy compression sort — used to
        build the "CSI sorted" variant of Figure 2, where data pre-sorted
        on a predicate column yields disjoint per-segment min/max ranges.
        """
        index = cls(
            name, schema, columns=columns, is_primary=is_primary,
            rowgroup_size=rowgroup_size, object_id=object_id,
        )
        for group in index._compress(
                np.asarray(rids, dtype=np.int64),
                [values.column(i) for i in index._column_ordinals],
                rowgroup_size, presorted):
            index._append_group(group)
        return index

    def _compress(self, rids: np.ndarray, columns: Sequence[np.ndarray],
                  size: int, presorted: bool = False
                  ) -> Iterator[CompressedRowGroup]:
        """The one way rows become row groups: lossless ``columns`` (in
        ``self.columns`` order) at ``rids``, cut every ``size`` rows. Each
        group's column is built from its slice (``batch_column``): with
        its own dtype, so a NULL makes one group's column an object array,
        not every one's, and as a copy, so no segment pins the whole."""
        for start in range(0, len(rids), size):
            stop = start + size
            yield compress_rowgroup(
                self.schema,
                {name: batch_column([column[start:stop]])
                 for name, column in zip(self.columns, columns)},
                rids[start:stop].copy(), presorted=presorted)

    @staticmethod
    def _register_group(
        groups: List["_RowGroupState"],
        locations: Dict[int, Tuple[int, int]],
        group: CompressedRowGroup,
    ) -> None:
        """Append ``group`` to ``groups`` and record its rid locators in
        ``locations`` (which may be staging state built off to the side)."""
        group_index = len(groups)
        groups.append(_RowGroupState(group))
        for pos, rid in enumerate(group.rids.tolist()):
            locations[rid] = (group_index, pos)

    def _append_group(self, group: CompressedRowGroup) -> None:
        self._register_group(self._groups, self._rid_location, group)

    # ----------------------------------------------------------- restore
    #
    # The snapshot loader's way in: nothing outside this module writes
    # the index's underscore fields.

    def restore_group(self, group: CompressedRowGroup,
                      deleted_mask: np.ndarray, n_deleted: int) -> None:
        """Append one row group as a snapshot recorded it, delete bitmap
        included. Masked (bitmap-deleted) slots keep no locator — that
        is the checker invariant."""
        self._append_group(group)
        state = self._groups[-1]
        state.deleted_mask = deleted_mask
        state.n_deleted = n_deleted
        for pos in np.flatnonzero(deleted_mask).tolist():
            self._rid_location.pop(int(group.rids[pos]), None)

    def restore_side_state(self, delta_leaves: Iterable[Chunk],
                           delete_buffer: Iterable[int]) -> None:
        """Replace the delta store and the delete buffer with a
        snapshot's; the delta store's leaves are ``delta_leaves``, its
        leaf pages' ``(rids, values)`` chunks, adopted as they are."""
        self._delta = BPlusTree.from_leaves(delta_leaves,
                                            leaf_capacity=SCAN_CHUNK_ROWS)
        self._delete_buffer = set(delete_buffer)

    def attach_pager(self, pager, pool) -> None:
        """Demand-page this index: ``pager`` faults its segment pages
        through ``pool`` (see the hooks' comment in ``__init__``)."""
        self._pager = pager
        self.buffer_pool = pool

    # ------------------------------------------------------------- sizing
    def size_bytes(self) -> int:
        """Approximate on-disk size in bytes."""
        compressed = sum(s.group.size_bytes() for s in self._groups)
        delta = len(self._delta) * self._delta_row_bytes()
        buffer = len(self._delete_buffer) * 16
        return compressed + delta + buffer

    def column_sizes(self) -> Dict[str, int]:
        """Per-column compressed sizes — the quantity DTA's what-if API
        needs for hypothetical CSIs (Section 4.2)."""
        sizes = {col: 0 for col in self.columns}
        for state in self._groups:
            for col in state.group.column_names():
                sizes[col] += state.group.column_meta(col).size_bytes
        delta_per_row = self._delta_row_bytes()
        for col in self.columns:
            share = self.schema.column(col).col_type.byte_width
            total_width = max(1, sum(
                self.schema.column(c).col_type.byte_width for c in self.columns
            ))
            sizes[col] += int(len(self._delta) * delta_per_row * share / total_width)
        return sizes

    def _delta_row_bytes(self) -> int:
        return sum(
            self.schema.column(c).col_type.byte_width for c in self.columns
        ) + 12

    def __len__(self) -> int:
        return self.n_rows

    @property
    def n_rows(self) -> int:
        """Live row count (compressed minus deleted, plus delta).

        Buffered deletes on a secondary CSI mask compressed rows just as
        the delete bitmap does, so they are subtracted as long as the rid
        still points into a compressed group (compaction later moves them
        into the bitmap, which ``live_rows`` already accounts for).
        """
        compressed = sum(s.live_rows for s in self._groups)
        buffered = sum(
            1 for rid in self._delete_buffer if rid in self._rid_location
        )
        return compressed - buffered + len(self._delta)

    @property
    def n_rowgroups(self) -> int:
        """Number of compressed row groups."""
        return len(self._groups)

    @property
    def delta_rows(self) -> int:
        """Rows currently in the delta store."""
        return len(self._delta)

    @property
    def delete_buffer_rows(self) -> int:
        """Rows currently in the delete buffer."""
        return len(self._delete_buffer)

    # ------------------------------------------------------------- reads
    def __contains__(self, rid: int) -> bool:
        return rid in self._delta or (rid in self._rid_location
                                      and rid not in self._delete_buffer)

    def fetch(self, rid: int) -> Row:
        """The live values of ``rid`` (StorageError if none), uncharged:
        from the delta store, or one value per column at the rid's
        compressed slot, each read without decoding its segment."""
        values = self._delta.get(rid)
        if values is not None:
            return values
        if rid not in self._rid_location or rid in self._delete_buffer:
            raise StorageError(f"rid {rid} not in columnstore {self.name!r}")
        group_index, pos = self._rid_location[rid]
        group = self._groups[group_index].group
        return tuple([group.column(name).value_at(pos)
                      for name in self.columns])

    def columns_by_rid(self) -> Tuple[np.ndarray, Records]:
        """Every live rid, ascending, and its values as columns (copied):
        each group's decoded live slots and the delta store's rows, whose
        version supersedes a compressed copy it shadows."""
        delta_rids, delta_values = self._delta_contents()
        hidden = np.concatenate([delta_rids, self._buffered_rids()])
        rid_parts, parts = [delta_rids], [delta_values]
        for state in self._groups:
            live = self._live_mask(state, hidden)
            live = slice(None) if live is None else live
            rid_parts.append(state.group.rids[live])
            parts.append(Records([state.group.column(name).decode()[live]
                                  for name in self.columns],
                                 len(rid_parts[-1])))
        rids = np.concatenate(rid_parts)
        order = np.argsort(rids)
        return rids[order], Records.concat(parts).take(order)

    # ------------------------------------------------------------ mutation
    def _project(self, row: Row) -> Row:
        return tuple(row[i] for i in self._column_ordinals)

    def insert(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Insert into the delta store, a rid-keyed B+ tree."""
        if rid in self._delta or rid in self._rid_location:
            raise StorageError(f"duplicate rid {rid} in columnstore {self.name!r}")
        trip(self.faults, "csi.delta_insert")
        self._delta_insert(rid, self._project(row))
        if ctx is not None:
            cm = ctx.cost_model
            ctx.charge_serial_cpu(cm.btree_update_cpu_ms_per_row + cm.seek_cpu_ms)
            ctx.charge_serial_cpu(cm.log_write_ms_per_row)
        if len(self._delta) >= self.rowgroup_size:
            self.move_tuples(ctx, _auto=True)

    def _delta_insert(self, rid: int, values: Row) -> None:
        """Put one row in the delta store; its undo deletes it from this
        same tree (a later tuple move's undo has reinstated it by then)."""
        delta = self._delta
        delta.insert(rid, values)
        self.undo.record(delta.delete, rid)

    def delete(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Delete one row. See :meth:`delete_many` for the batch path that
        models per-statement row-group scans of primary CSIs."""
        self.delete_many([rid], ctx)

    def delete_many(
        self, rids: Iterable[int], ctx: Optional[ExecutionContext] = None
    ) -> None:
        """Delete a set of rows in one statement.

        Primary CSI: every *affected* row group must be scanned once to
        find physical locators for the delete bitmap (the expensive path
        of Figure 5). Secondary CSI: each rid is a cheap B+ tree insert
        into the delete buffer.
        """
        cm = ctx.cost_model if ctx is not None else None
        affected_groups: Set[int] = set()
        for rid in rids:
            trip(self.faults, "csi.delete")
            group_index = self._apply_delete(rid)
            if group_index is not None:
                affected_groups.add(group_index)
            if cm is not None:
                ctx.charge_serial_cpu(
                    cm.btree_update_cpu_ms_per_row + cm.log_write_ms_per_row
                )
        if self.is_primary and cm is not None:
            # One locator scan per affected row group per statement.
            for group_index in affected_groups:
                group_rows = self._groups[group_index].group.n_rows
                ctx.charge_serial_cpu(group_rows * cm.csi_locate_cpu_ms_per_row)

    def _apply_delete(self, rid: int) -> Optional[int]:
        """Delete one rid: from the delta store, by the delete bitmap of
        its group (whose index is returned) or by the delete buffer."""
        delta = self._delta
        if rid in delta:
            self.undo.record(delta.insert, rid, delta.delete(rid))
            return None
        location = self._rid_location.get(rid)
        if location is None:
            raise StorageError(f"rid {rid} not in columnstore {self.name!r}")
        group_index, pos = location
        if (self._groups[group_index].deleted_mask[pos]
                or rid in self._delete_buffer):
            raise StorageError(f"rid {rid} already deleted")
        if self.is_primary:
            self._mask_slot(rid)
            return group_index
        self._delete_buffer.add(rid)
        self.undo.record(self._delete_buffer.discard, rid)
        return None

    def _mask_slot(self, rid: int) -> None:
        """Set ``rid``'s compressed slot in its group's delete bitmap and
        drop its locator (a bitmap-deleted slot keeps none); its undo
        clears the slot and puts the locator back."""
        group_index, pos = self._rid_location.pop(rid)
        state = self._groups[group_index]
        state.deleted_mask[pos] = True
        state.n_deleted += 1
        self.undo.record(self._unmask_slot, rid, group_index, pos)

    def _unmask_slot(self, rid: int, group_index: int, pos: int) -> None:
        self._rid_location[rid] = (group_index, pos)
        state = self._groups[group_index]
        state.deleted_mask[pos] = False
        state.n_deleted -= 1

    def update(
        self,
        rid: int,
        old_row: Row,
        new_row: Row,
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        """Point update = delete + insert (Section 2)."""
        self.update_many([(rid, old_row, new_row)], ctx)

    def update_many(
        self,
        updates: Sequence[Tuple[int, Row, Row]],
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        """Batch update: one delete batch + the inserts, so primary CSIs
        pay the locator scan once per affected group per statement.

        A deleted compressed rid on a secondary CSI is re-inserted as a
        delta-store *shadow* slot: the buffered delete keeps masking the
        compressed copy while the delta store carries the new version.
        """
        self.delete_many([rid for rid, _, _ in updates], ctx)
        for rid, _, new_row in updates:
            if not self.is_primary and rid in self._delete_buffer:
                trip(self.faults, "csi.delta_insert")
                self._delta_insert(rid, self._project(new_row))
                if ctx is not None:
                    cm = ctx.cost_model
                    ctx.charge_serial_cpu(
                        cm.btree_update_cpu_ms_per_row + cm.seek_cpu_ms
                        + cm.log_write_ms_per_row
                    )
            else:
                self.insert(rid, new_row, ctx)
        if len(self._delta) >= self.rowgroup_size:
            self.move_tuples(ctx, _auto=True)

    # ----------------------------------------------------- background ops
    def release_pages(self) -> None:
        """Drop this index's segment frames from the buffer pool when it
        is demand-paged: after a rebuild (the rebuilt groups live in
        memory) or when the table drops or replaces the index, no scan
        can reach them again. A tuple move or a compaction leaves every
        existing group, and so every frame, valid."""
        if self.buffer_pool is not None:
            self.buffer_pool.evict_object(self.object_id)

    def _fold_buffered_delete(self, rid: int) -> None:
        """Move one buffered delete into the delete bitmap of the
        compressed copy it masks, freeing the rid's locator slot."""
        if rid in self._rid_location:
            self._mask_slot(rid)
        self._delete_buffer.discard(rid)
        self.undo.record(self._delete_buffer.add, rid)

    def move_tuples(self, ctx: Optional[ExecutionContext] = None,
                    _auto: bool = False) -> None:
        """Tuple mover: compress the delta store into a new row group.

        Crash-safe: the new row group is built off to the side and only
        then swapped in — a failure during compression leaves the delta
        store untouched. Under a table's undo log a committed move is
        swapped back if its statement fails.

        Shadow slots — delta rows whose rid also has a buffered-deleted
        compressed copy (a secondary-CSI update of a compressed row) —
        are resolved first by folding the buffered delete into the old
        copy's delete bitmap. Otherwise compressing the shadow would
        leave one rid in two row groups with a single delete-buffer entry
        masking *both*, silently losing the row from scans.
        """
        if not self._delta:
            return
        rids, values = self._delta_contents()
        if not self.is_primary and self._delete_buffer:
            for rid in self._delete_buffer.intersection(rids.tolist()):
                self._fold_buffered_delete(rid)
        trip(self.faults, "csi.move_tuples.compress")
        group, = self._compress(rids, values.live_columns(), len(rids))
        # Commit point: publish the new group and drain the delta store.
        self.undo.record(self._unmove, self._delta)
        self._append_group(group)
        self._delta = BPlusTree(leaf_capacity=SCAN_CHUNK_ROWS)
        if not _auto and self.wal_notify is not None:
            self.wal_notify("tuple_move")
        if ctx is not None:
            cm = ctx.cost_model
            ctx.charge_serial_cpu(len(rids) * cm.csi_compress_cpu_ms_per_row)
            ctx.charge_write(group.size_bytes())

    def _unmove(self, delta: BPlusTree) -> None:
        """Undo of a tuple move: drop the row group it published and take
        back the delta store it drained."""
        for rid in self._groups.pop().group.rids.tolist():
            del self._rid_location[rid]
        self._delta = delta

    def rebuild(self, ctx: Optional[ExecutionContext] = None) -> None:
        """ALTER INDEX ... REBUILD: re-compress everything.

        Drains the delta store, drops deleted rows for good, folds the
        delete buffer away, and re-partitions the surviving rows into
        fresh full row groups. After heavy update activity this restores
        scan performance: no delete-bitmap masking, no anti-semi join,
        and full-size row groups with tight min/max metadata.
        """
        trip(self.faults, "csi.rebuild.compress")
        rids, values = self.columns_by_rid()
        # Build the replacement state entirely off to the side; the old
        # groups stay valid until the swap below.
        new_groups: List[_RowGroupState] = []
        new_locations: Dict[int, Tuple[int, int]] = {}
        for group in self._compress(rids, values.live_columns(),
                                    self.rowgroup_size):
            self._register_group(new_groups, new_locations, group)
        # Commit point: atomically swap in the rebuilt state.
        self._groups = new_groups
        self._rid_location = new_locations
        self._delta = BPlusTree(leaf_capacity=SCAN_CHUNK_ROWS)
        self._delete_buffer = set()
        self.release_pages()
        if self.wal_notify is not None:
            self.wal_notify("rebuild")
        if ctx is not None:
            cm = ctx.cost_model
            ctx.charge_serial_cpu(
                len(rids) * cm.csi_compress_cpu_ms_per_row)
            ctx.charge_write(sum(s.group.size_bytes()
                                 for s in self._groups))

    def reorganize(self, ctx: Optional[ExecutionContext] = None) -> None:
        """ALTER INDEX ... REORGANIZE: the lightweight maintenance pass —
        run the tuple mover and compact the delete buffer, without
        rewriting compressed row groups."""
        self.move_tuples(ctx, _auto=True)
        self.compact_delete_buffer(ctx, _auto=True)
        if self.wal_notify is not None:
            self.wal_notify("reorganize")

    @property
    def fragmentation(self) -> float:
        """Fraction of compressed slots wasted on deleted/buffered rows —
        the signal that a REBUILD is due."""
        total = sum(s.group.n_rows for s in self._groups)
        if total == 0:
            return 0.0
        dead = sum(s.n_deleted for s in self._groups)
        dead += len(self._delete_buffer)
        return dead / total

    def compact_delete_buffer(self, ctx: Optional[ExecutionContext] = None,
                              _auto: bool = False) -> None:
        """Background compaction: fold the delete buffer into the delete
        bitmaps so scans no longer pay the anti-semi join (Section 2).

        A no-op on an empty buffer costs nothing; otherwise the CPU
        charge is proportional to the number of rids folded. Crash-safe:
        the fold plan is computed first and applied in one step, so a
        failure before the commit point changes nothing.
        """
        if not self._delete_buffer:
            return
        trip(self.faults, "csi.compact_delete_buffer")
        folded = list(self._delete_buffer)
        # Commit point: apply every fold in one uninterruptible pass.
        for rid in folded:
            self._fold_buffered_delete(rid)
        if not _auto and self.wal_notify is not None:
            self.wal_notify("compact")
        if ctx is not None:
            ctx.charge_serial_cpu(
                len(folded) * ctx.cost_model.btree_update_cpu_ms_per_row)

    # ------------------------------------------------------------- scans
    def scan(
        self,
        columns: Sequence[str],
        ctx: Optional[ExecutionContext] = None,
        elimination_ranges: Optional[Dict[str, Tuple[object, object]]] = None,
        include_rids: bool = False,
    ) -> Iterator[Batch]:
        """Scan the index in batch mode.

        Parameters
        ----------
        columns:
            Columns to materialize (only their segments are read — the
            reason per-column sizes matter for costing, Section 4.2).
        elimination_ranges:
            Optional map column -> (low, high) used for segment
            elimination via min/max metadata; ``None`` bounds are open.
            Elimination is a *may-contain* filter: callers still apply
            exact predicates to the returned batches.
        include_rids:
            Adds the ``__rid__`` column to each batch.

        The delta-store batch (its leaves' column slices, in rid order)
        comes last.
        """
        for name in columns:
            if name not in self.columns:
                raise StorageError(
                    f"columnstore {self.name!r} does not contain {name!r}"
                )
        needed = list(columns)
        if ctx is not None:
            self.usage.record_scan()
        buffered = self._buffered_rids()
        for group_index, state in enumerate(self._groups):
            group = state.group
            if elimination_ranges and self._eliminated(group, elimination_ranges):
                if ctx is not None:
                    ctx.count("segments_skipped")
                    self.usage.add_segment_counts(0, 1)
                continue
            if ctx is not None:
                ctx.count("segments_read")
                self.usage.add_segment_counts(1, 0)
            data = {}
            read_bytes = 0
            #: Pool frames pinned for this group's batch; released after
            #: the batch is yielded (or the generator is closed, or a
            #: later segment fails to load), so LRU eviction cannot drop
            #: a segment page mid-read and no failed scan leaves a pin.
            pinned_keys = []
            try:
                for name in needed:
                    if self._pager is not None and group.loader is not None:
                        segment, key = self._pager.load(
                            group_index, name, pin=True)
                        pinned_keys.append(key)
                    else:
                        segment = group.column(name)
                    code_space = segment.code_space()
                    if code_space is not None:
                        # Late materialization: hand the consumer the
                        # int32 codes plus the shared dictionary instead
                        # of decoding now. Dictionary segments serve
                        # their stored codes; numeric RLE / bit-packed
                        # segments serve the code space derived from
                        # their compressed representation (run values,
                        # frame-of-reference offsets). Modeled costs
                        # (segment read + decode CPU below) are charged
                        # exactly as for the decoded path — only real
                        # wall-clock changes.
                        data[name] = EncodedColumn(*code_space)
                        if ctx is not None:
                            ctx.count("columns_late_materialized")
                    else:
                        data[name] = segment.decode()
                    read_bytes += segment.size_bytes
                if ctx is not None and needed:
                    ctx.charge_seq_read(read_bytes)
                    ctx.record_data_read(read_bytes)
                    ctx.charge_serial_cpu(
                        len(needed) * ctx.cost_model.segment_decode_cpu_ms)
                if include_rids:
                    data[RID_COLUMN] = group.rids
                batch = Batch(data)
                if ctx is not None and not self.is_primary and self._delete_buffer:
                    # Anti-semi join between the row group and the delete
                    # buffer (Section 2's scan overhead of secondary CSIs).
                    ctx.charge_serial_cpu(
                        group.n_rows * ctx.cost_model.batch_cpu_ms_per_row
                    )
                mask = self._live_mask(state, buffered)
                if mask is not None:
                    batch = batch.filter(mask)
                if len(batch) > 0:
                    yield batch
            finally:
                # Runs on normal advance and on generator close/abandon
                # (LIMIT-style early exit), so pins never outlive the
                # consumer's hold on this group's batch.
                for key in pinned_keys:
                    self.buffer_pool.unpin(key)
        delta_batch = self._delta_batch(needed, include_rids)
        if delta_batch is not None:
            if ctx is not None:
                # Delta rows are read through the B+ tree delta store.
                ctx.charge_serial_cpu(
                    len(delta_batch) * ctx.cost_model.row_cpu_ms_per_row
                )
                delta_bytes = len(delta_batch) * self._delta_row_bytes()
                ctx.charge_btree_scan_read(delta_bytes)
                ctx.record_data_read(delta_bytes)
            yield delta_batch

    def _eliminated(
        self,
        group: CompressedRowGroup,
        ranges: Dict[str, Tuple[object, object]],
    ) -> bool:
        for column, (low, high) in ranges.items():
            # column_meta serves min/max from the resident segment or,
            # for demand-paged groups, from the eagerly loaded
            # SegmentMeta — elimination never faults a segment page in.
            meta = group.column_meta(column)
            if meta is not None and not meta.overlaps(low, high):
                return True
        return False

    def _buffered_rids(self) -> np.ndarray:
        """The delete buffer as an array (empty on a primary CSI)."""
        buffer = () if self.is_primary else self._delete_buffer
        return np.fromiter(buffer, dtype=np.int64, count=len(buffer))

    @staticmethod
    def _live_mask(state: _RowGroupState,
                   hidden: np.ndarray) -> Optional[np.ndarray]:
        """Delete bitmap combined with the rids in ``hidden`` (the delete
        buffer; REBUILD adds the delta's); None if all live."""
        mask = ~state.deleted_mask if state.n_deleted else None
        if len(hidden):
            slots = state.slots_of(hidden)
            if len(slots):
                if mask is None:
                    mask = np.ones(state.group.n_rows, dtype=bool)
                mask[slots] = False
        return mask

    def _delta_contents(self) -> Tuple[np.ndarray, Records]:
        """The delta store's rids and rows in rid order (copied)."""
        chunks = list(self._delta.leaf_chunks())
        return (self._delta_rids(chunks),
                Records.concat([values for _, values in chunks]))

    def _delta_rids(self, chunks) -> np.ndarray:
        """The rids of ``chunks``, every leaf of the delta store."""
        return np.fromiter((rid for rids, _ in chunks for rid in rids),
                           dtype=np.int64, count=len(self._delta))

    def _delta_batch(
        self, columns: Sequence[str], include_rids: bool
    ) -> Optional[Batch]:
        """The delta store's rows as one batch, read from its leaves'
        column slices in rid order."""
        if not self._delta:
            return None
        chunks = list(self._delta.leaf_chunks())
        data = {
            col: batch_column([values.column(self.columns.index(col))
                               for _, values in chunks])
            for col in columns
        }
        if include_rids:
            data[RID_COLUMN] = self._delta_rids(chunks)
        return Batch(data)

    # ------------------------------------------------------------ helpers
    def segment_ranges(self, column: str) -> List[Tuple[object, object]]:
        """(min, max) per row group for ``column`` — used in tests and by
        the sorted-CSI experiments to verify disjointness."""
        return [
            (s.group.column(column).min_value, s.group.column(column).max_value)
            for s in self._groups
        ]

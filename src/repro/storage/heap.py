"""Heap file: the unordered row store used when a table has no clustered
index. Also serves as the RID-addressable backing store for secondary
index lookups.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.core.schema import TableSchema
from repro.engine.metrics import ExecutionContext
from repro.storage.faults import FaultInjector, trip
from repro.storage.telemetry import IndexUsageStats

Row = Tuple[object, ...]

#: Rows per chunk handed out by :meth:`HeapFile.scan`.
SCAN_CHUNK_ROWS = 4096


class HeapFile:
    """An append-mostly unordered collection of rows keyed by RID."""

    kind = "heap"
    is_primary = True

    def __init__(self, name: str, schema: TableSchema, object_id: int = 0):
        self.name = name
        self.schema = schema
        self.object_id = object_id
        self._rows: Dict[int, Row] = {}
        #: Whether ``_rows`` iterates in RID order (rids normally only
        #: grow); cleared by an insert below ``_max_rid``, after which
        #: scans sort.
        self._rid_ordered = True
        self._max_rid = -1
        #: Fault injector attached by the owning Table (None standalone).
        self.faults: Optional[FaultInjector] = None
        #: Cumulative usage counters (dm_db_index_usage_stats); recorded
        #: only for context-carrying (user) accesses, never charged.
        self.usage = IndexUsageStats()

    def __len__(self) -> int:
        return len(self._rows)

    def size_bytes(self) -> int:
        # Heap pages hold rows with ~4% free-space/fragmentation overhead.
        """Approximate on-disk size in bytes."""
        return int(len(self._rows) * self.schema.row_byte_width * 1.04) + 8192

    def insert(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Insert one row, charging maintenance costs to ``ctx``."""
        if rid in self._rows:
            raise StorageError(f"duplicate rid {rid} in heap {self.name!r}")
        trip(self.faults, "heap.insert")
        self._store(rid, row)
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.log_write_ms_per_row)

    def _store(self, rid: int, row: Row) -> None:
        self._rows[rid] = row
        if rid < self._max_rid:
            self._rid_ordered = False
        else:
            self._max_rid = rid

    def restore_rows(self, rows_with_rids: Iterable[Tuple[int, Row]]) -> None:
        """Snapshot restore: take the table's (rid, row) pairs as this
        heap's content. A load is not a statement — no fault point, no
        charge — but it keeps the same rid bookkeeping as ``insert``."""
        for rid, row in rows_with_rids:
            self._store(rid, row)

    def delete(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Delete one row, charging maintenance costs to ``ctx``."""
        if rid not in self._rows:
            raise StorageError(f"rid {rid} not in heap {self.name!r}")
        trip(self.faults, "heap.delete")
        del self._rows[rid]
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.log_write_ms_per_row)

    def update(
        self,
        rid: int,
        old_row: Row,
        new_row: Row,
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        """Update one row in place (delete+insert when keys change)."""
        if rid not in self._rows:
            raise StorageError(f"rid {rid} not in heap {self.name!r}")
        trip(self.faults, "heap.update")
        self._rows[rid] = new_row
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.log_write_ms_per_row)

    def fetch(self, rid: int, ctx: Optional[ExecutionContext] = None) -> Row:
        """RID lookup: one random page access on cold runs."""
        try:
            row = self._rows[rid]
        except KeyError:
            raise StorageError(f"rid {rid} not in heap {self.name!r}") from None
        if ctx is not None:
            ctx.charge_random_read(1)
            self.usage.record_lookup()
        return row

    def scan(self, ctx: Optional[ExecutionContext] = None
             ) -> Iterator[Tuple[List[int], List[Row]]]:
        """Full scan in RID order as (rids, rows) chunks — the B+ leaf
        chunk protocol (:func:`repro.storage.btree.iter_entries` flattens
        them); charges sequential-ish heap I/O."""
        if ctx is not None:
            nbytes = len(self._rows) * self.schema.row_byte_width
            ctx.charge_btree_scan_read(nbytes)
            ctx.record_data_read(nbytes)
            self.usage.record_scan()
        if self._rid_ordered:
            rids, rows = list(self._rows), list(self._rows.values())
        else:
            rids = sorted(self._rows)
            rows = list(map(self._rows.__getitem__, rids))
        for start in range(0, len(rids), SCAN_CHUNK_ROWS):
            stop = start + SCAN_CHUNK_ROWS
            yield rids[start:stop], rows[start:stop]

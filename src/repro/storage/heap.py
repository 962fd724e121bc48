"""Heap file: the unordered row store used when a table has no clustered
index. Also serves as the RID-addressable backing store for secondary
index lookups.

A heap is pages of RID-addressed rows in no other order. Its pages are
the leaves of a :class:`~repro.storage.btree.BPlusTree` keyed by the rid
alone (a plain ``int``), at most :data:`SCAN_CHUNK_ROWS` rows a leaf:
each leaf holds its rids as a list and its rows as one
:class:`~repro.storage.records.Records`, so a heap chunk is the same
``(keys, values)`` pair a clustered leaf hands out and a scan reads
column slices. The tree only addresses rows: what a heap access is
charged stays a heap's (one random read per fetch, the table's bytes
per scan), never a traversal.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import StorageError
from repro.core.schema import TableSchema
from repro.engine.metrics import ExecutionContext
from repro.storage.btree import BPlusTree
from repro.storage.faults import FaultInjector, trip
from repro.storage.records import Records
from repro.storage.telemetry import IndexUsageStats
from repro.storage.undo import UndoLog

Row = Tuple[object, ...]

#: Rows per heap leaf, and so at most per chunk of :meth:`HeapFile.scan`.
SCAN_CHUNK_ROWS = 4096


class HeapFile:
    """An append-mostly unordered collection of rows keyed by RID."""

    kind = "heap"
    is_primary = True

    def __init__(self, name: str, schema: TableSchema, object_id: int = 0):
        self.name = name
        self.schema = schema
        self.object_id = object_id
        #: rid -> row, in leaves of typed columns (see the module docstring).
        self.tree = BPlusTree(leaf_capacity=SCAN_CHUNK_ROWS)
        #: Fault injector attached by the owning Table (None standalone).
        self.faults: Optional[FaultInjector] = None
        #: The owning Table's undo log (a private, never-opened one
        #: standalone): each write records its inverse there.
        self.undo = UndoLog()
        #: Cumulative usage counters (dm_db_index_usage_stats); recorded
        #: only for context-carrying (user) accesses, never charged.
        self.usage = IndexUsageStats()

    def __len__(self) -> int:
        return len(self.tree)

    def size_bytes(self) -> int:
        # Heap pages hold rows with ~4% free-space/fragmentation overhead.
        """Approximate on-disk size in bytes."""
        return int(len(self.tree) * self.schema.row_byte_width * 1.04) + 8192

    def __contains__(self, rid: int) -> bool:
        return rid in self.tree

    def load(self, rids: List[int], values: Sequence[Row]) -> None:
        """Bulk build: the rows ``values`` (a :class:`Records`, or row
        tuples, pivoted once) at the ascending ``rids`` become the
        content of this empty heap. A load is not a statement (table bulk
        load, a primary conversion, redo): the rows are not checked, no
        fault point is hit, nothing is charged."""
        if len(self.tree):
            raise StorageError(f"bulk load into non-empty heap {self.name!r}")
        if not isinstance(values, Records):
            values = Records.from_rows(values)
        self.tree = BPlusTree.from_columns(
            rids, values, leaf_capacity=SCAN_CHUNK_ROWS)

    def columns_by_rid(self) -> Tuple[np.ndarray, Records]:
        """Every rid, ascending, and the rows at them as columns (copied):
        the leaves in order, uncharged."""
        chunks = list(self.tree.leaf_chunks())
        rids = np.fromiter((rid for keys, _ in chunks for rid in keys),
                           np.int64, len(self.tree))
        return rids, Records.concat([values for _, values in chunks])

    def _check_live(self, rid: int) -> None:
        if rid not in self.tree:
            raise StorageError(f"rid {rid} not in heap {self.name!r}")

    def insert(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Insert one row, charging maintenance costs to ``ctx``."""
        if rid in self.tree:
            raise StorageError(f"duplicate rid {rid} in heap {self.name!r}")
        trip(self.faults, "heap.insert")
        self.tree.insert(rid, row)
        self.undo.record(self.tree.delete, rid)
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.log_write_ms_per_row)

    def delete(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Delete one row, charging maintenance costs to ``ctx``."""
        self._check_live(rid)
        trip(self.faults, "heap.delete")
        self.undo.record(self.tree.insert, rid, self.tree.delete(rid))
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.log_write_ms_per_row)

    def update(
        self,
        rid: int,
        old_row: Row,
        new_row: Row,
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        """Update one row in place."""
        stored = self.tree.get(rid)
        if stored is None:
            raise StorageError(f"rid {rid} not in heap {self.name!r}")
        trip(self.faults, "heap.update")
        self.tree.replace(rid, new_row)
        self.undo.record(self.tree.replace, rid, stored)
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.log_write_ms_per_row)

    def fetch(self, rid: int, ctx: Optional[ExecutionContext] = None) -> Row:
        """RID lookup: one random page access on cold runs."""
        row = self.tree.get(rid)
        if row is None:
            raise StorageError(f"rid {rid} not in heap {self.name!r}")
        if ctx is not None:
            ctx.charge_random_read(1)
            self.usage.record_lookup()
        return row

    def scan(self, ctx: Optional[ExecutionContext] = None
             ) -> Iterator[Tuple[List[int], Records]]:
        """Full scan in RID order as (rids, records) chunks, one per
        leaf — the B+ leaf chunk protocol, borrowed alike
        (:func:`repro.storage.btree.iter_entries` flattens them);
        charges sequential-ish heap I/O."""
        if ctx is not None:
            nbytes = len(self.tree) * self.schema.row_byte_width
            ctx.charge_btree_scan_read(nbytes)
            ctx.record_data_read(nbytes)
            self.usage.record_scan()
        yield from self.tree.leaf_chunks()

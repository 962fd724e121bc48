"""Catalog: descriptor views of the physical design plus statistics cache.

The catalog is the optimizer's window onto the database. It turns the
physical structures on each table into :class:`IndexDescriptor` metadata,
caches :class:`TableStats`, and merges in hypothetical descriptors when a
what-if session is active.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.errors import CatalogError
from repro.optimizer.plans import (
    KIND_BTREE,
    KIND_CSI,
    KIND_HEAP,
    IndexDescriptor,
)
from repro.optimizer.statistics import TableStats, build_table_stats
from repro.storage.btree import PrimaryBTreeIndex, SecondaryBTreeIndex
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from repro.storage.table import Table


def describe_physical_index(table: Table, index) -> IndexDescriptor:
    """Build a descriptor for a materialized structure."""
    if isinstance(index, HeapFile):
        return IndexDescriptor(
            name=index.name, table_name=table.name, kind=KIND_HEAP,
            is_primary=True, size_bytes=index.size_bytes(), physical=index,
        )
    if isinstance(index, PrimaryBTreeIndex):
        return IndexDescriptor(
            name=index.name, table_name=table.name, kind=KIND_BTREE,
            is_primary=True, key_columns=list(index.key_columns),
            size_bytes=index.size_bytes(), physical=index,
        )
    if isinstance(index, SecondaryBTreeIndex):
        return IndexDescriptor(
            name=index.name, table_name=table.name, kind=KIND_BTREE,
            is_primary=False, key_columns=list(index.key_columns),
            included_columns=list(index.included_columns),
            size_bytes=index.size_bytes(), physical=index,
        )
    if isinstance(index, ColumnstoreIndex):
        sorted_on = _detect_sorted_column(index)
        return IndexDescriptor(
            name=index.name, table_name=table.name, kind=KIND_CSI,
            is_primary=index.is_primary, csi_columns=list(index.columns),
            size_bytes=index.size_bytes(), column_sizes=index.column_sizes(),
            sorted_on=sorted_on, physical=index,
        )
    raise CatalogError(f"unknown index type {type(index).__name__}")


def _detect_sorted_column(index: ColumnstoreIndex) -> Optional[str]:
    """Detect a column whose per-segment [min, max] ranges are disjoint
    and increasing — the data-skipping property of a sorted build."""
    if index.n_rowgroups < 2:
        return None
    for column in index.columns:
        ranges = index.segment_ranges(column)
        if any(lo is None for lo, _ in ranges):
            continue
        disjoint = all(
            ranges[i][1] <= ranges[i + 1][0]
            for i in range(len(ranges) - 1)
        )
        if disjoint:
            return column
    return None


class Catalog:
    """Metadata and statistics provider for one database."""

    def __init__(self, database: Database,
                 stats_sample_rows: Optional[int] = 50_000):
        self.database = database
        self.stats_sample_rows = stats_sample_rows
        self._stats: Dict[str, TableStats] = {}
        #: modification counter observed when each table's stats built.
        self._stats_built_at: Dict[str, int] = {}
        self._design_cache: Dict[str, List[IndexDescriptor]] = {}

    # --------------------------------------------------------------- stats
    def stats(self, table_name: str) -> TableStats:
        """Aggregates for one statement text, or None if never seen."""
        table = self.database.table(table_name)
        if table_name in self._stats and self._stale(table, table_name):
            # Auto-update statistics: enough rows changed since the last
            # build that estimates would drift (SQL Server refreshes
            # after ~20% of rows are modified).
            del self._stats[table_name]
        if table_name not in self._stats:
            self._stats[table_name] = build_table_stats(
                table, sample_rows=self.stats_sample_rows)
            self._stats_built_at[table_name] = table.modification_counter
        return self._stats[table_name]

    def _stale(self, table: Table, table_name: str) -> bool:
        built_at = self._stats_built_at.get(table_name, 0)
        changed = table.modification_counter - built_at
        threshold = max(500, int(0.2 * max(1, table.row_count)))
        return changed > threshold

    def invalidate(self, table_name: Optional[str] = None) -> None:
        """Drop cached stats/design after DML or physical design changes."""
        if table_name is None:
            self._stats.clear()
            self._design_cache.clear()
        else:
            self._stats.pop(table_name, None)
            self._design_cache.pop(table_name, None)

    # -------------------------------------------------------------- design
    def indexes_for(self, table_name: str) -> List[IndexDescriptor]:
        """Descriptors for the table's current materialized design."""
        if table_name not in self._design_cache:
            table = self.database.table(table_name)
            self._design_cache[table_name] = [
                describe_physical_index(table, index)
                for index in table.all_indexes
            ]
        return self._design_cache[table_name]

    def column_bytes(self, table_name: str) -> Dict[str, int]:
        """Per-column on-disk widths for one table."""
        table = self.database.table(table_name)
        return {
            c.name: c.col_type.byte_width for c in table.schema.columns
        }

    def row_bytes(self, table_name: str) -> int:
        """Uncompressed row width of one table."""
        return self.database.table(table_name).schema.row_byte_width

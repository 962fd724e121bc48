"""Tests for maintenance operations: columnstore REBUILD/REORGANIZE,
fragmentation tracking, and automatic statistics refresh."""

import numpy as np
import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import INT
from repro.engine.batch import batch_to_rows, concat_batches
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionContext
from repro.optimizer.catalog import Catalog
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.records import Records


def by_rid(rows):
    """(rid, row) pairs as the rids and records an index build reads."""
    return (np.array([rid for rid, _ in rows], np.int64),
            Records.from_rows([row for _, row in rows]))


def schema():
    return TableSchema("t", [Column("a", INT, nullable=False),
                             Column("b", INT)])


def build_csi(n=4000, rowgroup=512, is_primary=True):
    rows = [(i, (i, i % 7)) for i in range(n)]
    return ColumnstoreIndex.build("csi", schema(), *by_rid(rows),
                                  is_primary=is_primary,
                                  rowgroup_size=rowgroup)


def scan_values(index):
    merged = concat_batches(index.scan(["a"]))
    return sorted(merged.column("a").tolist())


class TestRebuild:
    def test_rebuild_drops_deleted_rows(self):
        index = build_csi()
        index.delete_many(range(100))
        assert index.fragmentation > 0
        index.rebuild()
        assert index.fragmentation == 0.0
        assert index.n_rows == 3900
        assert scan_values(index) == list(range(100, 4000))

    def test_rebuild_drains_delta_store(self):
        index = build_csi(n=1000, rowgroup=512)
        for i in range(50):
            index.insert(10_000 + i, (10_000 + i, 0))
        assert index.delta_rows > 0
        index.rebuild()
        assert index.delta_rows == 0
        assert index.n_rows == 1050

    def test_rebuild_folds_delete_buffer(self):
        index = build_csi(is_primary=False)
        index.delete_many(range(10))
        assert index.delete_buffer_rows == 10
        index.rebuild()
        assert index.delete_buffer_rows == 0
        assert index.n_rows == 3990

    def test_rebuild_refills_rowgroups(self):
        index = build_csi(n=4096, rowgroup=512)
        # Delete half the rows: groups become half-empty.
        index.delete_many(range(0, 4096, 2))
        groups_before = index.n_rowgroups
        index.rebuild()
        assert index.n_rowgroups < groups_before
        assert index.n_rows == 2048

    def test_rebuild_charges_compression_cost(self):
        index = build_csi(n=2000)
        ctx = ExecutionContext()
        index.rebuild(ctx)
        assert ctx.metrics.cpu_ms > 0
        assert ctx.metrics.data_written_mb > 0

    def test_rebuild_preserves_update_roundtrip(self):
        index = build_csi(n=1000, rowgroup=256)
        index.update(5, (5, 5), (5, 999))
        index.rebuild()
        merged = concat_batches(index.scan(["a", "b"]))
        rows = dict(zip(merged.column("a").tolist(),
                        merged.column("b").tolist()))
        assert rows[5] == 999

    def test_scan_cheaper_after_rebuild_of_dirty_secondary(self):
        index = build_csi(is_primary=False)
        index.delete_many(range(500))
        ctx_dirty = ExecutionContext()
        list(index.scan(["a"], ctx_dirty))
        index.rebuild()
        ctx_clean = ExecutionContext()
        list(index.scan(["a"], ctx_clean))
        # No anti-semi join and fewer live rows after the rebuild.
        assert ctx_clean.metrics.cpu_ms < ctx_dirty.metrics.cpu_ms


def mixed_null_db(is_primary):
    """``b`` NULL-free in row group 0 and NULL in every third row of
    group 1 (row groups of 64), with rows 60-65 deleted: a REBUILD cuts
    its first new group across a typed and an object segment."""
    db = Database()
    table = db.create_table(schema())
    table.bulk_load([(i, None if i >= 64 and i % 3 == 0 else i % 5)
                     for i in range(128)])
    if is_primary:
        table.set_primary_columnstore(rowgroup_size=64)
    else:
        table.create_secondary_columnstore("csi", rowgroup_size=64)
    executor = Executor(db)
    executor.execute("DELETE FROM t WHERE a >= 60 AND a < 66")
    table.columnstore_index().rebuild()
    return db


def assert_python_values(rows):
    kinds = {type(value) for row in rows for value in row}
    assert kinds <= {int, float, str, type(None)}, kinds


class TestRebuildStoresPythonValues:
    """A rebuilt group mixing a typed segment with a NULL-bearing one
    holds Python values, as a bulk load or the tuple mover stores them
    (it used to hold numpy scalars, which reached result rows)."""

    @pytest.mark.parametrize("is_primary", [True, False])
    def test_select_returns_python_values(self, is_primary):
        db = mixed_null_db(is_primary)
        rows = Executor(db).execute("SELECT a, b FROM t").rows
        assert len(rows) == 122
        assert_python_values(rows)
        assert sorted(rows) == [
            (i, None if i >= 64 and i % 3 == 0 else i % 5)
            for i in range(128) if not 60 <= i < 66]
        index = db.table("t").columnstore_index()
        assert_python_values(batch_to_rows(concat_batches(
            index.scan(["a", "b"]))))


class TestReorganize:
    def test_reorganize_moves_delta_and_compacts_buffer(self):
        index = build_csi(n=1000, rowgroup=512, is_primary=False)
        for i in range(20):
            index.insert(5_000 + i, (5_000 + i, 1))
        index.delete_many(range(5))
        index.reorganize()
        assert index.delta_rows == 0
        assert index.delete_buffer_rows == 0
        assert index.n_rows == 1015

    def test_reorganize_keeps_dead_slots(self):
        # REORGANIZE does not rewrite compressed groups; fragmentation
        # from bitmap deletes remains until REBUILD.
        index = build_csi(n=1000, rowgroup=512, is_primary=True)
        index.delete_many(range(100))
        index.reorganize()
        assert index.fragmentation > 0


class TestAutoStatsRefresh:
    def make(self):
        db = Database()
        table = db.create_table(schema())
        table.bulk_load([(i, i % 5) for i in range(2000)])
        table.set_primary_btree(["a"])
        return db, table

    def test_counter_tracks_dml(self):
        db, table = self.make()
        executor = Executor(db)
        base = table.modification_counter
        executor.execute("INSERT INTO t VALUES (99999, 1)")
        executor.execute("UPDATE TOP (5) t SET b = 9 WHERE a < 100")
        executor.execute("DELETE FROM t WHERE a = 3")
        assert table.modification_counter == base + 7

    def test_stats_refresh_after_churn(self):
        db, table = self.make()
        catalog = Catalog(db)
        before = catalog.stats("t")
        # Modify more than the staleness threshold (max(500, 20%)).
        executor = Executor(db, catalog=catalog)
        executor.execute("UPDATE t SET b = b + 1 WHERE a >= 0")
        after = catalog.stats("t")
        assert after is not before

    def test_stats_stable_under_light_churn(self):
        db, table = self.make()
        catalog = Catalog(db)
        before = catalog.stats("t")
        executor = Executor(db, catalog=catalog)
        executor.execute("UPDATE TOP (10) t SET b = 9 WHERE a < 100")
        assert catalog.stats("t") is before

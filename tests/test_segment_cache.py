"""Tests for the decoded-segment cache: LRU/budget mechanics, scan
integration (hit/miss accounting, charge skipping), invalidation on
structural changes, and correctness of cached vs uncached scans."""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.batch import concat_batches
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionContext
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.records import Records
from repro.storage.segment_cache import DecodedSegmentCache


def by_rid(rows):
    """(rid, row) pairs as the rids and records an index build reads."""
    return (np.array([rid for rid, _ in rows], np.int64),
            Records.from_rows([row for _, row in rows]))


def schema_ab():
    return TableSchema("t", [Column("a", INT, nullable=False), Column("b", INT)])


def make_rows(n, modulo=10):
    return [(i, (i, i % modulo)) for i in range(n)]


def build_cached_csi(n=4000, rowgroup_size=1000, is_primary=True,
                     budget=64 << 20):
    index = ColumnstoreIndex.build(
        "csi", schema_ab(), *by_rid(make_rows(n)), is_primary=is_primary,
        rowgroup_size=rowgroup_size,
    )
    index.segment_cache = DecodedSegmentCache(budget_bytes=budget)
    return index


def scan_all(index, columns=("a",), **kwargs):
    return concat_batches(index.scan(list(columns), **kwargs))


class TestCacheUnit:
    def test_get_miss_then_hit(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20)
        key = (1, 0, "a")
        assert cache.get(key) is None
        arr = np.arange(10, dtype=np.int64)
        cache.put(key, arr)
        assert cache.get(key) is arr
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_budget_evicts_lru_first(self):
        # Each array is 800 bytes; budget fits exactly two.
        cache = DecodedSegmentCache(budget_bytes=1600)
        a, b, c = (np.arange(100, dtype=np.int64) for _ in range(3))
        cache.put((1, 0, "a"), a)
        cache.put((1, 1, "a"), b)
        cache.get((1, 0, "a"))  # refresh: (1, 1) is now LRU
        assert cache.put((1, 2, "a"), c) == 1
        assert (1, 1, "a") not in cache
        assert (1, 0, "a") in cache and (1, 2, "a") in cache
        assert cache.stats.evictions == 1
        assert cache.bytes_cached == 1600

    def test_oversized_array_not_cached(self):
        cache = DecodedSegmentCache(budget_bytes=100)
        assert cache.put((1, 0, "a"), np.arange(1000, dtype=np.int64)) == 0
        assert len(cache) == 0

    def test_replace_same_key_keeps_budget_accounting(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20)
        cache.put((1, 0, "a"), np.arange(100, dtype=np.int64))
        cache.put((1, 0, "a"), np.arange(50, dtype=np.int64))
        assert len(cache) == 1
        assert cache.bytes_cached == 400

    def test_object_dtype_budget_estimate(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20)
        strings = np.empty(10, dtype=object)
        strings[:] = ["x"] * 10
        cache.put((1, 0, "s"), strings)
        assert cache.bytes_cached == 240  # 24 bytes per element heuristic

    def test_invalidate_object_only_hits_that_object(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20)
        cache.put((1, 0, "a"), np.arange(10, dtype=np.int64))
        cache.put((2, 0, "a"), np.arange(10, dtype=np.int64))
        assert cache.invalidate_object(1) == 1
        assert (1, 0, "a") not in cache
        assert (2, 0, "a") in cache
        assert cache.stats.invalidations == 1

    def test_clear_resets_entries_and_stats(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20)
        cache.put((1, 0, "a"), np.arange(10, dtype=np.int64))
        cache.get((1, 0, "a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_cached == 0
        assert cache.stats.hits == 0 and cache.stats.misses == 0

    def test_reset_stats_keeps_entries(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20)
        cache.put((1, 0, "a"), np.arange(10, dtype=np.int64))
        cache.get((1, 0, "a"))
        cache.reset_stats()
        assert cache.stats.hits == 0
        assert len(cache) == 1

    def test_disabled_cache_is_inert(self):
        cache = DecodedSegmentCache(budget_bytes=1 << 20, enabled=False)
        cache.put((1, 0, "a"), np.arange(10, dtype=np.int64))
        assert cache.get((1, 0, "a")) is None
        assert len(cache) == 0
        assert cache.stats.misses == 0

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(StorageError):
            DecodedSegmentCache(budget_bytes=0)


class TestScanIntegration:
    def test_second_scan_hits_and_skips_decode_charge(self):
        index = build_cached_csi(n=4000, rowgroup_size=1000)
        ctx_cold = ExecutionContext()
        scan_all(index, ["a"], ctx=ctx_cold)
        assert ctx_cold.metrics.segment_cache_misses == 4
        assert ctx_cold.metrics.segment_cache_hits == 0
        ctx_warm = ExecutionContext()
        scan_all(index, ["a"], ctx=ctx_warm)
        assert ctx_warm.metrics.segment_cache_hits == 4
        assert ctx_warm.metrics.segment_cache_misses == 0
        # The warm scan pays lookup CPU instead of decode CPU and skips
        # the logical data-read accounting for cached segments.
        assert ctx_warm.metrics.cpu_ms < ctx_cold.metrics.cpu_ms
        assert ctx_warm.metrics.data_read_mb < ctx_cold.metrics.data_read_mb

    def test_scan_results_identical_cache_on_vs_off(self):
        cached = build_cached_csi(n=3000, rowgroup_size=1000,
                                  is_primary=False)
        uncached = ColumnstoreIndex.build(
            "csi2", schema_ab(), *by_rid(make_rows(3000)), is_primary=False,
            rowgroup_size=1000)
        # Mix in a delta row and a buffered delete on both.
        for index in (cached, uncached):
            index.insert(9000, (9000, 1))
            index.delete(7, (7, 7))
        for _ in range(2):  # second pass serves from the cache
            got = scan_all(cached, ["a", "b"])
            want = scan_all(uncached, ["a", "b"])
            for col in ("a", "b"):
                assert sorted(got.column(col).tolist()) == \
                    sorted(want.column(col).tolist())

    def test_delete_visible_through_warm_cache(self):
        # Delete bitmaps apply after cached decode, so a delete between
        # two scans must be visible without any invalidation.
        index = build_cached_csi(n=1000, rowgroup_size=500)
        scan_all(index, ["a"])
        index.delete(3, (3, 3))
        merged = scan_all(index, ["a"])
        assert 3 not in merged.column("a").tolist()
        assert index.segment_cache.stats.hits > 0

    def test_rebuild_invalidates(self):
        index = build_cached_csi(n=2000, rowgroup_size=1000)
        scan_all(index, ["a"])
        assert len(index.segment_cache) == 2
        index.delete(3, (3, 3))
        index.rebuild()
        assert len(index.segment_cache) == 0
        assert index.segment_cache.stats.invalidations == 2
        merged = scan_all(index, ["a"])
        assert sorted(merged.column("a").tolist()) == \
            [i for i in range(2000) if i != 3]

    def test_move_tuples_invalidates(self):
        index = build_cached_csi(n=1000, rowgroup_size=1000)
        scan_all(index, ["a"])
        assert len(index.segment_cache) == 1
        index.insert(5000, (5000, 0))
        index.move_tuples()
        assert len(index.segment_cache) == 0
        merged = scan_all(index, ["a"])
        assert 5000 in merged.column("a").tolist()

    def test_compact_delete_buffer_invalidates(self):
        index = build_cached_csi(n=1000, rowgroup_size=500,
                                 is_primary=False)
        index.delete_many(range(5))
        scan_all(index, ["a"])
        assert len(index.segment_cache) == 2
        index.compact_delete_buffer()
        assert len(index.segment_cache) == 0
        merged = scan_all(index, ["a"])
        assert sorted(merged.column("a").tolist()) == list(range(5, 1000))

    def test_tiny_budget_records_evictions(self):
        # Budget fits roughly one decoded int64 segment (1000 rows =
        # 8000 bytes), so scanning two columns over four groups evicts.
        index = build_cached_csi(n=4000, rowgroup_size=1000, budget=10_000)
        ctx = ExecutionContext()
        scan_all(index, ["a", "b"], ctx=ctx)
        scan_all(index, ["a", "b"], ctx=ctx)
        assert ctx.metrics.segment_cache_evictions > 0
        assert index.segment_cache.bytes_cached <= 10_000

    def test_uncached_index_charges_like_seed(self):
        cached = build_cached_csi(n=2000, rowgroup_size=1000)
        cached.segment_cache.enabled = False
        plain = ColumnstoreIndex.build(
            "csi2", schema_ab(), *by_rid(make_rows(2000)), is_primary=True,
            rowgroup_size=1000)
        for index in (cached, plain):
            ctx = ExecutionContext()
            scan_all(index, ["a"], ctx=ctx)
            scan_all(index, ["a"], ctx=ctx)
            assert ctx.metrics.segment_cache_hits == 0
            assert ctx.metrics.segment_cache_misses == 0
        assert len(cached.segment_cache) == 0


class TestDatabaseWiring:
    def _make_db(self, **kwargs):
        db = Database("cachedb", **kwargs)
        table = db.create_table(TableSchema("t", [
            Column("a", INT, nullable=False),
            Column("s", varchar(8)),
        ]))
        table.bulk_load([(i, f"v{i % 7}") for i in range(2000)])
        return db

    def test_executor_reports_hits_on_second_run(self):
        db = self._make_db(segment_cache_enabled=True)
        db.table("t").set_primary_columnstore(rowgroup_size=500)
        executor = Executor(db)
        sql = "SELECT sum(a) FROM t"
        cold = executor.execute(sql)
        warm = executor.execute(sql)
        assert cold.metrics.segment_cache_hits == 0
        assert cold.metrics.segment_cache_misses > 0
        assert warm.metrics.segment_cache_hits > 0
        assert warm.scalar() == cold.scalar()
        assert warm.metrics.elapsed_ms < cold.metrics.elapsed_ms

    def test_cache_disabled_by_default(self):
        db = self._make_db()
        assert not db.segment_cache.enabled
        db.table("t").set_primary_columnstore(rowgroup_size=500)
        executor = Executor(db)
        first = executor.execute("SELECT sum(a) FROM t")
        second = executor.execute("SELECT sum(a) FROM t")
        assert first.metrics.elapsed_ms == second.metrics.elapsed_ms
        assert second.metrics.segment_cache_hits == 0

    def test_indexes_share_database_cache(self):
        db = self._make_db(segment_cache_enabled=True)
        csi = db.table("t").set_primary_columnstore(rowgroup_size=500)
        assert csi.segment_cache is db.segment_cache
        csi2 = db.table("t").create_secondary_columnstore(
            "csi2", columns=["a"], rowgroup_size=500, allow_multiple=True)
        assert csi2.segment_cache is db.segment_cache
        # Distinct object ids keep the two indexes' entries apart.
        assert csi.object_id != csi2.object_id

    def test_drop_index_evicts_entries(self):
        db = self._make_db(segment_cache_enabled=True)
        table = db.table("t")
        table.create_secondary_columnstore("csi2", rowgroup_size=500)
        list(table.secondary_indexes["csi2"].scan(["a"]))
        assert len(db.segment_cache) > 0
        table.drop_index("csi2")
        assert len(db.segment_cache) == 0

    def test_drop_table_evicts_entries(self):
        db = self._make_db(segment_cache_enabled=True)
        db.table("t").set_primary_columnstore(rowgroup_size=500)
        list(db.table("t").primary.scan(["a"]))
        assert len(db.segment_cache) > 0
        db.drop_table("t")
        assert len(db.segment_cache) == 0

    def test_replacing_primary_evicts_entries(self):
        db = self._make_db(segment_cache_enabled=True)
        db.table("t").set_primary_columnstore(rowgroup_size=500)
        list(db.table("t").primary.scan(["a"]))
        assert len(db.segment_cache) > 0
        db.table("t").set_primary_btree(["a"])
        assert len(db.segment_cache) == 0

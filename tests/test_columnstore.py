"""Tests for the columnstore index: row groups, delta store, deletes,
segment elimination, and the primary/secondary behavioural split."""

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.batch import concat_batches
from repro.engine.metrics import ExecutionContext
from repro.storage.columnstore import RID_COLUMN, ColumnstoreIndex
from repro.storage.records import Records


def by_rid(rows):
    """(rid, row) pairs as the rids and records an index build reads."""
    return (np.array([rid for rid, _ in rows], np.int64),
            Records.from_rows([row for _, row in rows]))


def schema_ab():
    return TableSchema("t", [Column("a", INT, nullable=False), Column("b", INT)])


def make_rows(n, modulo=10):
    return [(i, (i, i % modulo)) for i in range(n)]


def build_csi(n=5000, rowgroup_size=1000, is_primary=True, presorted=False):
    return ColumnstoreIndex.build(
        "csi", schema_ab(), *by_rid(make_rows(n)), is_primary=is_primary,
        rowgroup_size=rowgroup_size, presorted=presorted,
    )


def scan_all(index, columns=("a",), **kwargs):
    batches = list(index.scan(list(columns), **kwargs))
    return concat_batches(batches)


class TestBuild:
    def test_rowgroup_partitioning(self):
        index = build_csi(n=5000, rowgroup_size=1000)
        assert index.n_rowgroups == 5
        assert index.n_rows == 5000
        assert index.delta_rows == 0

    def test_partial_last_group(self):
        index = build_csi(n=2500, rowgroup_size=1000)
        assert index.n_rowgroups == 3

    def test_scan_returns_all_values(self):
        index = build_csi(n=3000, rowgroup_size=1000)
        merged = scan_all(index, ["a"])
        assert sorted(merged.column("a").tolist()) == list(range(3000))

    def test_primary_requires_all_columns(self):
        with pytest.raises(StorageError):
            ColumnstoreIndex("csi", schema_ab(), columns=["a"], is_primary=True)

    def test_unsupported_type_rejected(self):
        from repro.core.types import XML
        schema = TableSchema("t", [Column("a", INT), Column("x", XML)])
        with pytest.raises(StorageError):
            ColumnstoreIndex("csi", schema, columns=["a", "x"])

    def test_secondary_subset_allowed(self):
        index = ColumnstoreIndex.build(
            "csi", schema_ab(), *by_rid(make_rows(100)), columns=["b"],
            is_primary=False, rowgroup_size=64)
        assert index.columns == ["b"]

    def test_scan_unknown_column_rejected(self):
        index = build_csi(n=100, rowgroup_size=64)
        with pytest.raises(StorageError):
            list(index.scan(["zzz"]))

    def test_tiny_rowgroup_size_rejected(self):
        with pytest.raises(StorageError):
            ColumnstoreIndex("csi", schema_ab(), rowgroup_size=10)


class TestSegmentElimination:
    def test_sorted_build_gives_disjoint_ranges(self):
        index = build_csi(n=4000, rowgroup_size=1000, presorted=True)
        ranges = index.segment_ranges("a")
        for (lo1, hi1), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi1 < lo2

    def test_elimination_skips_segments(self):
        index = build_csi(n=4000, rowgroup_size=1000, presorted=True)
        ctx = ExecutionContext()
        merged = scan_all(index, ["a"], ctx=ctx,
                          elimination_ranges={"a": (0, 500)})
        assert ctx.metrics.segments_skipped == 3
        assert ctx.metrics.segments_read == 1
        # Elimination is conservative: all qualifying values survive.
        assert set(range(501)) <= set(merged.column("a").tolist())

    def test_unsorted_build_cannot_skip(self):
        # Random order means every segment spans nearly the full domain.
        rng = np.random.default_rng(0)
        perm = rng.permutation(4000)
        rows = [(i, (int(perm[i]), i % 5)) for i in range(4000)]
        index = ColumnstoreIndex.build(
            "csi", schema_ab(), *by_rid(rows), is_primary=True, rowgroup_size=1000)
        ctx = ExecutionContext()
        scan_all(index, ["a"], ctx=ctx, elimination_ranges={"a": (0, 10)})
        assert ctx.metrics.segments_skipped == 0

    def test_cold_scan_charges_only_needed_columns(self):
        index = build_csi(n=20000, rowgroup_size=4000)
        ctx_one = ExecutionContext(cold=True)
        scan_all(index, ["a"], ctx=ctx_one)
        ctx_two = ExecutionContext(cold=True)
        scan_all(index, ["a", "b"], ctx=ctx_two)
        assert ctx_two.metrics.data_read_mb > ctx_one.metrics.data_read_mb


class TestDeltaStore:
    def test_insert_goes_to_delta(self):
        index = build_csi(n=1000, rowgroup_size=1000)
        index.insert(5000, (5000, 1))
        assert index.delta_rows == 1
        merged = scan_all(index, ["a"])
        assert 5000 in merged.column("a").tolist()

    def test_tuple_mover_compresses_at_threshold(self):
        index = ColumnstoreIndex("csi", schema_ab(), is_primary=True,
                                 rowgroup_size=64)
        for i in range(64):
            index.insert(i, (i, i))
        assert index.delta_rows == 0
        assert index.n_rowgroups == 1

    def test_explicit_move_tuples(self):
        index = build_csi(n=1000, rowgroup_size=1000)
        for i in range(10):
            index.insert(2000 + i, (2000 + i, 0))
        index.move_tuples()
        assert index.delta_rows == 0
        assert index.n_rowgroups == 2
        assert index.n_rows == 1010

    def test_duplicate_rid_rejected(self):
        index = build_csi(n=100, rowgroup_size=64)
        with pytest.raises(StorageError):
            index.insert(0, (0, 0))


def rows_with_nulls(start, stop):
    """``b`` is NULL in every third row."""
    return [(i, (i, None if i % 3 == 0 else i % 5))
            for i in range(start, stop)]


def segment_kinds(index, column="b"):
    return [state.group.column(column).decode().dtype.kind
            for state in index._groups]


class TestGroupDtypes:
    """A row group's column is typed unless that group holds a NULL:
    ``build``, the tuple mover and REBUILD each decide it per group."""

    def test_build_and_rebuild(self):
        rows = make_rows(128, modulo=5) + rows_with_nulls(128, 192)
        for is_primary in (True, False):
            index = ColumnstoreIndex.build("csi", schema_ab(), *by_rid(rows),
                                           is_primary=is_primary,
                                           rowgroup_size=64)
            assert segment_kinds(index) == ["i", "i", "O"]
            index.rebuild()
            assert segment_kinds(index) == ["i", "i", "O"]

    def test_tuple_mover(self):
        index = build_csi(n=64, rowgroup_size=64)
        for rid, row in make_rows(74)[64:]:
            index.insert(rid, row)
        index.move_tuples()
        for rid, row in rows_with_nulls(74, 84):
            index.insert(rid, row)
        index.move_tuples()
        assert segment_kinds(index) == ["i", "i", "O"]


class TestDeletes:
    def test_primary_delete_uses_bitmap(self):
        index = build_csi(n=1000, rowgroup_size=500, is_primary=True)
        index.delete(3, (3, 3))
        assert index.n_rows == 999
        assert index.delete_buffer_rows == 0
        merged = scan_all(index, ["a"])
        assert 3 not in merged.column("a").tolist()

    def test_secondary_delete_uses_buffer(self):
        index = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        index.delete(3, (3, 3))
        assert index.delete_buffer_rows == 1
        merged = scan_all(index, ["a"])
        assert 3 not in merged.column("a").tolist()

    def test_compact_delete_buffer(self):
        index = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        index.delete_many(range(10))
        index.compact_delete_buffer()
        assert index.delete_buffer_rows == 0
        merged = scan_all(index, ["a"])
        assert set(merged.column("a").tolist()) == set(range(10, 1000))

    def test_primary_small_delete_more_expensive_than_secondary(self):
        primary = build_csi(n=20000, rowgroup_size=4000, is_primary=True)
        secondary = build_csi(n=20000, rowgroup_size=4000, is_primary=False)
        ctx_p = ExecutionContext()
        primary.delete_many([1, 2, 3], ctx_p)
        ctx_s = ExecutionContext()
        secondary.delete_many([1, 2, 3], ctx_s)
        assert ctx_p.metrics.cpu_ms > ctx_s.metrics.cpu_ms * 3

    def test_delete_from_delta(self):
        index = build_csi(n=1000, rowgroup_size=1000)
        index.insert(5000, (5000, 0))
        index.delete(5000, (5000, 0))
        assert index.delta_rows == 0
        assert index.n_rows == 1000

    def test_double_delete_rejected(self):
        index = build_csi(n=100, rowgroup_size=64, is_primary=True)
        index.delete(1, (1, 1))
        with pytest.raises(StorageError):
            index.delete(1, (1, 1))

    def test_secondary_double_delete_rejected(self):
        # Regression: the buffered delete only reached the bitmap at
        # compaction, so a second delete of the same compressed rid used
        # to slip past the deleted_mask check and silently succeed.
        index = build_csi(n=100, rowgroup_size=64, is_primary=False)
        index.delete(1, (1, 1))
        with pytest.raises(StorageError, match="already deleted"):
            index.delete(1, (1, 1))

    def test_secondary_n_rows_subtracts_buffered_deletes(self):
        # Regression: n_rows ignored the delete buffer until compaction,
        # overcounting live rows on a secondary CSI.
        index = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        index.delete_many(range(10))
        assert index.n_rows == 990
        index.compact_delete_buffer()
        assert index.n_rows == 990

    def test_secondary_n_rows_after_update_of_compressed_rid(self):
        # An updated compressed rid is masked by the delete buffer while
        # its new version lives in the delta store: still one live row.
        index = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        index.update(3, (3, 3), (3, 99))
        assert index.n_rows == 1000

    def test_unknown_rid_rejected(self):
        index = build_csi(n=100, rowgroup_size=64)
        with pytest.raises(StorageError):
            index.delete(99999, (0, 0))

    def test_secondary_scan_pays_anti_semi_join(self):
        index = build_csi(n=20000, rowgroup_size=4000, is_primary=False)
        ctx_clean = ExecutionContext()
        scan_all(index, ["a"], ctx=ctx_clean)
        index.delete_many(range(5))
        ctx_dirty = ExecutionContext()
        scan_all(index, ["a"], ctx=ctx_dirty)
        assert ctx_dirty.metrics.cpu_ms > ctx_clean.metrics.cpu_ms


class TestUpdates:
    def test_update_is_delete_plus_insert(self):
        index = build_csi(n=1000, rowgroup_size=500, is_primary=True)
        index.update(3, (3, 3), (3, 99))
        merged = scan_all(index, ["a", "b"])
        rows = list(zip(merged.column("a").tolist(), merged.column("b").tolist()))
        assert (3, 99) in rows
        assert (3, 3) not in rows
        assert index.n_rows == 1000

    def test_secondary_update_keeps_single_visible_version(self):
        index = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        index.update(3, (3, 3), (3, 99))
        merged = scan_all(index, ["a", "b"])
        rows = list(zip(merged.column("a").tolist(), merged.column("b").tolist()))
        assert rows.count((3, 99)) == 1
        assert (3, 3) not in rows

    def test_update_many_amortises_primary_scans(self):
        rows = list(range(100, 120))
        index_batch = build_csi(n=20000, rowgroup_size=4000, is_primary=True)
        ctx_batch = ExecutionContext()
        index_batch.update_many(
            [(r, (r, r % 10), (r, 777)) for r in rows], ctx_batch)
        index_single = build_csi(n=20000, rowgroup_size=4000, is_primary=True)
        ctx_single = ExecutionContext()
        for r in rows:
            index_single.update(r, (r, r % 10), (r, 777), ctx_single)
        # update_many touches each affected group once; per-row updates
        # re-scan the group for every row.
        assert ctx_batch.metrics.cpu_ms < ctx_single.metrics.cpu_ms / 2


class TestSizing:
    def test_column_sizes_sum_close_to_total(self):
        index = build_csi(n=5000, rowgroup_size=1000)
        sizes = index.column_sizes()
        assert set(sizes) == {"a", "b"}
        assert abs(sum(sizes.values()) - index.size_bytes()) < 1024

    def test_low_cardinality_column_compresses_smaller(self):
        # b = i % 10 (low cardinality) compresses far better than a = i.
        sizes = build_csi(n=20000, rowgroup_size=4000).column_sizes()
        assert sizes["b"] < sizes["a"]

    def test_rid_scan_includes_rid_column(self):
        index = build_csi(n=200, rowgroup_size=64)
        merged = scan_all(index, ["a"], include_rids=True)
        assert RID_COLUMN in merged.columns
        assert sorted(merged.column(RID_COLUMN).tolist()) == list(range(200))


class TestCompactionCharging:
    def test_empty_buffer_compaction_is_free(self):
        index = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        ctx = ExecutionContext()
        index.compact_delete_buffer(ctx)
        assert ctx.metrics.cpu_ms == 0.0

    def test_compaction_charge_proportional_to_folded_rids(self):
        small = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        small.delete_many(range(5))
        ctx_small = ExecutionContext()
        small.compact_delete_buffer(ctx_small)
        big = build_csi(n=1000, rowgroup_size=500, is_primary=False)
        big.delete_many(range(50))
        ctx_big = ExecutionContext()
        big.compact_delete_buffer(ctx_big)
        assert ctx_small.metrics.cpu_ms > 0.0
        assert ctx_big.metrics.cpu_ms > ctx_small.metrics.cpu_ms * 5


class TestShadowTupleMove:
    def test_buffered_shadow_survives_tuple_move(self):
        # Regression: compressing the delta store while a buffered delete
        # still masked the old compressed copy of an updated rid used to
        # lose the new version (the mover dropped delta rids that already
        # had a locator entry).
        index = build_csi(n=100, rowgroup_size=64, is_primary=False)
        index.update(3, (3, 3), (3, 99))
        # Fill the delta store past the rowgroup threshold so insert()
        # triggers the tuple mover with the shadow still pending.
        for i in range(64):
            index.insert(1000 + i, (1000 + i, 0))
        merged = scan_all(index, ["a", "b"])
        rows = list(zip(merged.column("a").tolist(),
                        merged.column("b").tolist()))
        assert rows.count((3, 99)) == 1
        assert (3, 3) not in rows
        assert index.n_rows == 164
        index.compact_delete_buffer()
        merged = scan_all(index, ["a", "b"])
        rows = list(zip(merged.column("a").tolist(),
                        merged.column("b").tolist()))
        assert rows.count((3, 99)) == 1

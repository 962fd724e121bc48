"""Tests for the physical operators: scans, filters, sorts, aggregates,
joins, and their cost-charging behaviour."""

import numpy as np
import pytest

from repro.core.errors import ExecutionError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.batch import batch_to_rows, concat_batches
from repro.engine.expressions import (
    ColumnRange,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import (
    AggregateSpec,
    BTreeSeek,
    ColumnstoreScan,
    Filter,
    HashAggregate,
    HashJoin,
    HeapScan,
    IndexNestedLoopJoin,
    MergeJoin,
    Project,
    SecondaryBTreeSeek,
    Sort,
    SortKey,
    StreamAggregate,
    Top,
)
from repro.storage.table import Table
from tests.oracle import sqlite_mirror
from tests.reference_scan import scans


def make_table(n=1000, with_btree=True):
    schema = TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", INT, nullable=False),
        Column("s", varchar(8)),
    ])
    table = Table(schema)
    table.bulk_load([(i, i % 10, f"g{i % 3}") for i in range(n)])
    if with_btree:
        table.set_primary_btree(["a"])
    return table


def drain(op, ctx=None):
    ctx = ctx or ExecutionContext()
    rows = []
    for batch in op.execute(ctx):
        rows.extend(batch_to_rows(batch, op.output_columns))
    return rows, ctx


def pred(column, op, value):
    return Comparison(op, ColumnRef(column), Literal(value))


class TestScans:
    def test_heap_scan_all(self):
        table = make_table(100, with_btree=False)
        rows, ctx = drain(HeapScan(table, ["a", "b"]))
        assert len(rows) == 100
        assert rows[0] == (0, 0)
        assert ctx.metrics.leaf_accesses == {"heap": 1}

    def test_heap_scan_residual(self):
        table = make_table(100, with_btree=False)
        rows, _ = drain(HeapScan(table, ["a"], residual=pred("a", "<", 10)))
        assert len(rows) == 10

    def test_btree_seek_range(self):
        table = make_table(1000)
        rng = ColumnRange(low=100, high=110)
        rows, ctx = drain(BTreeSeek(table, ["a", "b"], key_range=rng))
        assert [r[0] for r in rows] == list(range(100, 111))
        assert ctx.metrics.leaf_accesses == {"btree": 1}

    def test_btree_seek_exclusive_bounds(self):
        table = make_table(100)
        rng = ColumnRange(low=10, high=20, low_inclusive=False,
                          high_inclusive=False)
        rows, _ = drain(BTreeSeek(table, ["a"], key_range=rng))
        assert [r[0] for r in rows] == list(range(11, 20))

    def test_btree_full_scan_ordered(self):
        table = make_table(500)
        op = BTreeSeek(table, ["a"])
        assert op.output_ordering == ["a"]
        rows, _ = drain(op)
        assert [r[0] for r in rows] == list(range(500))

    def test_btree_prefix_output_naming(self):
        table = make_table(10)
        op = BTreeSeek(table, ["a", "b"], prefix="t.")
        assert op.output_columns == ["t.a", "t.b"]
        assert op.output_ordering == ["t.a"]

    def test_secondary_seek_covered(self):
        table = make_table(1000)
        index = table.create_secondary_btree("ix_b", ["b"], ["s"])
        op = SecondaryBTreeSeek(table, index, ["b", "s"],
                                key_range=ColumnRange(low=3, high=3))
        rows, ctx = drain(op)
        assert len(rows) == 100
        assert all(r[0] == 3 for r in rows)
        assert not op.needs_lookup
        assert ctx.metrics.pages_read == 0  # hot

    def test_secondary_seek_with_lookup_charges_random_io(self):
        table = make_table(1000)
        index = table.create_secondary_btree("ix_b", ["b"])
        op = SecondaryBTreeSeek(table, index, ["b", "a", "s"],
                                key_range=ColumnRange(low=3, high=3))
        assert op.needs_lookup
        ctx = ExecutionContext(cold=True)
        rows, _ = drain(op, ctx)
        assert len(rows) == 100
        # One random page read per looked-up row, plus traversal pages.
        assert ctx.metrics.pages_read >= 100

    def test_csi_scan_all(self):
        table = make_table(1000, with_btree=False)
        csi = table.create_secondary_columnstore("csi", rowgroup_size=256)
        rows, ctx = drain(ColumnstoreScan(table, csi, ["a", "b"]))
        assert len(rows) == 1000
        assert ctx.metrics.leaf_accesses == {"csi": 1}

    def test_csi_scan_residual_filters(self):
        table = make_table(1000, with_btree=False)
        csi = table.create_secondary_columnstore("csi", rowgroup_size=256)
        op = ColumnstoreScan(table, csi, ["a"], residual=pred("a", "<", 50))
        rows, _ = drain(op)
        assert sorted(r[0] for r in rows) == list(range(50))

    def test_csi_scan_prefixed_residual(self):
        table = make_table(100, with_btree=False)
        csi = table.create_secondary_columnstore("csi", rowgroup_size=64)
        op = ColumnstoreScan(table, csi, ["a"], prefix="t.",
                             residual=pred("t.a", "<", 5))
        rows, _ = drain(op)
        assert len(rows) == 5
        assert op.output_columns == ["t.a"]


class TestFilterProjectTop:
    def test_filter_modes_follow_child(self):
        table = make_table(100, with_btree=False)
        csi = table.create_secondary_columnstore("csi", rowgroup_size=64)
        scan = ColumnstoreScan(table, csi, ["a"])
        filt = Filter(scan, pred("a", "<", 10))
        assert filt.mode == "batch"
        rows, _ = drain(filt)
        assert len(rows) == 10

    def test_project_arithmetic(self):
        table = make_table(10, with_btree=False)
        scan = HeapScan(table, ["a", "b"])
        proj = Project(scan, [
            ("twice", ColumnRef("a")),
            ("sum_ab", Comparison("=", ColumnRef("a"), ColumnRef("a"))),
        ])
        assert proj.output_columns == ["twice", "sum_ab"]

    def test_top_limits(self):
        table = make_table(100)
        top = Top(BTreeSeek(table, ["a"]), 7)
        rows, _ = drain(top)
        assert [r[0] for r in rows] == list(range(7))

    def test_top_zero(self):
        table = make_table(10)
        rows, _ = drain(Top(BTreeSeek(table, ["a"]), 0))
        assert rows == []

    def test_top_negative_rejected(self):
        table = make_table(10)
        with pytest.raises(ExecutionError):
            Top(BTreeSeek(table, ["a"]), -1)


class TestSort:
    def test_sort_ascending(self):
        table = make_table(100, with_btree=False)
        op = Sort(HeapScan(table, ["b", "a"]), [SortKey("b"), SortKey("a")])
        rows, _ = drain(op)
        assert rows == sorted(rows)
        assert op.output_ordering == ["b", "a"]

    def test_sort_descending(self):
        table = make_table(50, with_btree=False)
        op = Sort(HeapScan(table, ["a"]), [SortKey("a", descending=True)])
        rows, _ = drain(op)
        assert [r[0] for r in rows] == list(range(49, -1, -1))
        assert op.output_ordering == []

    def test_sort_strings(self):
        table = make_table(30, with_btree=False)
        op = Sort(HeapScan(table, ["s", "a"]), [SortKey("s"), SortKey("a")])
        rows, _ = drain(op)
        assert [r[0] for r in rows] == sorted(
            [r[0] for r in rows])

    def test_sort_within_grant_uses_memory(self):
        table = make_table(1000, with_btree=False)
        op = Sort(HeapScan(table, ["a"]), [SortKey("a")])
        _, ctx = drain(op)
        assert ctx.metrics.memory_peak_bytes > 0
        assert ctx.metrics.spilled_bytes == 0

    def test_sort_spills_when_grant_small(self):
        table = make_table(5000, with_btree=False)
        op = Sort(HeapScan(table, ["a"]), [SortKey("a")])
        ctx = ExecutionContext(memory_grant_bytes=1024)
        rows, _ = drain(op, ctx)
        assert ctx.metrics.spilled_bytes > 0
        assert [r[0] for r in rows] == list(range(5000))  # still exact


class TestAggregates:
    def test_hash_aggregate_basic(self):
        table = make_table(1000, with_btree=False)
        scan = HeapScan(table, ["b", "a"])
        agg = HashAggregate(scan, ["b"], [
            AggregateSpec("sum", ColumnRef("a"), "sum_a"),
            AggregateSpec("count", None, "cnt"),
        ])
        rows, _ = drain(agg)
        assert len(rows) == 10
        by_key = {r[0]: r for r in rows}
        assert by_key[0][2] == 100
        assert by_key[3][1] == sum(i for i in range(1000) if i % 10 == 3)

    def test_hash_aggregate_min_max_avg(self):
        table = make_table(100, with_btree=False)
        agg = HashAggregate(HeapScan(table, ["s", "a"]), ["s"], [
            AggregateSpec("min", ColumnRef("a"), "lo"),
            AggregateSpec("max", ColumnRef("a"), "hi"),
            AggregateSpec("avg", ColumnRef("a"), "mean"),
        ])
        rows, _ = drain(agg)
        by_key = {r[0]: r for r in rows}
        assert by_key["g0"][1] == 0
        assert by_key["g2"][2] == 98
        assert abs(by_key["g0"][3] - np.mean(range(0, 100, 3))) < 1e-9

    def test_hash_aggregate_no_groups(self):
        table = make_table(100, with_btree=False)
        agg = HashAggregate(HeapScan(table, ["a"]), [], [
            AggregateSpec("sum", ColumnRef("a"), "total")])
        rows, _ = drain(agg)
        assert rows == [(sum(range(100)),)]

    def test_hash_aggregate_spills_with_tiny_grant(self):
        table = make_table(5000, with_btree=False)
        agg = HashAggregate(HeapScan(table, ["a"]), ["a"], [
            AggregateSpec("count", None, "cnt")])
        ctx = ExecutionContext(memory_grant_bytes=2048)
        rows, _ = drain(agg, ctx)
        assert agg.spill_of(ctx) is not None
        assert ctx.metrics.spilled_bytes > 0
        assert len(rows) == 5000

    def test_stream_aggregate_requires_order(self):
        table = make_table(100, with_btree=False)
        with pytest.raises(ExecutionError):
            StreamAggregate(HeapScan(table, ["b", "a"]), ["b"], [
                AggregateSpec("sum", ColumnRef("a"), "s")])

    def test_stream_aggregate_matches_hash(self):
        table = make_table(1000)
        seek = BTreeSeek(table, ["a", "b"])
        stream = StreamAggregate(seek, ["a"], [
            AggregateSpec("sum", ColumnRef("b"), "sum_b")])
        stream_rows, ctx = drain(stream)
        hash_rows, _ = drain(HashAggregate(
            BTreeSeek(table, ["a", "b"]), ["a"],
            [AggregateSpec("sum", ColumnRef("b"), "sum_b")]))
        assert sorted(stream_rows) == sorted(hash_rows)
        # Streaming aggregation needs no workspace memory.
        assert ctx.metrics.memory_peak_bytes == 0

    @pytest.mark.parametrize("operator", [HashAggregate, StreamAggregate])
    @pytest.mark.parametrize("batch_mode", [False, True])
    @pytest.mark.parametrize("encoded", [False, True])
    def test_scalar_aggregate_over_empty_input_is_one_row(
            self, operator, batch_mode, encoded):
        """SQL answers one row (count 0, the rest NULL) for an aggregate
        without GROUP BY over no rows, and no row with GROUP BY; the
        answers are sqlite3's."""
        table = make_table(1000)
        oracle = sqlite_mirror([table])
        functions = ("count(*)", "count(b)", "sum(b)", "avg(b)", "min(s)",
                     "max(b)")
        scalar = oracle.execute(
            f"SELECT {', '.join(functions)} FROM t WHERE a < 0").fetchall()
        grouped = oracle.execute(
            f"SELECT a, {', '.join(functions)} FROM t WHERE a < 0 "
            "GROUP BY a").fetchall()
        assert scalar == [(0, 0, None, None, None, None)] and grouped == []

        specs = [AggregateSpec("count", None, "n"),
                 AggregateSpec("count", ColumnRef("b"), "nb"),
                 AggregateSpec("sum", ColumnRef("b"), "sb"),
                 AggregateSpec("avg", ColumnRef("b"), "ab"),
                 AggregateSpec("min", ColumnRef("s"), "ls"),
                 AggregateSpec("max", ColumnRef("b"), "hb")]

        csi = (table.create_secondary_columnstore("csi", rowgroup_size=256)
               if batch_mode else None)

        def no_rows():
            if batch_mode:
                return ColumnstoreScan(table, csi, ["a", "b", "s"],
                                       residual=pred("a", "<", 0))
            return BTreeSeek(table, ["a", "b", "s"],
                             residual=pred("a", "<", 0))

        with scans(encoded):
            ctx = ExecutionContext()
            child_rows, child_ctx = drain(no_rows(), ExecutionContext())
            assert child_rows == []
            rows, ctx = drain(operator(no_rows(), [], specs), ctx)
            assert rows == scalar
            # The row costs nothing: all modeled time is the child's.
            assert ctx.metrics.elapsed_ms == child_ctx.metrics.elapsed_ms
            assert ctx.metrics.memory_peak_bytes == 0
            child = no_rows()
            if operator is StreamAggregate and batch_mode:
                child = Sort(child, [SortKey("a")])     # a scan has no order
            rows, _ = drain(operator(child, ["a"], specs), ExecutionContext())
            assert rows == grouped


class TestJoins:
    def make_dim(self):
        schema = TableSchema("d", [
            Column("id", INT, nullable=False),
            Column("label", varchar(8)),
        ])
        dim = Table(schema)
        dim.bulk_load([(i, f"d{i}") for i in range(10)])
        return dim

    def test_hash_join(self):
        fact = make_table(100, with_btree=False)
        dim = self.make_dim()
        join = HashJoin(
            HeapScan(dim, ["id", "label"], prefix="d."),
            HeapScan(fact, ["a", "b"], prefix="t."),
            build_keys=["d.id"], probe_keys=["t.b"],
        )
        rows, _ = drain(join)
        assert len(rows) == 100
        assert join.output_columns == ["d.id", "d.label", "t.a", "t.b"]
        for d_id, label, _, b in rows:
            assert d_id == b
            assert label == f"d{b}"

    def test_hash_join_no_matches(self):
        fact = make_table(10, with_btree=False)
        dim = self.make_dim()
        join = HashJoin(
            HeapScan(dim, ["id"], prefix="d."),
            Filter(HeapScan(fact, ["a", "b"], prefix="t."),
                   pred("t.b", ">", 100)),
            build_keys=["d.id"], probe_keys=["t.b"],
        )
        rows, _ = drain(join)
        assert rows == []

    def test_hash_join_spill_on_tiny_grant(self):
        fact = make_table(2000, with_btree=False)
        dim = self.make_dim()
        join = HashJoin(
            HeapScan(fact, ["a", "b"], prefix="t."),
            HeapScan(dim, ["id", "label"], prefix="d."),
            build_keys=["t.b"], probe_keys=["d.id"],
        )
        ctx = ExecutionContext(memory_grant_bytes=512)
        rows, _ = drain(join, ctx)
        assert ctx.metrics.spilled_bytes > 0
        assert len(rows) == 2000

    def test_merge_join_requires_order(self):
        fact = make_table(100, with_btree=False)
        dim = self.make_dim()
        with pytest.raises(ExecutionError):
            MergeJoin(HeapScan(fact, ["a"]), HeapScan(dim, ["id"]),
                      ["a"], ["id"])

    def test_merge_join(self):
        left = make_table(50)
        right = make_table(80)
        join = MergeJoin(
            BTreeSeek(left, ["a"], prefix="l."),
            BTreeSeek(right, ["a"], prefix="r."),
            ["l.a"], ["r.a"],
        )
        rows, _ = drain(join)
        assert len(rows) == 50
        assert all(l == r for l, r in rows)
        assert join.output_ordering == ["l.a"]

    def test_merge_join_duplicates(self):
        schema = TableSchema("x", [Column("k", INT, nullable=False)])
        t1 = Table(schema)
        t1.bulk_load([(1,), (1,), (2,)])
        t1.set_primary_btree(["k"])
        schema2 = TableSchema("y", [Column("k", INT, nullable=False)])
        t2 = Table(schema2)
        t2.bulk_load([(1,), (2,), (2,)])
        t2.set_primary_btree(["k"])
        join = MergeJoin(BTreeSeek(t1, ["k"], prefix="x."),
                         BTreeSeek(t2, ["k"], prefix="y."),
                         ["x.k"], ["y.k"])
        rows, _ = drain(join)
        assert sorted(rows) == [(1, 1), (1, 1), (2, 2), (2, 2)]

    def test_index_nested_loop_join(self):
        fact = make_table(1000)  # clustered on a
        dim = self.make_dim()
        # outer: dim rows with id < 3; inner: fact rows with a == id
        outer = Filter(HeapScan(dim, ["id", "label"], prefix="d."),
                       pred("d.id", "<", 3))
        join = IndexNestedLoopJoin(
            outer, fact, fact.primary, outer_keys=["d.id"],
            inner_columns=["a", "b"], inner_prefix="t.",
        )
        rows, ctx = drain(join)
        assert len(rows) == 3
        for d_id, _, a, _ in rows:
            assert d_id == a
        assert "btree" in ctx.metrics.leaf_accesses

    def test_index_nested_loop_on_secondary(self):
        fact = make_table(1000)
        ix = fact.create_secondary_btree("ix_b", ["b"])
        dim = self.make_dim()
        outer = Filter(HeapScan(dim, ["id"], prefix="d."),
                       pred("d.id", "=", 4))
        join = IndexNestedLoopJoin(
            outer, fact, ix, outer_keys=["d.id"],
            inner_columns=["b", "s"], inner_prefix="t.",
        )
        rows, _ = drain(join)
        assert len(rows) == 100  # b == 4 appears 100 times in 1000 rows
        assert all(r[1] == 4 for r in rows)


class TestPlanIntrospection:
    def test_walk_and_explain(self):
        table = make_table(100)
        plan = Top(Sort(BTreeSeek(table, ["a", "b"]), [SortKey("b")]), 5)
        kinds = [type(op).__name__ for op in plan.walk()]
        assert kinds == ["Top", "Sort", "BTreeSeek"]
        text = plan.explain()
        assert "Top(5)" in text
        assert "BTreeSeek" in text

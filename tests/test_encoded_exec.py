"""Differential tests for dictionary-coded (late materialization)
execution: every query must return identical rows AND identical modeled
metrics as the decoded reference scan (``tests/reference_scan.py``) —
the encoded path changes real wall-clock only. Also unit-tests the
code-space primitives."""

import dataclasses

import numpy as np
import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.encoded import (
    EncodedColumn,
    compare_codes,
    concat_encoded,
    isin_codes,
)
from repro.engine.executor import Executor
from repro.storage.compression import (
    Dictionary,
    ENCODING_RLE,
    compress_rowgroup,
)
from repro.storage.database import Database
from tests.reference_scan import scans

# Counters expected to differ between the two modes by design.
_MODE_COUNTERS = (
    "columns_late_materialized", "code_path_hits", "code_path_fallbacks")


def schema():
    return TableSchema("t", [
        Column("id", INT, nullable=False),
        Column("city", varchar(16)),       # dict-coded strings, with NULLs
        Column("region", varchar(8)),      # long runs -> RLE + dictionary
        Column("qty", INT),
    ])


CITIES = ["athens", "berlin", "cairo", None, "delhi", "evora"]
REGIONS = ["north", "south"]


def rows(n=4000):
    return [
        (i, CITIES[i % len(CITIES)], REGIONS[(i * 2) // n], i % 50)
        for i in range(n)
    ]


def make_db(n=4000):
    db = Database()
    table = db.create_table(schema())
    table.bulk_load(rows(n))
    table.set_primary_columnstore(rowgroup_size=1024)
    return db


def make_join_db():
    db = make_db()
    dim = db.create_table(TableSchema("d", [
        Column("name", varchar(16)),
        Column("pop", INT, nullable=False),
    ]))
    dim.bulk_load([("athens", 1), ("cairo", 3), ("delhi", 4), ("zzz", 9)])
    return db


def run_query(db_factory, sql, enabled):
    with scans(enabled):
        return Executor(db_factory()).execute(sql)


def metrics_dict(result):
    d = dataclasses.asdict(result.metrics)
    for name in _MODE_COUNTERS:
        d.pop(name)
    return d


def assert_differential(sql, db_factory=make_db):
    """Encoded runs and the decoded reference agree on rows and modeled
    metrics."""
    off = run_query(db_factory, sql, enabled=False)
    on = run_query(db_factory, sql, enabled=True)
    assert on.rows == off.rows
    assert on.columns == off.columns
    assert metrics_dict(on) == metrics_dict(off)
    assert off.metrics.code_path_hits == 0
    assert off.metrics.columns_late_materialized == 0
    return on, off


class TestEncodedColumnUnit:
    def make(self):
        dictionary = Dictionary.build(
            np.array([None, "a", "b", "a", "c"], dtype=object))
        codes = dictionary.encode(
            np.array(["a", "b", None, "c", "a"], dtype=object))
        return EncodedColumn(codes, dictionary)

    def test_dtype_reports_object(self):
        assert self.make().dtype == np.dtype(object)

    def test_materialize_roundtrip(self):
        col = self.make()
        assert col.materialize().tolist() == ["a", "b", None, "c", "a"]
        assert list(col) == ["a", "b", None, "c", "a"]
        assert col[2] is None and col[3] == "c"

    def test_mask_and_slice_stay_encoded(self):
        col = self.make()
        masked = col[np.array([True, False, True, False, True])]
        assert isinstance(masked, EncodedColumn)
        assert masked.materialize().tolist() == ["a", None, "a"]
        assert isinstance(col[1:3], EncodedColumn)

    def test_null_sorts_first_in_dictionary(self):
        col = self.make()
        assert col.dictionary.values[0] is None
        assert col.dictionary.null_offset == 1

    def test_concat_same_dictionary(self):
        col = self.make()
        joined = concat_encoded([col, col[:2]])
        assert isinstance(joined, EncodedColumn)
        assert joined.materialize().tolist() == [
            "a", "b", None, "c", "a", "a", "b"]

    def test_concat_different_dictionaries_merges(self):
        # Batches from different rowgroups carry distinct per-segment
        # dictionaries; concatenation merges them (sorted union, NULL
        # first) and remaps codes so the result stays in code space.
        other = EncodedColumn(
            np.array([0]), Dictionary.build(np.array(["x"], dtype=object)))
        joined = concat_encoded([self.make(), other])
        assert isinstance(joined, EncodedColumn)
        assert joined.materialize().tolist() == [
            "a", "b", None, "c", "a", "x"]
        # The merged dictionary preserves the sortedness invariant, so
        # code order still equals value order (code-space sort legality).
        assert joined.dictionary.values[0] is None
        assert list(joined.dictionary.values[1:]) == ["a", "b", "c", "x"]


class TestCodeTranslation:
    """compare_codes/isin_codes agree with decoded comparison semantics
    (NULL is never true) for every operator and literal position."""

    def make(self):
        data = np.array(
            ["b", None, "a", "c", "b", None, "d"], dtype=object)
        dictionary = Dictionary.build(data)
        return EncodedColumn(dictionary.encode(data), dictionary), data

    def decoded_mask(self, data, op, literal):
        def check(v):
            if v is None or literal is None:
                return False
            return {"=": v == literal, "!=": v != literal,
                    "<": v < literal, "<=": v <= literal,
                    ">": v > literal, ">=": v >= literal}[op]
        return np.array([check(v) for v in data])

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("literal", ["a", "b", "bb", "z", "", None])
    def test_all_ops_and_literals(self, op, literal):
        col, data = self.make()
        got = compare_codes(op, col, literal)
        np.testing.assert_array_equal(
            got, self.decoded_mask(data, op, literal))

    def test_isin_matches_decoded_membership(self):
        col, data = self.make()
        for allowed in (["a", "d"], ["zz"], [], ["b", None]):
            # NULL IN (..., NULL) is not-true, as eval_batch's decoded path.
            expected = np.array([v is not None and v in allowed for v in data])
            np.testing.assert_array_equal(isin_codes(col, allowed), expected)


class TestDifferentialQueries:
    def test_equality_filter(self):
        on, _ = assert_differential(
            "SELECT id FROM t WHERE city = 'berlin' ORDER BY id")
        assert on.metrics.code_path_hits > 0

    def test_inequality_filter(self):
        assert_differential(
            "SELECT count(*) FROM t WHERE city != 'cairo'")

    def test_range_filter(self):
        assert_differential(
            "SELECT count(*) FROM t WHERE city >= 'berlin' AND city < 'dz'")

    def test_absent_literal(self):
        on, _ = assert_differential(
            "SELECT count(*) FROM t WHERE city = 'nowhere'")
        assert on.rows in ([], [(0,)])

    def test_in_list(self):
        assert_differential(
            "SELECT count(*) FROM t WHERE city IN ('athens', 'delhi', 'x')")

    def test_group_by_string_with_nulls(self):
        on, _ = assert_differential(
            "SELECT city, count(*) c, sum(qty) q FROM t "
            "GROUP BY city ORDER BY c, city")
        assert on.metrics.code_path_hits > 0

    def test_group_by_rle_column(self):
        assert_differential(
            "SELECT region, count(*) c FROM t GROUP BY region ORDER BY region")

    def test_order_by_string(self):
        assert_differential(
            "SELECT city, id FROM t WHERE qty = 7 ORDER BY city, id")

    def test_join_on_dict_column(self):
        on, _ = assert_differential(
            "SELECT d.name, count(*) c FROM t "
            "JOIN d ON t.city = d.name GROUP BY d.name ORDER BY d.name",
            db_factory=make_join_db)
        assert on.metrics.code_path_hits > 0

    def test_arithmetic_falls_back(self):
        # String concatenation is not translated; the encoded run counts
        # a fallback but still matches the decoded run exactly.
        on, _ = assert_differential(
            "SELECT count(*) FROM t WHERE city < region")
        assert on.metrics.code_path_fallbacks > 0

    def test_delta_store_rows_mix_with_encoded_groups(self):
        def factory():
            db = make_db(n=2000)
            Executor(db).execute(
                "INSERT INTO t (id, city, region, qty) "
                "VALUES (9001, 'berlin', 'north', 7), "
                "(9002, 'fargo', 'south', 7), (9003, NULL, 'north', 7)")
            return db
        on, _ = assert_differential(
            "SELECT city, count(*) c FROM t WHERE qty = 7 "
            "GROUP BY city ORDER BY c, city", db_factory=factory)
        assert on.metrics.code_path_hits > 0


def numeric_schema():
    return TableSchema("n", [
        Column("id", INT, nullable=False),      # frame-of-reference codes
        Column("bucket", INT, nullable=False),  # long runs -> numeric RLE
        Column("meter", INT),                   # nullable ints, with NULLs
        Column("wide", INT, nullable=False),    # huge span -> decoded path
    ])


def numeric_rows(n=4000):
    return [
        (i, (i * 3) // n, i % 13 if i % 9 else None, i * 40_000)
        for i in range(n)
    ]


def make_numeric_db(n=4000):
    db = Database()
    table = db.create_table(numeric_schema())
    table.bulk_load(numeric_rows(n))
    table.set_primary_columnstore(rowgroup_size=1024)
    return db


class TestNumericCodeSpaceUnit:
    """Derived code spaces for dictionary-less numeric segments."""

    def _segment(self, values, nullable=True):
        arr = values if isinstance(values, np.ndarray) else np.array(values)
        group = compress_rowgroup(
            TableSchema("g", [Column("x", INT, nullable=nullable)]),
            {"x": arr}, rids=np.arange(len(arr)))
        return group.segments["x"]

    def test_numeric_rle_derives_sorted_dictionary(self):
        segment = self._segment(
            np.repeat(np.array([7, 3, 3, 11], dtype=np.int64), 500),
            nullable=False)
        assert segment.encoding == ENCODING_RLE
        assert segment.dictionary is None
        codes, dictionary = segment.code_space()
        assert dictionary.values.tolist() == [3, 7, 11]
        col = EncodedColumn(codes, dictionary)
        np.testing.assert_array_equal(col.materialize(), segment.decode())

    def test_bitpacked_ints_derive_frame_of_reference(self):
        segment = self._segment(
            np.arange(100, 3100, dtype=np.int64), nullable=False)
        code_space = segment.code_space()
        assert code_space is not None
        codes, dictionary = code_space
        # FOR dictionary: contiguous [lo, hi], codes = value - lo.
        assert dictionary.values[0] == 100
        col = EncodedColumn(codes, dictionary)
        np.testing.assert_array_equal(col.materialize(), segment.decode())

    def test_huge_span_has_no_code_space(self):
        segment = self._segment(
            np.arange(3000, dtype=np.int64) * 40_000, nullable=False)
        assert segment.code_space() is None

    def test_derived_code_space_is_cached(self):
        segment = self._segment(
            np.repeat(np.array([1, 2], dtype=np.int64), 1000),
            nullable=False)
        first = segment.code_space()
        assert segment.code_space() is first

    def test_nullable_ints_dictionary_encode_with_null_first(self):
        values = np.array([5, None, 2, 5, None, 9], dtype=object)
        segment = self._segment(values)
        codes, dictionary = segment.code_space()
        assert dictionary.values[0] is None
        col = EncodedColumn(codes, dictionary)
        assert col.materialize().tolist() == segment.decode().tolist()


class TestNumericDifferential:
    """Numeric code paths: identical rows and modeled metrics as the
    decoded reference (the encoded run only changes wall-clock)."""

    def test_rle_group_by_with_sums(self):
        on, _ = assert_differential(
            "SELECT bucket, count(*) c, sum(id) s FROM n "
            "GROUP BY bucket ORDER BY bucket", db_factory=make_numeric_db)
        assert on.metrics.code_path_hits > 0

    def test_aggregates_over_nullable_ints(self):
        assert_differential(
            "SELECT count(*), sum(meter), min(meter), max(meter), "
            "avg(meter) FROM n", db_factory=make_numeric_db)

    def test_equality_filter_on_rle_ints(self):
        on, _ = assert_differential(
            "SELECT count(*) FROM n WHERE bucket = 1",
            db_factory=make_numeric_db)
        assert on.metrics.code_path_hits > 0

    def test_range_filter_on_frame_of_reference_codes(self):
        assert_differential(
            "SELECT count(*) FROM n WHERE id >= 100 AND id < 1000",
            db_factory=make_numeric_db)

    def test_group_by_nullable_ints_with_nulls(self):
        assert_differential(
            "SELECT meter, count(*) c FROM n GROUP BY meter "
            "ORDER BY c, meter", db_factory=make_numeric_db)

    def test_huge_span_column_still_matches(self):
        # 'wide' has no code space: the encoded run serves it decoded
        # and must stay byte-for-byte equivalent.
        assert_differential(
            "SELECT count(*), sum(wide) FROM n WHERE wide > 1000000",
            db_factory=make_numeric_db)

    def test_order_by_numeric_codes(self):
        assert_differential(
            "SELECT bucket, id FROM n WHERE meter = 5 "
            "ORDER BY bucket, id", db_factory=make_numeric_db)

    def test_numeric_delta_store_rows_mix_in(self):
        def factory():
            db = make_numeric_db(n=2000)
            Executor(db).execute(
                "INSERT INTO n (id, bucket, meter, wide) "
                "VALUES (9001, 1, 5, 12), (9002, 2, NULL, 13)")
            return db
        assert_differential(
            "SELECT bucket, count(*) c, sum(meter) s FROM n "
            "GROUP BY bucket ORDER BY bucket", db_factory=factory)


class TestCodeSpaceSortTopN:
    def test_top_n_matches_full_sort(self):
        on, _ = assert_differential(
            "SELECT TOP 10 city, id FROM t ORDER BY city",
            db_factory=make_db)
        assert len(on.rows) == 10

    def test_top_n_descending(self):
        assert_differential(
            "SELECT TOP 7 city FROM t ORDER BY city DESC",
            db_factory=make_db)

    def test_top_n_numeric(self):
        assert_differential(
            "SELECT TOP 5 bucket, id FROM n ORDER BY bucket",
            db_factory=make_numeric_db)

    def test_sort_unit_top_n_prefix_equals_stable_sort(self):
        from repro.engine.batch import Batch
        from repro.engine.operators.sorts import Sort, SortKey

        data = np.array(["b", "a", "c", "a", "b", "a"] * 50, dtype=object)
        dictionary = Dictionary.build(data)
        col = EncodedColumn(dictionary.encode(data), dictionary)
        batch = Batch({"k": col})
        for descending in (False, True):
            sort = Sort.__new__(Sort)
            sort.keys = [SortKey("k", descending=descending)]
            sort.limit = 9
            top = sort._top_n_order(batch, None)
            assert top is not None
            sort.limit = None  # full stable sort for comparison
            full = sort._argsort(batch)
            sort.limit = 9
            np.testing.assert_array_equal(top, full[:9])

    def test_top_n_early_close_releases_grant(self):
        from repro.engine.metrics import ExecutionContext
        from repro.engine.operators.sorts import Sort, SortKey
        from repro.engine.operators.base import PhysicalOperator
        from repro.engine.batch import Batch

        data = np.array(["b", "a", "c"] * 2000, dtype=object)
        dictionary = Dictionary.build(data)

        class _Feed(PhysicalOperator):
            mode = "batch"

            def __init__(self):
                super().__init__(children=())

            @property
            def output_columns(self):
                return ["k"]

            def execute(self, ctx):
                yield Batch(
                    {"k": EncodedColumn(dictionary.encode(data),
                                        dictionary)})

        sort = Sort(_Feed(), [SortKey("k")], limit=3)
        ctx = ExecutionContext()
        gen = sort.execute(ctx)
        first = next(gen)
        assert len(first) >= 3
        gen.close()
        assert ctx.memory_in_use == 0


class TestSpillingAggregates:
    SQL = ("SELECT city, qty, count(*) c, sum(id) s FROM t "
           "GROUP BY city, qty ORDER BY c, city, qty")

    def run_tight(self, enabled):
        with scans(enabled):
            return Executor(make_db(n=6000)).execute(
                self.SQL, memory_grant_bytes=2048)

    def test_spill_differential_under_tight_grant(self):
        on = self.run_tight(True)
        off = self.run_tight(False)
        assert on.metrics.spilled_bytes > 0
        assert on.rows == off.rows
        assert metrics_dict(on) == metrics_dict(off)

    def test_spill_runs_serialize_codes_not_values(self):
        # The modeled spill charge is identical across modes; the real
        # serialized bytes are the compact code representation, tracked
        # as operator-level counters.
        from repro.engine.metrics import ExecutionContext
        from repro.engine.operators import (
            AggregateSpec,
            ColumnstoreScan,
            HashAggregate,
        )
        from repro.engine.expressions import ColumnRef

        db = make_db(n=6000)
        table = db.table("t")
        agg = HashAggregate(
            ColumnstoreScan(table, table.primary, ["city", "qty"]),
            ["city", "qty"],
            [AggregateSpec("count", None, "c")])
        ctx = ExecutionContext(memory_grant_bytes=2048)
        list(agg.execute(ctx))
        assert agg.spilled
        assert agg.spill_bytes_written > 0
        assert agg.spill_bytes_written < agg.spill_bytes_decoded
        assert "SPILLED" in agg.describe()


class TestConcurrentEncodedSessions:
    def test_four_sessions_scans_match_serial_decoded(self):
        import threading

        from repro.server.session import SessionManager

        sqls = [
            "SELECT city, count(*) c FROM t GROUP BY city ORDER BY c, city",
            "SELECT count(*) FROM t WHERE city >= 'berlin'",
            "SELECT region, sum(qty) q FROM t GROUP BY region ORDER BY region",
            "SELECT count(*) FROM t WHERE city IN ('athens', 'delhi')",
        ]
        expected = {
            sql: run_query(lambda: make_db(n=8000), sql, enabled=False).rows
            for sql in sqls
        }
        db = make_db(n=8000)
        results = {}
        errors = []

        def worker(sql):
            try:
                with manager.session(cold=True) as session:
                    results[sql] = session.execute(sql).rows
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append((sql, exc))

        with SessionManager(db) as manager:
            threads = [threading.Thread(target=worker, args=(sql,))
                       for sql in sqls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert results == expected


class TestScanProducesEncodedColumns:
    def test_rle_segment_served_as_codes(self):
        data = rows(3000)
        group = compress_rowgroup(
            TableSchema("g", [Column("region", varchar(8))]),
            {"region": np.array([r[2] for r in data], dtype=object)},
            rids=np.arange(len(data)))
        segment = group.segments["region"]
        assert segment.encoding == ENCODING_RLE
        assert segment.dictionary is not None
        col = EncodedColumn(segment.codes_array(), segment.dictionary)
        np.testing.assert_array_equal(col.materialize(), segment.decode())

    def test_scan_counts_late_materialized_columns(self):
        db = make_db(n=1000)
        res = Executor(db).execute("SELECT city FROM t WHERE id < 10")
        assert res.metrics.columns_late_materialized > 0

"""Tests for per-operator spans and EXPLAIN ANALYZE.

The core differential invariant: for every plan shape, the sum of the
per-node span charges equals the statement's QueryMetrics totals — no
charge is lost and none is double-attributed.
"""

import json

import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.executor import Executor
from repro.engine.metrics import SPAN_ATTRIBUTED_FIELDS, ExecutionContext
from repro.engine.query_store import QueryStore
from repro.storage.database import Database


def build_db(design="btree", n=4000):
    db = Database()
    schema = TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", INT, nullable=False),
        Column("s", varchar(10)),
    ])
    table = db.create_table(schema)
    table.bulk_load([(i, i % 16, f"name{i % 7:03d}") for i in range(n)])
    if design == "btree":
        table.set_primary_btree(["a"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=1024)
    dim_schema = TableSchema("u", [
        Column("k", INT, nullable=False),
        Column("v", INT, nullable=False),
    ])
    dim = db.create_table(dim_schema)
    dim.bulk_load([(i, i * 100) for i in range(16)])
    dim.set_primary_btree(["k"])
    return db


def assert_span_sums_match(result):
    root = result.root_span
    assert root is not None
    for field in SPAN_ATTRIBUTED_FIELDS:
        statement_total = getattr(result.metrics, field)
        span_total = root.total(field)
        if isinstance(statement_total, int):
            assert span_total == statement_total, field
        else:
            assert span_total == pytest.approx(
                statement_total, rel=1e-9, abs=1e-12), field


PLAN_SHAPES = [
    # (name, design, sql, execute kwargs)
    ("row_mode_seek_sort", "btree",
     "SELECT a, b FROM t WHERE a BETWEEN 100 AND 1200 ORDER BY b", {}),
    ("batch_mode_csi_groupby", "csi",
     "SELECT b, count(*) c, sum(a) q FROM t GROUP BY b", {}),
    ("encoded_string_groupby", "csi",
     "SELECT s, count(*) c FROM t GROUP BY s", {}),
    ("spilling_sort", "btree",
     "SELECT a, b, s FROM t ORDER BY b",
     {"memory_grant_bytes": 1024}),
    ("cold_csi_scan", "csi",
     "SELECT sum(a) q FROM t WHERE b < 8", {"cold": True}),
    ("cold_btree_seek", "btree",
     "SELECT a, b FROM t WHERE a < 500", {"cold": True}),
    ("hash_join_groupby", "csi",
     "SELECT u.v, count(*) c FROM t JOIN u ON t.b = u.k GROUP BY u.v", {}),
    ("top_early_close", "btree",
     "SELECT TOP 7 a, b FROM t ORDER BY b", {}),
]


class TestSpanSumInvariant:
    @pytest.mark.parametrize(
        "name,design,sql,kwargs",
        PLAN_SHAPES, ids=[shape[0] for shape in PLAN_SHAPES])
    def test_span_sums_equal_statement_totals(self, name, design, sql,
                                              kwargs):
        result = Executor(build_db(design)).execute(sql, **kwargs)
        assert_span_sums_match(result)

    def test_spilling_shape_actually_spills(self):
        result = Executor(build_db("btree")).execute(
            "SELECT a, b, s FROM t ORDER BY b", memory_grant_bytes=1024)
        assert result.metrics.spilled_bytes > 0
        assert_span_sums_match(result)

    def test_encoded_shape_takes_code_path(self):
        result = Executor(build_db("csi")).execute(
            "SELECT s, count(*) c FROM t GROUP BY s")
        assert result.metrics.code_path_hits > 0
        assert_span_sums_match(result)

    def test_cold_shape_reads_pages(self):
        result = Executor(build_db("csi")).execute(
            "SELECT sum(a) q FROM t WHERE b < 8", cold=True)
        assert result.metrics.pages_read > 0
        assert_span_sums_match(result)

    def test_dml_charges_land_on_statement_span(self):
        db = build_db("btree")
        result = Executor(db).execute(
            "UPDATE t SET b = 0 WHERE a < 10", cold=True)
        assert result.rows_affected == 10
        assert_span_sums_match(result)
        # DML has no operator tree: everything is statement overhead.
        assert result.root_span.children == []
        assert result.root_span.pages_read == result.metrics.pages_read


class TestSpanTree:
    def test_span_tree_mirrors_operator_tree(self):
        result = Executor(build_db("btree")).execute(
            "SELECT a, b FROM t WHERE a BETWEEN 100 AND 1200 ORDER BY b")
        root = result.root_span
        assert len(root.children) == 1
        top = root.children[0]
        assert top.operator is not None
        # A range template runs a kept tree: the operators describe the
        # execution's values, its ``ctx.params``, which the plan carries.
        shown = ExecutionContext()
        shown.params = result.plan.params

        def check(span, operator):
            assert span.operator is operator
            assert span.label == operator.describe(shown)
            assert len(span.children) == len(operator.children)
            for child_span, child_op in zip(span.children,
                                            operator.children):
                check(child_span, child_op)

        check(top, top.operator)

    def test_top_operator_rows_match_rows_returned(self):
        result = Executor(build_db("csi")).execute(
            "SELECT b, count(*) c FROM t GROUP BY b")
        assert result.root_span.children[0].rows_out == \
            result.metrics.rows_returned == 16

    def test_operators_carry_plan_nodes_with_estimates(self):
        result = Executor(build_db("btree")).execute(
            "SELECT a, b FROM t WHERE a < 100 ORDER BY b")
        for span in result.root_span.walk():
            if span.operator is not None:
                assert span.operator.plan_node is not None
                assert span.operator.plan_node.est_rows >= 0

    def test_memory_peak_attributed_to_sort(self):
        result = Executor(build_db("btree")).execute(
            "SELECT a, b FROM t ORDER BY b")
        peaks = {span.label: span.memory_peak_bytes
                 for span in result.root_span.walk()}
        sort_peaks = [v for k, v in peaks.items() if k.startswith("Sort")]
        assert sort_peaks and sort_peaks[0] > 0

    def test_span_stack_corruption_detected(self):
        from repro.core.errors import ExecutionError
        ctx = ExecutionContext()
        span = ctx.begin_operator_span(None)
        ctx.push_span(span)
        with pytest.raises(ExecutionError):
            ctx.pop_span(ctx.root_span)


class TestAnalyzedQueryRendering:
    def test_format_shows_estimates_and_actuals(self):
        analyzed = Executor(build_db("btree")).explain_analyze(
            "SELECT a, b FROM t WHERE a BETWEEN 100 AND 1200 ORDER BY b")
        text = analyzed.format()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "est rows=" in text
        assert "actual rows=" in text
        assert "Sort" in text and "BTreeSeek" in text
        assert "statement overhead" in text

    def test_format_flags_never_executed_subtrees(self):
        analyzed = Executor(build_db("btree")).explain_analyze(
            "SELECT TOP 0 a FROM t")
        assert "[never executed]" in analyzed.format()

    def test_chrome_trace_structure(self):
        analyzed = Executor(build_db("csi")).explain_analyze(
            "SELECT b, count(*) c FROM t GROUP BY b")
        trace = analyzed.to_chrome_trace()
        events = trace["traceEvents"]
        spans = list(analyzed.root_span.walk())
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(spans)
        by_name = {e["name"]: e for e in complete}
        root_event = by_name["<statement>"]
        # Root duration is the statement's inclusive modeled elapsed time.
        assert root_event["dur"] / 1000.0 == pytest.approx(
            analyzed.result.metrics.elapsed_ms, rel=1e-6, abs=1e-3)
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            # Children fit inside the root interval.
            assert event["ts"] + event["dur"] <= \
                root_event["ts"] + root_event["dur"] + 1e-6
        assert json.dumps(trace)  # serializable

    def test_trace_args_carry_actuals(self):
        analyzed = Executor(build_db("csi")).explain_analyze(
            "SELECT b, count(*) c FROM t GROUP BY b")
        events = analyzed.to_chrome_trace()["traceEvents"]
        scan = [e for e in events
                if e["ph"] == "X" and "ColumnstoreScan" in e["name"]]
        assert scan
        assert scan[0]["args"]["rows_out"] == 4000
        assert scan[0]["args"]["mode"] == "batch"


class TestQueryStoreNodeStats:
    def test_node_stats_recorded_per_fingerprint(self):
        store = QueryStore()
        executor = Executor(build_db("btree"), query_store=store)
        sql = "SELECT b, count(*) c FROM t GROUP BY b"
        executor.execute(sql)
        executor.execute(sql)
        stats = store.stats(sql)
        assert stats is not None and stats.recorded == 2
        summary = stats.node_summary()
        assert summary
        labels = [node.op for node in summary]
        assert "<statement>" in labels
        scans = [node for node in summary if "Seek" in node.op
                 or "Scan" in node.op]
        assert scans and scans[0].executions == 2
        assert scans[0].total_rows > 0

    def test_plan_change_report_names_changed_operator(self):
        db = build_db("btree")
        store = QueryStore()
        executor = Executor(db, query_store=store)
        sql = "SELECT b, count(*) c, sum(a) q FROM t GROUP BY b"
        executor.execute(sql)
        db.table("t").create_secondary_columnstore("csi_t")
        executor.refresh()
        executor.execute(sql)
        stats = store.stats(sql)
        assert stats.had_plan_change
        report = store.plan_change_report(sql)
        assert "+ColumnstoreScan" in report
        assert "-BTreeSeek" in report


class TestAnalyzeCli:
    def test_cli_analyze_prints_tree_and_writes_trace(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main
        trace_path = tmp_path / "trace.json"
        rc = main([
            "analyze", "SELECT n_name FROM nation ORDER BY n_name",
            "--workload", "tpch", "--scale", "0.01",
            "--trace", str(trace_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual rows=" in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]

"""Tests for the DMV-style system views (repro.engine.dmv) and the
always-on telemetry feeding them (repro.storage.telemetry).

Covers the SQL surface (each view selectable, filterable, joinable
through the normal parser/binder/executor path), the recording
semantics (seek vs scan vs lookup vs update, statement granularity,
missing-index observations, what-if isolation), counter lifetime across
rebuild/reorganize, the JSON/Prometheus exports, and the advisor
integrations (missing-index seeding; unused-index report).
"""

import pytest

from repro.advisor.advisor import TuningAdvisor
from repro.advisor.candidates import missing_index_candidates
from repro.advisor.workload import Workload
from repro.core.errors import SqlError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.dmv import (
    SYSTEM_VIEW_NAMES,
    build_view,
    snapshot,
    to_prometheus,
    unused_index_report,
    view_schema,
)
from repro.engine.executor import Executor
from repro.engine.query_store import QueryStore
from repro.optimizer.catalog import Catalog
from repro.optimizer.whatif import WhatIfSession, hypothetical_btree
from repro.storage.bufferpool import PAGE_BYTES, BufferPool
from repro.storage.database import Database
from repro.storage.telemetry import IndexUsageStats, LogicalClock
from repro.storage.waits import WAIT_TYPES


def make_db(n_rows: int = 2000) -> Database:
    """orders(o_id, o_cust, o_status, o_amt) clustered on o_id."""
    database = Database()
    orders = database.create_table(TableSchema("orders", [
        Column("o_id", INT, nullable=False),
        Column("o_cust", INT, nullable=False),
        Column("o_status", varchar(1)),
        Column("o_amt", INT),
    ]))
    orders.bulk_load([
        (i, i % 97, "NPS"[i % 3], i * 3) for i in range(n_rows)
    ])
    orders.set_primary_btree(["o_id"])
    return database


def make_hybrid_db(n_rows: int = 4000) -> Database:
    """make_db plus a secondary columnstore and a secondary B+ tree."""
    database = make_db(n_rows)
    orders = database.table("orders")
    orders.create_secondary_columnstore("csi_orders", rowgroup_size=1024)
    orders.create_secondary_btree("ix_cust", ["o_cust"],
                                  included_columns=["o_amt"])
    return database


def usage_of(database, table, index):
    return database.table(table).index_by_name(index).usage


class TestSqlSurface:
    def test_every_view_is_selectable(self):
        executor = Executor(make_hybrid_db())
        for name in SYSTEM_VIEW_NAMES:
            result = executor.execute(f"SELECT * FROM {name}")
            expected = [c.name for c in view_schema(name).columns]
            assert result.columns == expected

    def test_views_selectable_on_empty_database(self):
        executor = Executor(Database())
        for name in SYSTEM_VIEW_NAMES:
            result = executor.execute(f"SELECT * FROM {name}")
            if name == "dm_os_memory_cache_counters":
                # The caches always exist, even in an empty db.
                assert [row[0] for row in result.rows] == [
                    "segment_cache", "statement_cache", "plan_cache"]
            elif name == "dm_os_wait_stats":
                # Every canonical wait type is present (zeros included),
                # like the real view.
                assert [row[0] for row in result.rows] == list(WAIT_TYPES)
                assert all(row[1] == 0 for row in result.rows)
            elif name == "dm_xe_ring_buffer":
                # The SELECTs of this very loop emit statement events.
                assert any(row[2] == "statement_begin"
                           for row in result.rows)
            else:
                assert result.rows == []

    def test_explain_plans_a_view_without_running_a_statement(self):
        """Executing the text always worked; EXPLAIN raised
        ``CatalogError: no table named ...``."""
        database = make_db()
        executor = Executor(database)
        sql = "SELECT cache_name FROM dm_os_memory_cache_counters"
        assert "SCAN dm_os_memory_cache_counters" in executor.explain(sql)
        assert database.telemetry.clock.now == 0
        assert database.events.emitted == 0
        assert executor.plan(sql).explain() == executor.execute(
            sql).plan.explain()

    def test_usage_view_filterable(self):
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders "
                         "WHERE o_id BETWEEN 5 AND 9")
        result = executor.execute(
            "SELECT index_name, user_seeks FROM dm_db_index_usage_stats "
            "WHERE user_seeks > 0")
        assert ("orders_pk_btree", 1) in result.rows
        assert all(row[1] > 0 for row in result.rows)

    def test_views_joinable_with_each_other(self):
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders GROUP BY o_status")
        result = executor.execute(
            "SELECT u.index_name un, g.state st "
            "FROM dm_db_index_usage_stats u "
            "JOIN dm_db_column_store_row_group_physical_stats g "
            "ON u.index_name = g.index_name")
        assert result.rows
        assert all(row[0] == "csi_orders" for row in result.rows)

    def test_view_joinable_with_ordinary_query_shape(self):
        database = make_hybrid_db()
        executor = Executor(database)
        result = executor.execute(
            "SELECT count(*) c FROM dm_db_index_usage_stats "
            "WHERE table_name = 'orders'")
        assert result.scalar() == 3  # pk btree + csi + ix_cust

    def test_order_by_and_aggregate_over_view(self):
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders "
                         "WHERE o_id BETWEEN 1 AND 3")
        result = executor.execute(
            "SELECT index_name, user_seeks FROM dm_db_index_usage_stats "
            "ORDER BY index_name")
        names = [row[0] for row in result.rows]
        assert names == sorted(names)

    def test_dml_against_view_is_rejected(self):
        executor = Executor(make_db())
        with pytest.raises(SqlError, match="read-only"):
            executor.execute(
                "UPDATE dm_db_index_usage_stats SET user_seeks = 0 "
                "WHERE user_seeks > 0")
        with pytest.raises(SqlError, match="read-only"):
            executor.execute(
                "DELETE FROM dm_db_missing_index_details "
                "WHERE statement_count > 0")

    def test_real_table_shadows_view_name(self):
        database = make_db()
        shadow = database.create_table(TableSchema(
            "dm_db_index_usage_stats", [
                Column("table_name", varchar(16), nullable=False),
                Column("x", INT),
            ]))
        shadow.bulk_load([("mine", 1)])
        executor = Executor(database)
        result = executor.execute(
            "SELECT table_name, x FROM dm_db_index_usage_stats")
        assert result.rows == [("mine", 1)]

    def test_view_snapshot_is_refreshed_per_statement(self):
        database = make_db()
        executor = Executor(database)
        before = executor.execute(
            "SELECT user_seeks FROM dm_db_index_usage_stats "
            "WHERE index_name = 'orders_pk_btree'").scalar()
        executor.execute("SELECT sum(o_amt) FROM orders "
                         "WHERE o_id BETWEEN 0 AND 4")
        after = executor.execute(
            "SELECT user_seeks FROM dm_db_index_usage_stats "
            "WHERE index_name = 'orders_pk_btree'").scalar()
        assert after == before + 1


class TestRecordingSemantics:
    def test_range_query_records_seek(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders "
                         "WHERE o_id BETWEEN 10 AND 20")
        usage = usage_of(database, "orders", "orders_pk_btree")
        assert usage.user_seeks == 1
        assert usage.user_scans == 0
        assert usage.last_user_seek == 1

    def test_full_scan_records_scan(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders")
        usage = usage_of(database, "orders", "orders_pk_btree")
        assert usage.user_scans == 1
        assert usage.user_seeks == 0

    def test_secondary_seek_records_primary_lookup(self):
        database = make_db()
        orders = database.table("orders")
        orders.create_secondary_btree("ix_cust", ["o_cust"])
        executor = Executor(database)
        executor.execute("SELECT sum(o_id) FROM orders WHERE o_cust = 11")
        secondary = usage_of(database, "orders", "ix_cust")
        primary = usage_of(database, "orders", "orders_pk_btree")
        assert secondary.user_seeks == 1
        # Bookmark lookups count against the primary structure.
        assert primary.user_lookups > 0

    def test_update_counts_once_per_statement_on_every_index(self):
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("UPDATE TOP (50) orders SET o_amt += 1 "
                         "WHERE o_id >= 0")
        for index_name in ("orders_pk_btree", "csi_orders", "ix_cust"):
            usage = usage_of(database, "orders", index_name)
            assert usage.user_updates == 1, index_name

    def test_delete_statement_records_update(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("DELETE TOP (10) FROM orders WHERE o_id < 100")
        assert usage_of(
            database, "orders", "orders_pk_btree").user_updates == 1

    def test_noop_dml_records_nothing(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("DELETE FROM orders WHERE o_id = -1")
        assert usage_of(
            database, "orders", "orders_pk_btree").user_updates == 0

    def test_bulk_load_and_internal_reads_record_nothing(self):
        database = make_hybrid_db()
        from repro.storage.checker import check_database
        check_database(database)
        from repro.optimizer.statistics import build_table_stats
        build_table_stats(database.table("orders"))
        for structure in database.table("orders").all_indexes:
            usage = structure.usage
            assert usage.total_reads == 0
            assert usage.user_updates == 0

    def test_csi_segment_counts_attributed_per_index(self):
        database = make_db(8000)
        orders = database.table("orders")
        orders.create_secondary_columnstore("csi_orders",
                                            rowgroup_size=1024)
        executor = Executor(database)
        result = executor.execute(
            "SELECT sum(o_amt) FROM orders WHERE o_amt < 300")
        usage = usage_of(database, "orders", "csi_orders")
        if result.metrics.segments_read or result.metrics.segments_skipped:
            assert usage.segments_scanned == result.metrics.segments_read
            assert usage.segments_skipped == result.metrics.segments_skipped

    def test_clock_stamps_are_statement_sequence_numbers(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders")          # stmt 1
        executor.execute("SELECT sum(o_amt) FROM orders "
                         "WHERE o_id BETWEEN 1 AND 2")             # stmt 2
        usage = usage_of(database, "orders", "orders_pk_btree")
        assert usage.last_user_scan == 1
        assert usage.last_user_seek == 2
        assert database.telemetry.clock.now == 2


class TestCounterLifetime:
    def test_counters_survive_rebuild_and_reorganize(self):
        # Policy: usage stats live on the index object, so REBUILD and
        # REORGANIZE preserve them (SQL Server 2016 SP2+ behaviour).
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders GROUP BY o_status")
        executor.execute("UPDATE TOP (20) orders SET o_amt += 1 "
                         "WHERE o_id >= 0")
        csi = database.table("orders").index_by_name("csi_orders")
        before = (csi.usage.user_scans, csi.usage.user_updates)
        csi.rebuild()
        assert (csi.usage.user_scans, csi.usage.user_updates) == before
        csi.reorganize()
        assert (csi.usage.user_scans, csi.usage.user_updates) == before

    def test_reset_clears_counters(self):
        usage = IndexUsageStats(clock=LogicalClock())
        usage.clock.advance()
        usage.record_seek()
        usage.record_update()
        usage.reset()
        assert usage.user_seeks == 0
        assert usage.user_updates == 0
        assert usage.last_user_seek == 0


class TestMissingIndexTelemetry:
    def test_selective_unserved_predicate_is_recorded(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders WHERE o_cust = 13")
        details = database.telemetry.missing_indexes()
        assert len(details) == 1
        detail = details[0]
        assert detail.table_name == "orders"
        assert detail.equality_columns == ("o_cust",)
        assert detail.inequality_columns == ()
        assert "o_amt" in detail.included_columns
        assert detail.statement_count == 1
        assert 0 < detail.avg_selectivity <= 0.25

    def test_observations_fold_by_column_signature(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders WHERE o_cust = 13")
        executor.execute("SELECT count(*) c FROM orders WHERE o_cust = 40")
        details = database.telemetry.missing_indexes()
        assert len(details) == 1
        assert details[0].statement_count == 2

    def test_served_predicate_not_recorded(self):
        database = make_db()
        orders = database.table("orders")
        orders.create_secondary_btree("ix_cust", ["o_cust"])
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders WHERE o_cust = 13")
        assert database.telemetry.missing_indexes() == []

    def test_unselective_predicate_not_recorded(self):
        database = make_db()
        executor = Executor(database)
        # o_cust < 90 matches ~93% of rows: not a missing-index case.
        executor.execute("SELECT sum(o_amt) FROM orders WHERE o_cust < 90")
        assert database.telemetry.missing_indexes() == []

    def test_whatif_probing_never_pollutes_telemetry(self):
        database = make_db()
        catalog = Catalog(database)
        session = WhatIfSession(database, catalog)
        workload = Workload.from_sql(
            ["SELECT sum(o_amt) FROM orders WHERE o_cust = 13"], database)
        bound = workload.statements[0].bound
        hypo = hypothetical_btree("orders", ["o_cust"], ["o_amt"],
                                  n_rows=2000)
        config = session.configuration_with([hypo])
        session.cost_query(bound, config)
        assert database.telemetry.missing_indexes() == []

    def test_dmv_queries_never_record_missing_indexes(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT table_name FROM dm_db_missing_index_details "
                         "WHERE statement_count > 5")
        assert database.telemetry.missing_indexes() == []


class TestAdvisorIntegration:
    def test_missing_index_candidates_built_from_telemetry(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders WHERE o_cust = 13")
        catalog = Catalog(database)
        candidates = missing_index_candidates(database, catalog)
        assert len(candidates) == 1
        descriptor = candidates[0]
        assert descriptor.hypothetical
        assert descriptor.table_name == "orders"
        assert tuple(descriptor.key_columns) == ("o_cust",)
        assert "o_amt" in descriptor.included_columns
        assert descriptor.name.startswith("mi_orders_")

    def test_stale_observations_are_skipped(self):
        database = make_db()
        database.telemetry.record_missing_index(
            "ghost_table", ("a",), (), (), selectivity=0.01)
        database.telemetry.record_missing_index(
            "orders", ("no_such_column",), (), (), selectivity=0.01)
        assert missing_index_candidates(database, Catalog(database)) == []

    def test_tune_seeds_candidates_from_telemetry(self):
        database = make_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders WHERE o_cust = 13")
        # A tuning workload that on its own would not generate the
        # o_cust candidate: a pure rollup with no sargable predicate.
        advisor = TuningAdvisor(database)
        workload = Workload.from_sql(
            ["SELECT sum(o_amt) FROM orders GROUP BY o_status"], database)
        seeded = advisor.tune(workload)
        unseeded = advisor.tune(workload, seed_missing_indexes=False)
        assert seeded.n_candidates == unseeded.n_candidates + 1

    def test_unused_index_report(self):
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_id) FROM orders WHERE o_cust = 5")
        executor.execute("UPDATE TOP (10) orders SET o_amt += 1 "
                         "WHERE o_id >= 0")
        report = unused_index_report(database)
        names = [entry["index_name"] for entry in report]
        # ix_cust served the query; the CSI never did, yet pays updates.
        assert "csi_orders" in names
        assert "ix_cust" not in names
        entry = next(e for e in report if e["index_name"] == "csi_orders")
        assert entry["user_updates"] == 1
        assert entry["size_bytes"] > 0


class TestExports:
    def test_snapshot_shape(self):
        database = make_hybrid_db()
        store = QueryStore()
        executor = Executor(database, query_store=store)
        executor.execute("SELECT sum(o_amt) FROM orders GROUP BY o_status")
        snap = snapshot(database, query_store=store)
        assert set(snap) == {"logical_clock", *SYSTEM_VIEW_NAMES}
        assert snap["logical_clock"] == 1
        usage = {(r["table_name"], r["index_name"]): r
                 for r in snap["dm_db_index_usage_stats"]}
        assert usage[("orders", "csi_orders")]["user_scans"] == 1
        assert snap["dm_exec_query_stats"][0]["execution_count"] == 1

    def test_snapshot_of_empty_database(self):
        database = Database()
        snap = snapshot(database)
        assert snap["logical_clock"] == 0
        assert snap["dm_db_index_usage_stats"] == []
        assert snap["dm_db_missing_index_details"] == []
        assert [row["cache_name"]
                for row in snap["dm_os_memory_cache_counters"]] == [
            "segment_cache", "statement_cache", "plan_cache"]

    def test_prometheus_exposition_format(self):
        database = make_hybrid_db()
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders GROUP BY o_status")
        text = to_prometheus(database)
        assert text.endswith("\n")
        lines = text.splitlines()
        helps = {ln.split()[2] for ln in lines if ln.startswith("# HELP")}
        types = {ln.split()[2] for ln in lines if ln.startswith("# TYPE")}
        assert helps == types
        samples = [ln for ln in lines if not ln.startswith("#")]
        for line in samples:
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses as a number
            metric = name_and_labels.split("{", 1)[0]
            assert metric.startswith("repro_")
        assert any(ln.startswith("repro_logical_clock") for ln in samples)
        assert any('index="csi_orders"' in ln for ln in samples)

    def test_prometheus_escapes_label_values(self):
        from repro.engine.dmv import _prom_line
        line = _prom_line("m", {"a": 'x"y\\z\nw'}, 1)
        assert line == 'm{a="x\\"y\\\\z\\nw"} 1'

    def test_prometheus_of_empty_database(self):
        text = to_prometheus(Database())
        assert "repro_logical_clock 0" in text

    def test_memory_cache_counters_with_buffer_pool(self):
        database = make_db()
        pool = BufferPool(budget_bytes=64 * PAGE_BYTES)
        for _ in range(2):      # a miss, then a hit
            pool.get_or_load((1, 0), lambda: (b"page", PAGE_BYTES))
        table = build_view("dm_os_memory_cache_counters", database,
                           buffer_pool=pool)
        rows = {row[0]: row for _, row in table.iter_rows()}
        assert list(rows) == ["segment_cache", "statement_cache",
                              "plan_cache", "buffer_pool"]
        assert rows["buffer_pool"][4] == pool.hits

    def test_segment_cache_counters_reflect_hits(self):
        database = Database(segment_cache_enabled=True)
        orders = database.create_table(TableSchema("orders", [
            Column("o_id", INT, nullable=False),
            Column("o_amt", INT),
        ]))
        orders.bulk_load([(i, i) for i in range(4000)])
        orders.set_primary_columnstore(rowgroup_size=1024)
        executor = Executor(database)
        executor.execute("SELECT sum(o_amt) FROM orders")
        executor.execute("SELECT sum(o_amt) FROM orders")
        result = executor.execute(
            "SELECT hits FROM dm_os_memory_cache_counters "
            "WHERE cache_name = 'segment_cache'")
        assert result.scalar() > 0


    def test_statement_cache_counters_answer_is_my_traffic_templated(self):
        executor = Executor(make_db())
        for o_id in (1, 2, 3, 3):
            executor.execute(f"SELECT o_amt FROM orders WHERE o_id = {o_id}")
        query = ("SELECT entries, bytes_cached, budget_bytes, hits, misses, "
                 "evictions, hit_ratio, enabled FROM "
                 "dm_os_memory_cache_counters "
                 "WHERE cache_name = 'statement_cache'")
        # Four lookups parsed once; this query is a second shape. Entries:
        # three texts and one template, then this text and its template.
        text_bytes = 3 * len("SELECT o_amt FROM orders WHERE o_id = 1")
        assert executor.execute(query).rows == [
            (6, text_bytes + len(query), 0, 3, 2, 0, 0.6, 1)]
        text = to_prometheus(executor.database)
        assert 'repro_cache_hits{cache="statement_cache"} 3' in text
        assert 'repro_cache_entries{cache="statement_cache"} 6' in text

    def test_plan_cache_counters_count_reuse(self):
        executor = Executor(make_db())
        for o_id in (1, 2, 3, 99999):
            executor.execute(f"SELECT o_amt FROM orders WHERE o_id = {o_id}")
        query = ("SELECT entries, bytes_cached, budget_bytes, hits, misses, "
                 "evictions, hit_ratio, enabled FROM "
                 "dm_os_memory_cache_counters WHERE cache_name = 'plan_cache'")
        # One plan per value class: 1 and 99999 were optimized, 2 and 3
        # reused the first. This query is counted after its snapshot.
        assert executor.execute(query).rows == [(2, 0, 0, 2, 2, 0, 0.5, 1)]
        text = to_prometheus(executor.database)
        assert 'repro_cache_hits{cache="plan_cache"} 2' in text
        assert 'repro_cache_misses{cache="plan_cache"} 3' in text


class TestDeterminism:
    def test_identical_runs_produce_identical_snapshots(self):
        import json

        def run():
            database = make_hybrid_db()
            store = QueryStore()
            executor = Executor(database, query_store=store)
            executor.execute("SELECT sum(o_amt) FROM orders "
                             "WHERE o_id BETWEEN 10 AND 40")
            executor.execute("SELECT sum(o_amt) FROM orders "
                             "GROUP BY o_status")
            executor.execute("UPDATE TOP (25) orders SET o_amt += 1 "
                             "WHERE o_cust = 3")
            executor.execute("SELECT count(*) c FROM orders "
                             "WHERE o_cust = 9")
            return json.dumps(snapshot(database, query_store=store),
                              default=str, sort_keys=True)

        assert run() == run()

    def test_prometheus_output_is_deterministic(self):
        def run():
            database = make_hybrid_db()
            executor = Executor(database)
            executor.execute("SELECT sum(o_amt) FROM orders "
                             "WHERE o_cust = 3")
            executor.execute("DELETE TOP (5) FROM orders WHERE o_id < 50")
            return to_prometheus(database)

        assert run() == run()

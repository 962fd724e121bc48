"""Wait-statistics tests: the taxonomy, session attribution, the
differential invariant (per-session sums == server-wide totals), the
DMV surface, and a concurrent 4-session run that provokes genuine
LATCH_EX / RESOURCE_SEMAPHORE waits while the statements' modeled
metrics stay identical to an embedded run."""

import threading
import time

import pytest

from repro.core.errors import ExecutionError
from repro.engine.analyze import AnalyzedQuery
from repro.engine.executor import Executor
from repro.engine.query_store import QueryStore
from repro.server.scheduler import DatabaseLatch, MemoryGrantPool
from repro.server.session import SessionManager
from repro.storage.database import Database
from repro.storage.waits import (
    HISTOGRAM_BUCKETS_MS,
    WAIT_LATCH_EX,
    WAIT_LATCH_SH,
    WAIT_PAGEIOLATCH,
    WAIT_RESOURCE_SEMAPHORE,
    WAIT_TYPES,
    WAIT_WRITELOG,
    WaitAccumulator,
    WaitStatsCollector,
)
from repro.workloads.synthetic import make_uniform_table, q1_scan


def _micro_db(n_rows=40_000, rowgroup_size=4096, seed=5) -> Database:
    database = Database()
    make_uniform_table(database, "micro", n_rows, 2, seed=seed)
    database.table("micro").set_primary_columnstore(
        rowgroup_size=rowgroup_size)
    return database


class TestAccumulator:
    def test_record_tracks_count_sum_max(self):
        acc = WaitAccumulator()
        acc.record(2.0)
        acc.record(7.0)
        acc.record(1.0)
        assert acc.waiting_tasks_count == 3
        assert acc.wait_time_ms == pytest.approx(10.0)
        assert acc.max_wait_time_ms == pytest.approx(7.0)

    def test_histogram_buckets_are_cumulative_ready(self):
        acc = WaitAccumulator()
        acc.record(0.5)      # <= 1
        acc.record(3.0)      # <= 5
        acc.record(2000.0)   # +Inf
        assert len(acc.bucket_counts) == len(HISTOGRAM_BUCKETS_MS) + 1
        assert acc.bucket_counts[0] == 1
        assert acc.bucket_counts[1] == 1
        assert acc.bucket_counts[-1] == 1
        assert sum(acc.bucket_counts) == acc.waiting_tasks_count

    def test_copy_is_independent(self):
        acc = WaitAccumulator()
        acc.record(1.0)
        clone = acc.copy()
        acc.record(1.0)
        assert clone.waiting_tasks_count == 1
        assert acc.waiting_tasks_count == 2


class TestCollector:
    def test_unknown_wait_type_rejected(self):
        collector = WaitStatsCollector()
        with pytest.raises(ValueError):
            collector.record("NO_SUCH_WAIT", 1.0)

    def test_server_stats_always_carries_every_type(self):
        collector = WaitStatsCollector()
        stats = collector.server_stats()
        assert tuple(stats) == WAIT_TYPES
        assert all(acc.waiting_tasks_count == 0 for acc in stats.values())

    def test_unattributed_waits_land_in_session_zero(self):
        collector = WaitStatsCollector()
        collector.record(WAIT_WRITELOG, 2.0)
        sessions = collector.session_stats()
        assert list(sessions) == [0]
        assert sessions[0][WAIT_WRITELOG].waiting_tasks_count == 1

    def test_session_scope_attributes_and_restores(self):
        collector = WaitStatsCollector()
        with collector.session_scope(7):
            assert collector.current_session_id == 7
            with collector.session_scope(9):
                collector.record(WAIT_LATCH_SH, 1.0)
            assert collector.current_session_id == 7
        assert collector.current_session_id == 0
        assert collector.session_stats()[9][
            WAIT_LATCH_SH].waiting_tasks_count == 1

    def test_session_scope_is_thread_local(self):
        collector = WaitStatsCollector()
        seen = []

        def other():
            seen.append(collector.current_session_id)

        with collector.session_scope(3):
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
        assert seen == [0]

    def test_statement_profile_collects_this_threads_waits(self):
        collector = WaitStatsCollector()
        with collector.statement() as profile:
            collector.record(WAIT_LATCH_EX, 2.0)
            collector.record(WAIT_LATCH_EX, 3.0)
            collector.record(WAIT_WRITELOG, 1.0)
        assert profile[WAIT_LATCH_EX][0] == 2
        assert profile[WAIT_LATCH_EX][1] == pytest.approx(5.0)
        assert profile[WAIT_WRITELOG][0] == 1

    def test_reset_clears_server_and_sessions(self):
        collector = WaitStatsCollector()
        with collector.session_scope(2):
            collector.record(WAIT_LATCH_SH, 1.0)
        collector.reset()
        assert collector.total_waits() == 0
        assert collector.session_stats() == {}

    def test_differential_under_concurrent_recording(self):
        """The load-bearing invariant: per-session sums == server-wide
        totals, exactly for counts, approximately for float ms."""
        collector = WaitStatsCollector()

        def worker(session_id):
            with collector.session_scope(session_id):
                for i in range(200):
                    collector.record(
                        WAIT_TYPES[i % len(WAIT_TYPES)],
                        0.1 * session_id)

        threads = [threading.Thread(target=worker, args=(sid,))
                   for sid in (1, 2, 3, 4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server = collector.server_stats()
        sessions = collector.session_stats()
        for wait_type in WAIT_TYPES:
            count = sum(
                buckets[wait_type].waiting_tasks_count
                for buckets in sessions.values() if wait_type in buckets)
            ms = sum(
                buckets[wait_type].wait_time_ms
                for buckets in sessions.values() if wait_type in buckets)
            assert count == server[wait_type].waiting_tasks_count
            assert ms == pytest.approx(server[wait_type].wait_time_ms)


class TestPrimitiveInstrumentation:
    def test_uncontended_acquires_record_nothing(self):
        collector = WaitStatsCollector()
        latch = DatabaseLatch(waits=collector)
        with latch.shared("a"):
            pass
        with latch.exclusive("a"):
            pass
        pool = MemoryGrantPool(capacity_bytes=1000, waits=collector)
        with pool.grant(500):
            pass
        assert collector.total_waits() == 0

    def test_blocked_grant_records_resource_semaphore(self):
        collector = WaitStatsCollector()
        pool = MemoryGrantPool(capacity_bytes=1000, waits=collector)
        holding, release = threading.Event(), threading.Event()

        def holder():
            with pool.grant(900):
                holding.set()
                release.wait()

        thread = threading.Thread(target=holder)
        thread.start()
        holding.wait()

        def waiter():
            with pool.grant(900):
                pass

        blocked = threading.Thread(target=waiter)
        blocked.start()
        time.sleep(0.05)
        release.set()
        blocked.join(timeout=5)
        thread.join(timeout=5)
        acc = collector.server_stats()[WAIT_RESOURCE_SEMAPHORE]
        assert acc.waiting_tasks_count == 1
        assert acc.wait_time_ms > 0

    def test_grant_timeout_raises_and_counts(self):
        collector = WaitStatsCollector()
        pool = MemoryGrantPool(capacity_bytes=1000, waits=collector)
        holding, release = threading.Event(), threading.Event()

        def holder():
            with pool.grant(1000):
                holding.set()
                release.wait()

        thread = threading.Thread(target=holder)
        thread.start()
        holding.wait()
        with pytest.raises(ExecutionError, match="timed out"):
            with pool.grant(1000, timeout_s=0.05):
                pass
        release.set()
        thread.join(timeout=5)
        assert pool.grant_timeouts == 1
        # The timed-out wait still accumulates under the taxonomy.
        acc = collector.server_stats()[WAIT_RESOURCE_SEMAPHORE]
        assert acc.waiting_tasks_count == 1
        assert acc.wait_time_ms >= 40.0

    def test_blocked_latch_records_both_modes(self):
        collector = WaitStatsCollector()
        latch = DatabaseLatch(waits=collector)
        entered, release = threading.Event(), threading.Event()

        def writer():
            with latch.exclusive("w"):
                entered.set()
                release.wait()

        thread = threading.Thread(target=writer)
        thread.start()
        entered.wait()

        def reader():
            with latch.shared("r"):
                pass

        def second_writer():
            with latch.exclusive("w2"):
                pass

        blocked = [threading.Thread(target=reader),
                   threading.Thread(target=second_writer)]
        for t in blocked:
            t.start()
        time.sleep(0.05)
        release.set()
        for t in blocked:
            t.join(timeout=5)
        thread.join(timeout=5)
        stats = collector.server_stats()
        assert stats[WAIT_LATCH_SH].waiting_tasks_count == 1
        assert stats[WAIT_LATCH_EX].waiting_tasks_count == 1
        assert latch.shared_waits == 1
        assert latch.exclusive_waits == 1

    def test_reset_stats_zeroes_scheduler_counters(self):
        pool = MemoryGrantPool(capacity_bytes=1000)
        with pool.grant(400):
            pass
        latch = DatabaseLatch()
        with latch.shared("a"):
            pass
        pool.reset_stats()
        latch.reset_stats()
        assert pool.grants_admitted == 0
        assert pool.grant_waits == 0
        assert pool.total_wait_ms == 0.0
        assert latch.shared_waits == 0
        assert latch.exclusive_waits == 0
        assert latch.total_wait_ms == 0.0


class TestEngineIntegration:
    def test_writelog_recorded_on_durable_commit(self, tmp_path):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        database.enable_durability(str(tmp_path / "data"))
        executor = Executor(database)
        executor.execute("UPDATE TOP (10) micro SET col2 += 1 "
                         "WHERE col1 >= 0")
        acc = database.waits.server_stats()[WAIT_WRITELOG]
        assert acc.waiting_tasks_count >= 1
        assert database.wal.flushes >= 1

    def test_wal_counter_rows_in_wait_stats_view(self, tmp_path):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        database.enable_durability(str(tmp_path / "data"))
        executor = Executor(database)
        executor.execute("UPDATE TOP (5) micro SET col2 += 1 "
                         "WHERE col1 >= 0")
        result = executor.execute(
            "SELECT wait_type, waiting_tasks_count FROM dm_os_wait_stats")
        rows = dict(result.rows)
        assert set(rows) == set(WAIT_TYPES) | {"WAL_FLUSH", "WAL_FSYNC"}
        assert rows["WAL_FLUSH"] >= 1

    def test_pageiolatch_recorded_on_demand_paging(self, tmp_path):
        database = _micro_db(n_rows=4000, rowgroup_size=1024)
        database.save(str(tmp_path / "paged"))
        reopened = Database.open(str(tmp_path / "paged"), paging=True)
        Executor(reopened).execute("SELECT sum(col1) FROM micro")
        acc = reopened.waits.server_stats()[WAIT_PAGEIOLATCH]
        assert acc.waiting_tasks_count >= 1
        assert reopened.buffer_pool.misses >= 1

    def test_statement_wait_profile_and_analyze_line(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        store = QueryStore()
        with SessionManager(database, query_store=store) as manager:
            with manager.session() as blocked:
                with manager.session() as holder:
                    entered, release = threading.Event(), threading.Event()
                    results = []

                    def hold_txn():
                        with holder.transaction():
                            entered.set()
                            release.wait()

                    thread = threading.Thread(target=hold_txn)
                    thread.start()
                    entered.wait()

                    def run_blocked():
                        results.append(blocked.execute(
                            "SELECT sum(col1) FROM micro"))

                    runner = threading.Thread(target=run_blocked)
                    runner.start()
                    time.sleep(0.05)
                    release.set()
                    runner.join(timeout=10)
                    thread.join(timeout=10)
        (result,) = results
        assert WAIT_LATCH_SH in result.wait_profile
        assert result.wait_profile[WAIT_LATCH_SH]["count"] == 1
        # EXPLAIN ANALYZE surfaces the same profile as a waits: line.
        text = AnalyzedQuery("SELECT sum(col1) FROM micro", result).format()
        assert "waits: " in text
        assert WAIT_LATCH_SH in text
        # ...and the Query Store accumulated it per statement.
        stats = store.stats("SELECT sum(col1) FROM micro")
        assert stats.wait_count[WAIT_LATCH_SH] == 1
        assert stats.wait_time_ms[WAIT_LATCH_SH] > 0

    def test_uncontended_statement_has_empty_profile(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        result = Executor(database).execute("SELECT sum(col1) FROM micro")
        assert result.wait_profile == {}
        text = AnalyzedQuery("q", result).format()
        assert "waits: " not in text


class TestConcurrentSessions:
    """The acceptance scenario: 4 sessions, a grant pool sized to one
    default grant — LATCH_EX and RESOURCE_SEMAPHORE both accumulate, the
    per-session ledgers sum exactly to the server ledger, and modeled
    metrics equal an embedded run's.

    The overlap is arranged, not hoped for: the test holds the latch
    (a ``transaction()``) and the pool's one grant until it has seen
    every client queue on the first and then one on the second."""

    N_SESSIONS = 4
    ROUNDS = 3

    @staticmethod
    def _until(condition):
        deadline = time.monotonic() + 30.0
        while not condition():
            assert time.monotonic() < deadline, "the clients never queued"
            time.sleep(0.001)

    def _run_contended(self):
        database = _micro_db()
        # DML goes to a side table so the SELECT's modeled costs are
        # untouched by concurrent updates.
        from repro.core.schema import Column, TableSchema
        from repro.core.types import INT
        side = database.create_table(TableSchema("side", [
            Column("k", INT, nullable=False),
            Column("v", INT),
        ]))
        side.bulk_load([(i, 0) for i in range(256)])
        select_sql = q1_scan(10.0)
        update_sql = "UPDATE TOP (8) side SET v += 1 WHERE k >= 0"
        capacity = database.cost_model.default_memory_grant_bytes
        select_results = {}

        with SessionManager(database,
                            grant_capacity_bytes=capacity) as manager:
            latch, grants = manager.admission.latch, manager.admission.grants

            def client():
                with manager.session(cold=True) as session:
                    for _ in range(self.ROUNDS):
                        session.execute(update_sql)
                        result = session.execute(select_sql)
                    select_results[session.session_id] = result

            threads = [threading.Thread(target=client)
                       for _ in range(self.N_SESSIONS)]
            with manager.session() as holder, grants.grant(capacity):
                with holder.transaction():
                    for thread in threads:
                        thread.start()
                    # Every client's UPDATE is queued behind the holder.
                    self._until(
                        lambda: latch._waiting_writers == self.N_SESSIONS)
                # The latch is free and the grant is not: the first
                # writer through queues for it.
                self._until(lambda: len(grants._waiters) == 1)
            for thread in threads:
                thread.join()
        return database, select_sql, select_results

    def test_contention_populates_taxonomy_and_differential_holds(self):
        database, select_sql, select_results = self._run_contended()
        server = database.waits.server_stats()
        assert server[WAIT_LATCH_EX].waiting_tasks_count > 0
        assert server[WAIT_RESOURCE_SEMAPHORE].waiting_tasks_count > 0

        # Differential: per-session sums reproduce the server ledger
        # exactly (counts) / to float tolerance (ms).
        sessions = database.waits.session_stats()
        for wait_type in WAIT_TYPES:
            count = sum(
                buckets[wait_type].waiting_tasks_count
                for buckets in sessions.values() if wait_type in buckets)
            ms = sum(
                buckets[wait_type].wait_time_ms
                for buckets in sessions.values() if wait_type in buckets)
            assert count == server[wait_type].waiting_tasks_count
            assert ms == pytest.approx(server[wait_type].wait_time_ms)

        # The same SELECT on a fresh identical database, embedded: modeled
        # metrics are identical — waits are observation only and never
        # leak into the figures' numbers.
        reference = Executor(_micro_db()).execute(select_sql, cold=True)
        for result in select_results.values():
            assert result.metrics == reference.metrics

    def test_wait_views_queryable_during_serving(self):
        database, _, _ = self._run_contended()
        executor = Executor(database)
        total = executor.execute(
            "SELECT wait_type, waiting_tasks_count FROM dm_os_wait_stats "
            "WHERE waiting_tasks_count > 0 ORDER BY wait_type")
        assert ("LATCH_EX", database.waits.server_stats()[
            WAIT_LATCH_EX].waiting_tasks_count) in total.rows
        per_session = executor.execute(
            "SELECT session_id, wait_type, waiting_tasks_count "
            "FROM dm_exec_session_wait_stats ORDER BY session_id")
        assert per_session.rows
        # SQL-level differential: grouping the session view by wait_type
        # reproduces the server view.
        summed = executor.execute(
            "SELECT wait_type, sum(waiting_tasks_count) "
            "FROM dm_exec_session_wait_stats GROUP BY wait_type")
        server = database.waits.server_stats()
        for wait_type, count in summed.rows:
            assert count == server[wait_type].waiting_tasks_count

"""Regression tests for the shared-state fixes behind the serving layer.

Each class targets one of the bugs the multi-session work exposed: the
statement-clock / usage-stamp races, the fault injector's shared suspend
depth and one-shot arming race, and the shared buffer pool's and
statement cache's locking.
"""

import threading

from repro.storage.faults import FaultInjector, InjectedFault
from repro.storage.telemetry import IndexUsageStats, LogicalClock


class TestLogicalClockConcurrency:
    def test_concurrent_advances_never_lose_or_repeat_a_stamp(self):
        clock = LogicalClock()
        n_threads, n_advances = 8, 500
        stamps = [[] for _ in range(n_threads)]

        def advance(slot):
            for _ in range(n_advances):
                stamps[slot].append(clock.advance())

        threads = [threading.Thread(target=advance, args=(n,))
                   for n in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        flat = [s for slot in stamps for s in slot]
        assert clock.now == n_threads * n_advances
        assert len(set(flat)) == len(flat)
        assert set(flat) == set(range(1, n_threads * n_advances + 1))

    def test_stamp_is_thread_local(self):
        clock = LogicalClock()
        mine = clock.advance()
        seen = {}

        def other():
            seen["stamp"] = clock.advance()
            seen["their_view"] = clock.stamp

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        # The other thread moved the global clock, but this thread's
        # stamp still names *its* statement — the property the global
        # `now`-based stamping violated.
        assert clock.now == 2
        assert clock.stamp == mine == 1
        assert seen["their_view"] == seen["stamp"] == 2


class TestUsageStampDedup:
    def test_same_statement_counts_once(self):
        clock = LogicalClock()
        usage = IndexUsageStats(clock)
        clock.advance()
        usage.record_update()
        usage.record_update()  # same statement: delete+insert pair
        assert usage.user_updates == 1

    def test_interleaved_sessions_each_count_once(self):
        clock = LogicalClock()
        usage = IndexUsageStats(clock)
        barrier = threading.Barrier(2)

        def session():
            barrier.wait()
            clock.advance()
            for _ in range(3):  # one statement, three maintenance ops
                usage.record_update()

        threads = [threading.Thread(target=session) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Old scalar dedup ping-pongs under interleaving (over- or
        # under-counting); the per-stamp window counts each statement
        # exactly once.
        assert usage.user_updates == 2
        assert usage.last_user_update == 2

    def test_without_clock_every_call_counts(self):
        usage = IndexUsageStats()
        usage.record_update()
        usage.record_update()
        assert usage.user_updates == 2

    def test_reset_clears_dedup_window(self):
        clock = LogicalClock()
        usage = IndexUsageStats(clock)
        clock.advance()
        usage.record_update()
        usage.reset()
        usage.record_update()
        assert usage.user_updates == 1


class TestFaultInjectorThreadSafety:
    def test_one_shot_fires_exactly_once_across_racing_threads(self):
        injector = FaultInjector()
        injector.arm("heap.insert", on_hit=20)
        n_threads, hits_each = 8, 10
        fired = []
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(hits_each):
                try:
                    injector.hit("heap.insert")
                except InjectedFault:
                    fired.append(threading.get_ident())

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(fired) == 1
        assert injector.injected["heap.insert"] == 1
        assert injector.hits["heap.insert"] == n_threads * hits_each
        assert "heap.insert" not in injector.armed_points()

    def test_suspension_is_thread_local(self):
        injector = FaultInjector()
        injector.arm("heap.insert", on_hit=1)
        result = {}

        def other_session():
            try:
                injector.hit("heap.insert")
                result["fired"] = False
            except InjectedFault:
                result["fired"] = True

        with injector.suspended():
            # This thread (mid-rollback) is masked...
            injector.hit("heap.insert")
            assert injector.injected["heap.insert"] == 0
            # ...but another session's foreground mutation is not.
            thread = threading.Thread(target=other_session)
            thread.start()
            thread.join()
        assert result["fired"] is True
        assert injector.injected["heap.insert"] == 1

    def test_suspension_nests_and_unwinds(self):
        injector = FaultInjector()
        with injector.suspended():
            with injector.suspended():
                assert not injector.active
            assert not injector.active
        assert injector.active

    def test_concurrent_arm_and_hit_do_not_corrupt(self):
        injector = FaultInjector()
        errors = []

        def armer():
            try:
                for i in range(200):
                    injector.arm("btree.insert", on_hit=2)
                    injector.disarm("btree.insert")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def hitter():
            try:
                for _ in range(200):
                    try:
                        injector.hit("btree.insert")
                    except InjectedFault:
                        pass
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=armer),
                   threading.Thread(target=hitter)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        assert injector.hits["btree.insert"] == 200


class TestBufferPoolThreadSafety:
    """The PR 9 satellite: BufferPool is shared by every serving session
    once paging is on, so get_or_load/unpin/
    evict_object/clear must hold the pool lock — an unsynchronized
    ``move_to_end`` racing a ``popitem`` corrupts the OrderedDict."""

    N_THREADS = 8
    OPS_PER_THREAD = 400

    def test_concurrent_touch_load_evict_stays_consistent(self):
        from repro.storage.bufferpool import PAGE_BYTES, BufferPool

        pool = BufferPool(budget_bytes=32 * PAGE_BYTES)
        errors = []

        def hammer(seed):
            try:
                for i in range(self.OPS_PER_THREAD):
                    oid = (seed + i) % 4
                    page = (oid, i % 16)
                    if i % 11 == 0:
                        pool.evict_object(oid)
                    elif i % 5 == 0:
                        value = pool.get_or_load(
                            page, lambda: (b"x" * 64, PAGE_BYTES), pin=True)
                        assert value == b"x" * 64
                        pool.unpin(page)
                    elif i % 17 == 0:
                        pool.evict_all()
                    else:
                        pool.get_or_load(page, lambda: (b"x" * 64, PAGE_BYTES))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        pool.check_consistency()
        assert pool.bytes_resident <= pool.budget_bytes
        assert pool.hits + pool.misses > 0

    def test_clear_while_faulting(self):
        from repro.storage.bufferpool import PAGE_BYTES, BufferPool

        pool = BufferPool(budget_bytes=8 * PAGE_BYTES)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    pool.get_or_load((1, 0),
                                     lambda: (b"v", PAGE_BYTES), pin=True)
                    pool.unpin((1, 0))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(300):
            pool.clear()
        stop.set()
        thread.join()
        assert not errors, errors[0]
        pool.check_consistency()


class TestStatementCacheThreadSafety:
    """One cache per database, shared by every session: eight threads
    mixing hot ``?``-texts with fresh literal texts must lose no counter
    update and no hot entry, and always get what ``parse`` returns."""

    N_THREADS = 8
    LOOKUPS_PER_THREAD = 1500

    def test_mixed_hot_and_fresh_texts(self):
        import sys

        from repro.sql.cache import StatementCache
        from repro.sql.parser import parse

        cache = StatementCache()
        hot = [f"SELECT a FROM t{n} WHERE k = ? AND v IN (?, {n})"
               for n in range(4)]
        errors = []

        def client(seed):
            try:
                for i in range(self.LOOKUPS_PER_THREAD):
                    if i % 2:
                        sql, params = hot[(seed + i) % len(hot)], (seed, i)
                    else:
                        # fresh text, one of three shapes
                        sql, params = (
                            f"SELECT a FROM u{i % 3} WHERE k = {seed} "
                            f"AND v = 'c{i}'", ())
                    got = cache.statement(sql, params)
                    want = parse(sql, params)
                    assert got == want and repr(got) == repr(want), sql
                    assert cache.lookup(sql)[0].read_only
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(self.N_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        lookups = 2 * self.N_THREADS * self.LOOKUPS_PER_THREAD
        assert cache.hits + cache.misses == lookups
        # Seven shapes; a race can parse one more than once, never lose it.
        assert 7 <= cache.misses <= 7 * self.N_THREADS
        assert len(cache) <= StatementCache.CAPACITY
        assert cache.evictions > 0
        assert all(sql in cache._entries for sql in hot)
        texts = [key for key in cache._entries if isinstance(key, str)]
        assert cache.bytes_cached == sum(len(t.encode()) for t in texts)


class TestOneTemplateTwoSessions:
    """A SELECT that reuses its template's plan runs the operator tree
    the template keeps: an equality lookup's, or the one a range
    template's fresh plan decides alike with. Two sessions run one such
    tree at once, with different values, and meet when the first leaf each execution opens
    has finished: both are inside the same operators together, and the
    operators above it have taken all of its rows (an aggregate knows
    whether it spilled) but not yet reported. Every execution must be
    what it is when the statements run one after another: rows,
    ``QueryMetrics``, span labels (a seek's bounds, a spilled
    aggregate), and the ``dm_exec_query_stats`` counts."""

    #: ``(sql, values of session A, values of session B, grant)``.
    TEMPLATES = (
        ("SELECT g, s FROM t WHERE k = ?",
         [(3,), (17,), (901,), (2398,)], [(5,), (18,), (77,), (1200,)],
         None),
        ("SELECT count(*), sum(f.y) FROM dim d JOIN fact f "
         "ON d.dk = f.fk WHERE d.dk = ? AND f.x = ?",
         [(3, 1), (7, 2), (11, 0), (60, 1)],
         [(4, 0), (8, 1), (49, 2), (5, 2)], None),
        # 200 bytes hold two of the three groups of an in-range ``c``:
        # those executions spill, the empty out-of-range ones do not.
        ("SELECT s, count(*) FROM t WHERE c = ? GROUP BY s",
         [(3,), (45,), (7,), (46,)], [(39,), (4,), (50,), (1,)], 200),
        # A range template, optimized on each execution's values: under
        # and over the parallel threshold of 1 000 rows, so two trees.
        ("SELECT count(*), sum(c) FROM t WHERE k BETWEEN ? AND ?",
         [(3, 90), (100, 1500), (7, 7), (50, 1200)],
         [(10, 400), (200, 1900), (9, 500), (0, 2399)], None),
    )

    @staticmethod
    def _observed(result):
        from dataclasses import asdict

        return (result.rows, asdict(result.metrics),
                [(span.label, span.rows_out)
                 for span in result.root_span.walk()])

    def _executions(self, session):
        return [(sql, values, grant)
                for sql, a, b, grant in self.TEMPLATES
                for values in (a if session == 0 else b)]

    @staticmethod
    def _counts(store):
        from repro.engine.dmv import query_stats_rows

        return sorted((row[0], row[1], row[5], row[6])
                      for row in query_stats_rows(store))

    def _serial(self):
        """Every execution run alone, after the same warm-up."""
        from repro.engine.query_store import QueryStore
        from repro.server.session import SessionManager
        from tests.test_plan_reuse import make_database

        store = QueryStore()
        with SessionManager(make_database("btree+cov"),
                            query_store=store) as manager:
            session = manager.session()
            self._warm(session)
            observed = [[self._observed(session.execute(
                sql, values, memory_grant_bytes=grant))
                for sql, values, grant in self._executions(n)]
                for n in (0, 1)]
        return observed, self._counts(store)

    def _warm(self, session):
        for n in (0, 1):
            for sql, values, grant in self._executions(n):
                session.execute(sql, values, memory_grant_bytes=grant)

    def test_two_sessions_run_one_tree_at_once(self, tmp_path):
        from unittest import mock

        from repro.engine.metrics import ExecutionContext
        from repro.engine.query_store import QueryStore
        from repro.server.session import SessionManager
        from repro.storage.database import Database
        from tests.test_plan_reuse import make_database

        durable = make_database("btree+cov")
        durable.enable_durability(str(tmp_path))
        durable.close()
        database = Database.open(str(tmp_path), paging=True,
                                 pool_bytes=256 * 1024)
        store = QueryStore()
        manager = SessionManager(database, query_store=store)
        sessions = [manager.session(), manager.session()]
        self._warm(sessions[0])
        cache = database.statement_cache
        hits = cache.plan_hits

        meet = threading.Barrier(2, timeout=60)
        finish = ExecutionContext.finish_operator_span

        def finish_and_meet(ctx, span):
            finish(ctx, span)
            if not span.operator.children and not getattr(ctx, "met", False):
                ctx.met = True
                meet.wait()

        observed, errors = [[], []], []

        def client(n):
            try:
                for sql, values, grant in self._executions(n):
                    observed[n].append(self._observed(sessions[n].execute(
                        sql, values, memory_grant_bytes=grant)))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                meet.abort()

        with mock.patch.object(ExecutionContext, "finish_operator_span",
                               finish_and_meet):
            threads = [threading.Thread(target=client, args=(n,))
                       for n in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        # Every execution ran a kept tree.
        assert cache.plan_hits - hits == sum(
            len(self._executions(n)) for n in (0, 1))
        labels = [label for run in observed for _, _, spans in run
                  for label, _ in spans]
        assert any("SPILLED" in label for label in labels)
        assert any(label.startswith("HashAggregate") and "SPILLED"
                   not in label for label in labels)
        assert any("where (f.x = 2)" in label for label in labels)

        serial, counts = self._serial()
        assert observed == serial
        assert self._counts(store) == counts
        admission = manager.admission
        assert admission.latch._writer is None
        assert not admission.latch._readers
        assert admission.grants.available_bytes == \
            admission.grants.capacity_bytes
        assert database.buffer_pool.pinned_pages() == 0
        manager.close()
        database.close()

"""Regression tests for the shared-state fixes behind the serving layer.

Each class targets one of the bugs the multi-session work exposed: the
process-global encoded-execution leak, the unsynchronized segment
cache, the statement-clock / usage-stamp races, and the fault
injector's shared suspend depth and one-shot arming race.
"""

import threading

import numpy as np
import pytest

from repro.engine.encoded import (
    encoded_execution,
    encoded_execution_enabled,
    set_encoded_execution,
)
from repro.engine.costs import CostModel
from repro.engine.metrics import ExecutionContext
from repro.storage.faults import FaultInjector, InjectedFault
from repro.storage.segment_cache import DecodedSegmentCache
from repro.storage.telemetry import IndexUsageStats, LogicalClock


class TestEncodedExecutionScoping:
    def teardown_method(self):
        set_encoded_execution(True)

    def test_context_manager_restores_previous_value(self):
        set_encoded_execution(True)
        with encoded_execution(False):
            assert not encoded_execution_enabled()
        assert encoded_execution_enabled()

    def test_context_manager_restores_on_exception(self):
        set_encoded_execution(True)
        with pytest.raises(RuntimeError):
            with encoded_execution(False):
                raise RuntimeError("boom")
        assert encoded_execution_enabled()

    def test_set_returns_previous_value(self):
        set_encoded_execution(True)
        assert set_encoded_execution(False) is True
        assert set_encoded_execution(True) is False

    def test_per_context_override_beats_global(self):
        model = CostModel()
        set_encoded_execution(True)
        ctx_off = ExecutionContext(model, encoded_execution=False)
        ctx_on = ExecutionContext(model, encoded_execution=True)
        ctx_default = ExecutionContext(model)
        assert not ctx_off.encoded_enabled()
        assert ctx_on.encoded_enabled()
        assert ctx_default.encoded_enabled()
        set_encoded_execution(False)
        assert not ctx_default.encoded_enabled()
        assert ctx_on.encoded_enabled()

    def test_worker_context_inherits_override(self):
        model = CostModel()
        set_encoded_execution(True)
        ctx = ExecutionContext(model, encoded_execution=False)
        worker = ctx.spawn_worker()
        assert not worker.encoded_enabled()


class TestSegmentCacheThreadSafety:
    N_THREADS = 8
    OPS_PER_THREAD = 300

    def test_concurrent_get_put_invalidate_stays_consistent(self):
        cache = DecodedSegmentCache(budget_bytes=64 * 1024)
        arrays = {i: np.arange(128, dtype=np.int64) for i in range(16)}
        errors = []

        def hammer(seed):
            try:
                for i in range(self.OPS_PER_THREAD):
                    key = ((seed + i) % 4, i % 4, "col1")
                    if i % 7 == 0:
                        cache.invalidate_object(key[0])
                    elif i % 3 == 0:
                        cache.put(key, arrays[i % 16])
                    else:
                        hit = cache.get(key)
                        if hit is not None:
                            assert len(hit) == 128
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[0]
        # Byte accounting must reconcile with the surviving entries.
        expected = sum(a.nbytes for a in cache._entries.values())
        assert cache.bytes_cached == expected
        assert cache.bytes_cached <= cache.budget_bytes
        lookups = cache.stats.hits + cache.stats.misses
        assert lookups > 0

    def test_clear_while_reading(self):
        cache = DecodedSegmentCache(budget_bytes=64 * 1024)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    cache.put((1, 0, "c"), np.arange(64, dtype=np.int64))
                    cache.get((1, 0, "c"))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(200):
            cache.clear()
        stop.set()
        thread.join()
        assert not errors, errors[0]


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
    and morsel worker once paging is on, so get_or_load/unpin/
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

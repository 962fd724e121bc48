"""Tests for engine internals: metrics/context charging, the cost-model
dataclass, the Batch container, the buffer pool, and the CLI."""

import numpy as np
import pytest

from repro.core.errors import ExecutionError, StorageError
from repro.engine.batch import (
    Batch,
    batch_to_rows,
    concat_batches,
    rows_to_batch,
)
from repro.engine.costs import DEFAULT_COST_MODEL, MB, CostModel
from repro.engine.metrics import ExecutionContext, QueryMetrics
from repro.storage.bufferpool import PAGE_BYTES, BufferPool


class TestExecutionContext:
    def test_serial_cpu_adds_to_both(self):
        ctx = ExecutionContext()
        ctx.charge_serial_cpu(5.0)
        assert ctx.metrics.cpu_ms == 5.0
        assert ctx.metrics.elapsed_ms == 5.0

    def test_parallel_cpu_divides_elapsed_inflates_cpu(self):
        ctx = ExecutionContext()
        ctx.charge_parallel_cpu(40.0, dop=40)
        cm = ctx.cost_model
        assert ctx.metrics.elapsed_ms == pytest.approx(1.0)
        assert ctx.metrics.cpu_ms == pytest.approx(
            40.0 * cm.parallel_cpu_overhead)
        assert ctx.metrics.dop == 40

    def test_parallel_dop_one_is_serial(self):
        ctx = ExecutionContext()
        ctx.charge_parallel_cpu(3.0, dop=1)
        assert ctx.metrics.cpu_ms == 3.0
        assert ctx.metrics.elapsed_ms == 3.0

    def test_dop_clamped_to_max(self):
        ctx = ExecutionContext()
        ctx.charge_parallel_cpu(80.0, dop=1000)
        assert ctx.metrics.dop == ctx.cost_model.max_dop

    def test_cold_io_charged_hot_not(self):
        hot = ExecutionContext(cold=False)
        hot.charge_random_read(10)
        assert hot.metrics.pages_read == 0
        cold = ExecutionContext(cold=True)
        cold.charge_random_read(10)
        assert cold.metrics.pages_read == 10
        assert cold.metrics.elapsed_ms == pytest.approx(
            10 * cold.cost_model.random_io_ms_per_page)

    def test_memory_grant_accounting(self):
        ctx = ExecutionContext(memory_grant_bytes=1000)
        assert ctx.acquire_memory(600)
        assert not ctx.acquire_memory(600)
        assert ctx.acquire_memory(400)
        assert ctx.metrics.memory_peak_bytes == 1000
        ctx.release_memory(1000)
        assert ctx.memory_in_use == 0

    def test_memory_underflow_raises(self):
        ctx = ExecutionContext()
        with pytest.raises(ExecutionError):
            ctx.release_memory(1)

    def test_spill_charges_io_both_ways(self):
        ctx = ExecutionContext(cold=False)
        ctx.charge_spill(MB)
        cm = ctx.cost_model
        assert ctx.metrics.spilled_bytes == MB
        assert ctx.metrics.elapsed_ms == pytest.approx(
            cm.write_io_ms_per_mb + cm.seq_io_ms_per_mb)

    def test_choose_dop_threshold(self):
        ctx = ExecutionContext()
        threshold = ctx.cost_model.parallel_row_threshold
        assert ctx.choose_dop(threshold - 1) == 1
        assert ctx.choose_dop(threshold) == ctx.cost_model.max_dop

    def test_metrics_merge(self):
        a = QueryMetrics(elapsed_ms=1, cpu_ms=2, rows_returned=3,
                         memory_peak_bytes=10, dop=4)
        b = QueryMetrics(elapsed_ms=10, cpu_ms=20, rows_returned=30,
                         memory_peak_bytes=5, dop=2,
                         leaf_accesses={"csi": 1})
        a.merge(b)
        assert a.elapsed_ms == 11
        assert a.memory_peak_bytes == 10  # max, not sum
        assert a.dop == 4
        assert a.leaf_accesses == {"csi": 1}


class TestCostModel:
    def test_scaled_storage_touches_only_io(self):
        scaled = DEFAULT_COST_MODEL.scaled_storage(3.0)
        assert scaled.seq_io_ms_per_mb == \
            DEFAULT_COST_MODEL.seq_io_ms_per_mb * 3
        assert scaled.row_cpu_ms_per_row == \
            DEFAULT_COST_MODEL.row_cpu_ms_per_row

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.max_dop = 1  # type: ignore[misc]

    def test_row_batch_gap(self):
        cm = DEFAULT_COST_MODEL
        assert cm.row_cpu_ms_per_row / cm.batch_cpu_ms_per_row > 20


class TestBatch:
    def test_ragged_rejected(self):
        with pytest.raises(ExecutionError):
            Batch({"a": np.arange(3), "b": np.arange(4)})

    def test_filter_take_project_head(self):
        batch = Batch({"a": np.arange(6), "b": np.arange(6) * 10})
        filtered = batch.filter(batch.column("a") % 2 == 0)
        assert filtered.column("a").tolist() == [0, 2, 4]
        taken = batch.take(np.array([5, 0]))
        assert taken.column("b").tolist() == [50, 0]
        assert batch.project(["b"]).column_names() == ["b"]
        assert len(batch.head(2)) == 2

    def test_with_column(self):
        batch = Batch({"a": np.arange(3)})
        extended = batch.with_column("b", np.arange(3) + 1)
        assert extended.column("b").tolist() == [1, 2, 3]
        with pytest.raises(ExecutionError):
            batch.with_column("c", np.arange(5))

    def test_rows_roundtrip(self):
        rows = [(1, "x", None), (2, "y", 3.5)]
        batch = rows_to_batch(rows, ["i", "s", "f"])
        assert batch_to_rows(batch, ["i", "s", "f"]) == rows

    def test_rows_to_batch_empty(self):
        assert rows_to_batch([], ["a"]) is None

    def test_concat_mixed_dtypes(self):
        b1 = rows_to_batch([(1,)], ["a"])
        b2 = rows_to_batch([(None,)], ["a"])
        merged = concat_batches([b1, b2])
        assert list(merged.column("a")) == [1, None]

    def test_concat_empty(self):
        assert concat_batches([]) is None

    def test_payload_bytes(self):
        numeric = Batch({"a": np.arange(100, dtype=np.int64)})
        assert numeric.payload_bytes() == 800

    def test_mixed_int_float_promotes_to_float64(self):
        # Regression: an int in the first position used to degrade the
        # whole column to dtype=object, disabling vectorized batch ops.
        batch = rows_to_batch([(1,), (2.5,), (3,)], ["a"])
        assert batch.column("a").dtype == np.float64
        assert batch.column("a").tolist() == [1.0, 2.5, 3.0]

    def test_float_first_mixed_list_still_float64(self):
        batch = rows_to_batch([(2.5,), (1,)], ["a"])
        assert batch.column("a").dtype == np.float64

    def test_all_int_stays_int64(self):
        batch = rows_to_batch([(1,), (2,)], ["a"])
        assert batch.column("a").dtype == np.int64

    def test_bools_stay_object(self):
        batch = rows_to_batch([(True,), (1,)], ["a"])
        assert batch.column("a").dtype == object


def _load(pool, object_id, start, count):
    """Read ``count`` pages of one object through the pool; returns how
    many of them faulted."""
    before = pool.misses
    for page_no in range(start, start + count):
        pool.get_or_load((object_id, page_no), lambda: (b"page", PAGE_BYTES))
    return pool.misses - before


class TestBufferPool:
    def test_lru_eviction(self):
        pool = BufferPool(budget_bytes=2 * PAGE_BYTES)
        assert _load(pool, 1, 0, 2) == 2
        assert _load(pool, 1, 0, 1) == 0  # hit, refreshes LRU position
        assert _load(pool, 1, 2, 1) == 1  # evicts (1, 1)
        assert pool.is_resident((1, 0))
        assert not pool.is_resident((1, 1))

    def test_evict_object(self):
        pool = BufferPool(budget_bytes=10 * PAGE_BYTES)
        _load(pool, 1, 0, 3)
        _load(pool, 2, 0, 2)
        pool.evict_object(1)
        assert len(pool) == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(0)

    def test_clear_resets_hit_ratio(self):
        # Regression: clear() left hits/misses intact, so hit_ratio bled
        # across back-to-back experiments sharing one pool.
        pool = BufferPool(budget_bytes=10 * PAGE_BYTES)
        _load(pool, 1, 0, 4)
        _load(pool, 1, 0, 4)
        assert pool.hit_ratio == pytest.approx(0.5)
        pool.clear()
        assert pool.hit_ratio == 0.0
        assert len(pool) == 0
        assert _load(pool, 1, 0, 2) == 2  # all cold again

    def test_evict_all_keeps_stats(self):
        pool = BufferPool(budget_bytes=10 * PAGE_BYTES)
        _load(pool, 1, 0, 4)
        pool.evict_all()
        assert len(pool) == 0
        assert pool.misses == 4

    def test_reset_stats_keeps_residency(self):
        pool = BufferPool(budget_bytes=10 * PAGE_BYTES)
        _load(pool, 1, 0, 4)
        pool.reset_stats()
        assert pool.hits == 0 and pool.misses == 0
        assert _load(pool, 1, 0, 4) == 0  # still resident

    def test_evict_object_no_cross_object_evictions(self):
        # Regression: evict_object used to scan every resident frame;
        # the per-object page index must drop exactly the target
        # object's pages and leave every other object untouched.
        pool = BufferPool(budget_bytes=100 * PAGE_BYTES)
        for oid in range(5):
            _load(pool, oid, 0, 10)
        dropped = pool.evict_object(3)
        assert dropped == 10
        assert not any(page[0] == 3 for page in pool._resident)
        for oid in (0, 1, 2, 4):
            assert _load(pool, oid, 0, 10) == 0, (
                f"object {oid} lost pages to another object's eviction")
        assert pool.evictions == 0  # invalidation is not LRU eviction
        assert pool.invalidations == 10
        assert pool.evict_object(3) == 0  # idempotent
        pool.check_consistency()

    def test_pin_blocks_eviction(self):
        pool = BufferPool(budget_bytes=2 * PAGE_BYTES)
        pool.get_or_load((1, 0), lambda: ("a", PAGE_BYTES), pin=True)
        pool.get_or_load((1, 1), lambda: ("b", PAGE_BYTES))
        # Over budget: the pinned page must survive, the unpinned not.
        pool.get_or_load((1, 2), lambda: ("c", PAGE_BYTES))
        assert pool.is_resident((1, 0))
        assert not pool.is_resident((1, 1))
        pool.unpin((1, 0))
        pool.get_or_load((1, 3), lambda: ("d", PAGE_BYTES))
        assert not pool.is_resident((1, 0))  # unpinned: evictable again
        pool.check_consistency()

    def test_peak_bytes_never_exceeds_budget(self):
        pool = BufferPool(budget_bytes=4 * PAGE_BYTES)
        for i in range(32):
            pool.get_or_load((1, i), lambda: (i, PAGE_BYTES))
        assert pool.peak_bytes <= pool.budget_bytes
        assert pool.evictions == 28


class TestCli:
    def test_inventory_command(self, capsys):
        from repro.__main__ import main
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out and "csi" in out

    def test_micro_updates_command(self, capsys):
        from repro.__main__ import main
        assert main(["micro", "--experiment", "updates"]) == 0
        out = capsys.readouterr().out
        assert "pri_csi" in out

    def test_unknown_command_rejected(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["nonsense"])


class TestExplain:
    def test_explain_returns_plan_text(self):
        from repro.core.schema import Column, TableSchema
        from repro.core.types import INT
        from repro.engine.executor import Executor
        from repro.storage.database import Database

        db = Database()
        table = db.create_table(TableSchema("t", [
            Column("a", INT, nullable=False)]))
        table.bulk_load([(i,) for i in range(100)])
        text = Executor(db).explain("SELECT sum(a) FROM t WHERE a < 5")
        assert "HASH AGG" in text
        assert "SCAN t" in text

    def test_explain_rejects_dml(self):
        from repro.core.errors import ExecutionError
        from repro.core.schema import Column, TableSchema
        from repro.core.types import INT
        from repro.engine.executor import Executor
        from repro.storage.database import Database

        db = Database()
        table = db.create_table(TableSchema("t", [
            Column("a", INT, nullable=False)]))
        table.bulk_load([(1,)])
        with pytest.raises(ExecutionError):
            Executor(db).explain("DELETE FROM t")

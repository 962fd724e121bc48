"""Telemetry-history tests: logical-clock interval sampling, delta
semantics, retention, determinism digest, and the executor hookup."""

import pytest

from repro.engine.executor import Executor
from repro.storage.database import Database
from repro.storage.timeseries import (
    DEFAULT_SAMPLE_INTERVAL,
    TelemetryHistory,
)
from repro.workloads.synthetic import make_uniform_table


def _db(n_rows=512) -> Database:
    database = Database()
    make_uniform_table(database, "micro", n_rows, 2, seed=7)
    database.table("micro").set_primary_columnstore(rowgroup_size=256)
    return database


def _run(statements: int, interval=None) -> Database:
    database = _db()
    if interval is not None:
        database.history = TelemetryHistory(interval=interval)
    executor = Executor(database)
    for _ in range(statements):
        executor.execute("SELECT sum(col1) FROM micro")
    return database


class TestSampling:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TelemetryHistory(interval=0)
        with pytest.raises(ValueError):
            TelemetryHistory(retention=0)

    def test_no_sample_before_first_boundary(self):
        database = _run(DEFAULT_SAMPLE_INTERVAL - 1)
        assert len(database.history) == 0
        assert database.history.last() is None

    def test_executor_samples_each_interval(self):
        database = _run(10, interval=4)
        # Statements 4 and 8 cross boundaries.
        samples = database.history.samples()
        assert [s["clock"] for s in samples] == [4, 8]
        assert all(s["statements"] == 4 for s in samples)
        assert database.history.samples_taken == 2

    def test_burst_crossing_many_boundaries_yields_one_sample(self):
        database = _db()
        history = TelemetryHistory(interval=4)
        clock = database.telemetry.clock
        for _ in range(11):
            clock.advance()
        sample = history.maybe_sample(database)
        assert sample is not None and sample["statements"] == 11
        # Boundary realigned past the current clock: 12 is next due.
        assert history.maybe_sample(database) is None
        clock.advance()
        assert history.maybe_sample(database)["clock"] == 12

    def test_deltas_not_cumulative(self):
        database = _run(8, interval=4)
        first, second = database.history.samples()
        # Two equal intervals report equal counts: each sample is what
        # its interval added, where cumulative counters would double.
        assert second["statements"] == first["statements"] == 4
        assert second["events"] == first["events"] > 0

    def test_sample_now_forces_off_boundary_sample(self):
        database = _run(3)
        sample = database.history.sample_now(database)
        assert sample["clock"] == 3
        assert sample["statements"] == 3
        assert len(database.history) == 1

    def test_retention_bound(self):
        database = _db()
        history = TelemetryHistory(interval=1, retention=5)
        clock = database.telemetry.clock
        for _ in range(9):
            clock.advance()
            history.maybe_sample(database)
        samples = history.samples()
        assert len(samples) == 5
        assert [s["clock"] for s in samples] == [5, 6, 7, 8, 9]
        assert history.samples_taken == 9

    def test_wait_rows_cover_taxonomy(self):
        database = _run(5, interval=4)
        from repro.storage.waits import WAIT_TYPES
        (sample,) = database.history.samples()
        assert set(sample["waits"]) == set(WAIT_TYPES)
        assert all(row["count"] == 0 and row["wait_ms"] == 0.0
                   for row in sample["waits"].values())

    def test_pool_keys_only_with_buffer_pool(self, tmp_path):
        database = _run(5, interval=4)
        (sample,) = database.history.samples()
        assert "pool_hits" not in sample

        data_dir = str(tmp_path / "data")
        database.save(data_dir)
        paged = Database.open(data_dir, paging=True)
        paged.history = TelemetryHistory(interval=2)
        executor = Executor(paged)
        executor.execute("SELECT sum(col1) FROM micro")
        executor.execute("SELECT sum(col1) FROM micro")
        (paged_sample,) = paged.history.samples()
        assert "pool_hits" in paged_sample
        assert paged_sample["pool_misses"] >= 0

    def test_reset(self):
        database = _run(10, interval=4)
        database.history.reset()
        assert len(database.history) == 0
        assert database.history.samples_taken == 0
        # Interval tracking restarts relative to the original spacing.
        Executor(database).execute("SELECT sum(col1) FROM micro")
        assert len(database.history) == 1


class TestDeterminism:
    def test_digest_identical_across_identical_runs(self):
        digests = []
        for _ in range(2):
            database = _run(20, interval=4)
            digests.append(database.history.digest())
        assert digests[0] == digests[1]

    def test_digest_excludes_wall_clock_overlay(self):
        database = _run(10, interval=4)
        before = database.history.digest()
        for sample in database.history._samples:
            sample["wall_time_s"] += 1000.0
            for row in sample["waits"].values():
                row["wait_ms"] += 5.0
        assert database.history.digest() == before

    def test_digest_sensitive_to_counts(self):
        database = _run(10, interval=4)
        before = database.history.digest()
        database.history._samples[0]["statements"] += 1
        assert database.history.digest() != before

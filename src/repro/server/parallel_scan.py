"""Morsel-style intra-query parallelism for columnstore scans.

A :class:`MorselPool` owns a ``concurrent.futures`` thread pool; when an
:class:`~repro.engine.metrics.ExecutionContext` carries one,
:class:`~repro.engine.operators.scans.ColumnstoreScan` hands the
rowgroup reads to :func:`morsel_scan` instead of looping serially. Each
morsel is one compressed rowgroup — the natural work unit of a
columnstore (fixed row budget, per-group segment elimination, per-group
decode), exactly the granularity morsel-driven schedulers use.

Invariants, all covered by ``tests/test_serving.py``:

* **Identical modeled costs.** Every per-group charge in
  ``ColumnstoreIndex.scan`` is additive over groups, so the merged
  per-worker :class:`~repro.engine.metrics.QueryMetrics` deltas equal
  the serial scan's totals field for field.
* **Span-sum == statement totals.** Worker deltas are absorbed into the
  coordinator's context *while the scan's operator span is active*, so
  the mark-diff span attribution from the EXPLAIN ANALYZE work credits
  them to the ColumnstoreScan span like any serial charge.
* **Identical rows and order.** Futures are consumed in rowgroup
  submission order and the delta-store batch is read once by the
  coordinator, last — the exact order of the serial scan.
* **Statement-accurate DMV usage.** Workers record no usage; the
  coordinator records one ``user_scans`` bump plus the summed
  per-worker segment counts.

No wall-clock benefit is claimed. Modeled I/O is charged, never
slept, so a morsel is interpreter work under the GIL: measured at PR 21
on a 1 M-row primary columnstore (31 rowgroups), the fig-1 selectivity
sweep runs 2.9 ms/stmt serial vs 3.3 ms/stmt on four workers, and the CH
analytic mix 20.3 vs 20.0 ms/stmt. Whether the pool earns its place is
ROADMAP item 1's ``ch_mixed_tcp`` A/B.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterator, List

from repro.storage.waits import WAIT_CXPACKET

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.batch import Batch
    from repro.engine.metrics import ExecutionContext
    from repro.engine.operators.scans import ColumnstoreScan
    from repro.storage.columnstore import ColumnstoreIndex

#: Default number of morsel workers per pool.
DEFAULT_MORSEL_WORKERS = 4

#: Below this many rowgroups a parallel scan is all coordination; such
#: indexes stay on the serial path.
DEFAULT_MIN_ROWGROUPS = 2


class MorselPool:
    """A shared worker pool executing rowgroup-granular scan morsels.

    Parameters
    ----------
    n_workers:
        Thread-pool size. Morsels from every session's statements share
        these workers, so the pool also acts as a cap on scan
        parallelism across the whole server.
    min_rowgroups:
        Smallest index (in rowgroups) worth parallelizing; smaller
        indexes scan serially.
    """

    def __init__(self, n_workers: int = DEFAULT_MORSEL_WORKERS,
                 min_rowgroups: int = DEFAULT_MIN_ROWGROUPS):
        if n_workers < 1:
            raise ValueError("MorselPool needs at least one worker")
        self.n_workers = n_workers
        self.min_rowgroups = min_rowgroups
        self._executor = ThreadPoolExecutor(
            max_workers=n_workers, thread_name_prefix="morsel")
        self._closed = False
        self._lock = threading.Lock()
        #: Lifetime count of morsels executed (observability only).
        self.morsels_executed = 0

    def eligible(self, index: "ColumnstoreIndex") -> bool:
        """Whether this index's scan should be morsel-parallelized."""
        if self._closed:
            return False
        return getattr(index, "n_rowgroups", 0) >= self.min_rowgroups

    def submit(self, fn, *args) -> Future:
        """Schedule one morsel on the pool."""
        with self._lock:
            self.morsels_executed += 1
        return self._executor.submit(fn, *args)

    def close(self) -> None:
        """Drain and shut the pool down (idempotent)."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "MorselPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def morsel_scan(scan: "ColumnstoreScan", ctx: "ExecutionContext",
                pool: MorselPool) -> Iterator["Batch"]:
    """Execute a columnstore scan's rowgroup reads on ``pool``.

    Yields the same raw batches, in the same order, with the same merged
    metrics as ``index.scan(...)`` run serially on ``ctx`` — see the
    module docstring for the invariants.
    """
    index = scan.index
    columns = scan._read_columns
    ranges = scan.pushdown_ranges or None
    include_rids = scan.include_rids
    index.usage.record_scan()

    def run_morsel(group_index: int):
        worker_ctx = ctx.spawn_worker()
        batches = list(index.scan(
            columns, worker_ctx,
            elimination_ranges=ranges,
            include_rids=include_rids,
            groups=[group_index],
            include_delta=False,
            record_usage=False,
        ))
        return batches, worker_ctx.metrics

    futures: List[Future] = [
        pool.submit(run_morsel, group_index)
        for group_index in range(index.n_rowgroups)
    ]
    segments_scanned = 0
    segments_skipped = 0
    waits = getattr(ctx, "waits", None)
    for future in futures:
        if waits is not None and not future.done():
            # CXPACKET: the coordinator is stalled on an exchange —
            # this morsel's worker has not produced its batches yet.
            blocked_started = time.perf_counter()
            batches, worker_metrics = future.result()
            waits.record(
                WAIT_CXPACKET,
                (time.perf_counter() - blocked_started) * 1000.0)
        else:
            batches, worker_metrics = future.result()
        segments_scanned += worker_metrics.segments_read
        segments_skipped += worker_metrics.segments_skipped
        ctx.absorb_worker_metrics(worker_metrics)
        for batch in batches:
            yield batch
    index.usage.add_segment_counts(segments_scanned, segments_skipped)
    # The delta store is read exactly once, by the coordinator, last —
    # mirroring the serial scan's yield order.
    yield from index.scan(
        columns, ctx,
        elimination_ranges=ranges,
        include_rids=include_rids,
        groups=[],
        include_delta=True,
        record_usage=False,
    )

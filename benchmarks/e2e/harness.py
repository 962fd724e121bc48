"""Measurement core: passes, statistics, and the metric definitions.

A *pass* is one run of a workload's statement list (or, for the two-
connection TCP workload, one fixed slice of the measuring window). A run
measures ``PASSES`` of them, whatever the clock says, so the work done,
every engine count and the state a DML workload reaches are the same on
every machine. Every latency metric is computed inside a pass and the
reported value is the median over passes, so one noisy pass cannot move
it. End-to-end metrics always come from passes run with tracing off; the
traced pass that follows supplies only the per-layer self times.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from trace import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
#: Engine set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Measured passes per run (after one discarded warm-up pass).
PASSES = 5


def load_spec() -> Dict[str, object]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------- statistics

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..1); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric over passes."""
    if not values:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "samples": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "samples": len(values)}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------- machine speed
#
# This sandbox's cores change speed by up to 2x for seconds at a time
# (neighbours on the host): a pure interpreter loop timed for a minute
# took 7.4 ms in its fastest second and 14.1 ms in its slowest. Raw
# wall-clock therefore moves 20-40 % between runs of identical code, more
# than any bound worth gating on, and longer passes do not help because a
# slow spell outlasts a run. A fixed CPU kernel is therefore timed beside
# the measured work, and every time is reported twice: ``raw`` as the
# clock showed it, and ``value`` at *reference speed*, where the share of
# the time the engine process spent on the CPU is multiplied by
# REFERENCE_S / (kernel seconds measured next to it). Time the process
# spent waiting (fsync) is not scaled. The kernel mixes what the engine
# mixes: interpreter arithmetic, a row-at-a-time loop over tuples, and
# numpy sorts and sums. Fifty passes of each in-process workload, timed
# beside candidate kernels, chose it: this mix left 3-4 % of a pass's time
# unexplained, any one part alone 4-6 %. It is part of the unit of every
# reference-speed number in the trajectory: do not edit it or REFERENCE_S.

REFERENCE_S = 0.001
#: Seconds of measured work between two yardstick samples.
SPEED_SAMPLE_EVERY_S = 0.03
_SPEED_ARRAY = np.arange(20000, dtype=np.int64)
_SPEED_ROWS = [(i, i * 7 % 1000, f"name{i % 2000:05d}", i % 97)
               for i in range(2000)]


def speed_sample() -> float:
    """Seconds the yardstick kernel takes right now."""
    started = time.perf_counter()
    total = 0
    small = {}
    for i in range(3000):
        total += i * i
        small[i & 1023] = total
    groups = {}
    for row in _SPEED_ROWS:
        if row[1] < 500:
            total += row[3]
            groups[row[3]] = groups.get(row[3], 0) + row[0]
    for _ in range(5):
        (_SPEED_ARRAY * 3 + 1).sum()
        np.sort(_SPEED_ARRAY[::-1])
    return time.perf_counter() - started


def speed_factor(*samples: float) -> float:
    """Multiplier taking CPU seconds measured beside ``samples`` to
    seconds at reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)


def steady_speed_sample(count: int = 5) -> float:
    """Median of ``count`` samples, for the places that can only sample
    before and after the work (set-up, a reopen, a TCP pass)."""
    return statistics.median(speed_sample() for _ in range(count))


def reference_scale(raw_s: float, cpu_s: float, factor: float) -> float:
    """Multiplier taking ``raw_s`` wall seconds, of which the engine
    process was on the CPU for ``cpu_s``, to reference speed: only the
    on-CPU share runs faster on a faster machine."""
    share = min(1.0, ratio(cpu_s, raw_s))
    return 1.0 - share * (1.0 - factor)


@dataclass
class Timed:
    """One timed piece of work outside the passes (a set-up, a reopen)."""

    seconds: float          # at reference speed
    raw_seconds: float


def timed_at_reference(work):
    """Run ``work()`` between two yardstick samples; returns its result
    and a ``Timed``."""
    speed = steady_speed_sample()
    cpu = time.process_time()
    started = time.perf_counter()
    result = work()
    raw = time.perf_counter() - started
    cpu = time.process_time() - cpu
    factor = speed_factor(speed, steady_speed_sample())
    return result, Timed(raw * reference_scale(raw, cpu, factor), raw)


# ----------------------------------------------------------------- passes

@dataclass
class PassResult:
    """What one pass observed. ``latencies``/``raw_latencies``/``kinds``
    are parallel lists; kind is ``read``, ``write`` or ``analytic`` (the
    second TCP connection). ``counters`` holds engine counts summed over
    the pass. ``wall_s``, ``cpu_s`` and ``latencies`` are at reference
    speed; the ``raw_`` fields are what the clocks showed."""

    wall_s: float
    cpu_s: float
    latencies: List[float]
    kinds: List[str]
    raw_wall_s: float
    raw_cpu_s: float
    raw_latencies: List[float]
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


#: Per-statement counts read from ``QueryResult.metrics``.
RESULT_COUNTERS = ("pages_read", "rows_returned", "segments_read",
                   "segments_skipped", "segment_cache_hits",
                   "segment_cache_misses", "code_path_hits",
                   "code_path_fallbacks", "columns_late_materialized")


def engine_counters(database, manager) -> Dict[str, float]:
    """Snapshot of the engine's public cumulative counters; a pass
    reports the difference of two snapshots."""
    waits = database.waits.server_stats()

    def wait_ms(wait_type: str) -> float:
        acc = waits.get(wait_type)
        return acc.wait_time_ms if acc is not None else 0.0

    pool = database.buffer_pool
    wal = database.wal
    morsels = manager.morsel_pool
    return {
        "latch_ex_wait_ms": wait_ms("LATCH_EX"),
        "latch_sh_wait_ms": wait_ms("LATCH_SH"),
        "cxpacket_wait_ms": wait_ms("CXPACKET"),
        "grant_waits": manager.admission.grants.grant_waits,
        "morsels": morsels.morsels_executed if morsels is not None else 0,
        "pool_hits": pool.hits if pool is not None else 0,
        "pool_misses": pool.misses if pool is not None else 0,
        "pool_evictions": pool.evictions if pool is not None else 0,
        "segcache_evictions": database.segment_cache.stats.evictions,
        "wal_commits": wal.flushes if wal is not None else 0,
        "wal_fsyncs": wal.fsyncs if wal is not None else 0,
    }


def counter_delta(before: Dict[str, float],
                  after: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def delta_rows(database) -> int:
    """Rows sitting in columnstore delta stores, over every CSI."""
    total = 0
    for table in database.tables():
        for index in table.all_indexes:
            total += getattr(index, "delta_rows", 0)
    return total


# ---------------------------------------------------------------- metrics

def end_to_end(passes: Sequence[PassResult], setup: Sequence[Timed],
               rss_mib: float) -> Dict[str, Dict[str, float]]:
    """The end-to-end metrics every workload reports, with their spread
    over passes; timings also carry ``raw``, the same median taken over
    the times as the clock showed them."""

    def timing(at_reference: Sequence[float], raw: Sequence[float]):
        return dict(spread(at_reference), raw=statistics.median(raw))

    correct = [p.attempted - len(p.failures) for p in passes]
    return {
        "setup_s": timing([t.seconds for t in setup],
                          [t.raw_seconds for t in setup]),
        "throughput_sps": timing(
            [ratio(n, p.wall_s) for n, p in zip(correct, passes)],
            [ratio(n, p.raw_wall_s) for n, p in zip(correct, passes)]),
        "stmt_p50_ms": timing(
            [_client_percentile(p, p.latencies, 0.50) for p in passes],
            [_client_percentile(p, p.raw_latencies, 0.50) for p in passes]),
        "cpu_ms_per_stmt": timing(
            [ratio(p.cpu_s * 1e3, p.attempted) for p in passes],
            [ratio(p.raw_cpu_s * 1e3, p.attempted) for p in passes]),
        "peak_rss_mb": spread([rss_mib]),
    }


def _client_percentile(p: PassResult, latencies: Sequence[float],
                       q: float) -> float:
    """Percentile, in milliseconds, over every statement of the (first)
    client connection. The second connection of ``ch_mixed_tcp`` is
    another client with statements a hundred times longer; mixing the two
    puts the median on the cliff between them, so its latencies are
    reported per layer (``client.analytic_p50_ms``)."""
    return 1e3 * percentile(
        [lat for lat, kind in zip(latencies, p.kinds) if kind != "analytic"],
        q)


def _kind_latency(passes: Sequence[PassResult], kinds: Sequence[str],
                  q: float) -> float:
    per_pass = []
    for p in passes:
        values = [lat for lat, kind in zip(p.latencies, p.kinds)
                  if kind in kinds]
        if values:
            per_pass.append(percentile(values, q) * 1e3)
    return statistics.median(per_pass) if per_pass else 0.0


#: trace layer -> per-layer metric (mean self milliseconds per statement)
LAYER_MS = {
    "server.session": "server.session.self_ms",
    "server.scheduler": "server.scheduler.admit_wait_ms",
    "sql.lexer": "sql.lexer.tokenize_ms",
    "sql.parser": "sql.parser.parse_ms",
    "sql.binder": "sql.binder.bind_ms",
    "optimizer.optimizer": "optimizer.optimizer.optimize_ms",
    "optimizer.materializer": "optimizer.materializer.materialize_ms",
    "engine.executor": "engine.executor.self_ms",
    "storage.events": "storage.events.emit_ms",
    "storage.timeseries": "storage.timeseries.sample_ms",
    "storage.waits": "storage.waits.scope_ms",
    "storage.btree.seek": "storage.btree.seek_ms",
    "storage.btree.scan": "storage.btree.scan_ms",
    "storage.btree.dml": "storage.btree.dml_ms",
    "storage.columnstore.scan": "storage.columnstore.scan_ms",
    "storage.columnstore.dml": "storage.columnstore.dml_ms",
    "storage.table": "storage.table.dml_ms",
    "storage.heap": "storage.heap.scan_ms",
    "storage.bufferpool": "storage.bufferpool.lookup_ms",
    "storage.bufferpool.fault": "storage.bufferpool.fault_ms",
    "storage.wal": "storage.wal.commit_ms",
}


#: Per-layer metrics a workload measures itself (0 where not applicable).
EXTRA_METRICS = (
    "server.frontend.rtt_overhead_ms",
    "storage.columnstore.delta_rows",
    "storage.bufferpool.peak_over_budget",
    "storage.pages.snapshot_bytes",
    "storage.pages.stored_bytes_per_user_byte",
    "storage.pages.checkpoint_s",
    "storage.recovery.open_s",
    "storage.recovery.snapshot_load_s",
    "storage.recovery.redo_s",
    "storage.recovery.check_s",
    "storage.recovery.ops_replayed",
)


def per_layer(passes: Sequence[PassResult], traced: Dict[str, object],
              traced_pass: PassResult, extras: Dict[str, float]
              ) -> Dict[str, float]:
    """Every per-layer metric. ``passes`` are the untraced passes (counts
    and client-side splits), ``traced`` is ``Tracer.summary()`` of the one
    traced pass (self times, brought to reference speed by that pass's
    own factor), ``extras`` are the workload's own measurements (open
    time, stored bytes, frontend numbers, ...)."""
    total = {}
    for p in passes:
        for name, value in p.counters.items():
            total[name] = total.get(name, 0) + value
    statements = sum(p.attempted for p in passes)
    count = lambda name: total.get(name, 0)
    traced_statements = traced.get("statements", 0)
    self_s = traced.get("self_s", {})
    names = traced.get("name_counts", {})
    to_reference = ratio(traced_pass.wall_s, traced_pass.raw_wall_s)
    out = {metric: ratio(self_s.get(layer, 0.0) * to_reference * 1e3,
                         traced_statements)
           for layer, metric in LAYER_MS.items()}
    commits = count("wal_commits")
    # wall time per statement, traced over untraced
    overhead = ratio(
        ratio(traced_pass.wall_s, traced_pass.attempted),
        statistics.median([ratio(p.wall_s, p.attempted) for p in passes])
        if passes else 0.0)
    overhead = overhead - 1.0 if overhead else 0.0
    out.update({
        "client.stmt_p95_ms": statistics.median(
            _client_percentile(p, p.latencies, 0.95) for p in passes),
        "client.write_p50_ms": _kind_latency(passes, ("write",), 0.50),
        "client.write_p95_ms": _kind_latency(passes, ("write",), 0.95),
        "client.analytic_p50_ms": _kind_latency(passes, ("analytic",), 0.50),
        "trace.overhead_share": overhead,
        "trace.self_sum_error": traced.get("worst_self_sum_error", 0.0),
        "sql.parser.parses_per_stmt": ratio(
            names.get("parse", 0), traced_statements),
        "storage.btree.seeks_per_stmt": ratio(
            sum(n for name, n in names.items()
                if name.endswith("BTreeIndex.seek_range")),
            traced_statements),
        "server.frontend.reply_bytes_per_stmt": ratio(
            count("reply_bytes"), statements),
        "server.scheduler.latch_ex_wait_ms": ratio(
            count("latch_ex_wait_ms"), statements),
        "server.scheduler.latch_sh_wait_ms": ratio(
            count("latch_sh_wait_ms"), statements),
        "server.scheduler.grant_waits": count("grant_waits"),
        "server.parallel_scan.morsels": ratio(count("morsels"), statements),
        "server.parallel_scan.cxpacket_wait_ms": ratio(
            count("cxpacket_wait_ms"), statements),
        "engine.executor.pages_read_per_stmt": ratio(
            count("pages_read"), statements),
        "engine.executor.rows_returned_per_stmt": ratio(
            count("rows_returned"), statements),
        "engine.encoded.code_path_hit_ratio": ratio(
            count("code_path_hits"),
            count("code_path_hits") + count("code_path_fallbacks")),
        "engine.encoded.columns_late_materialized": ratio(
            count("columns_late_materialized"), statements),
        "storage.columnstore.segments_read": ratio(
            count("segments_read"), statements),
        "storage.columnstore.segment_skip_ratio": ratio(
            count("segments_skipped"),
            count("segments_skipped") + count("segments_read")),
        "storage.segment_cache.hit_ratio": ratio(
            count("segment_cache_hits"),
            count("segment_cache_hits") + count("segment_cache_misses")),
        "storage.segment_cache.evictions": count("segcache_evictions"),
        "storage.bufferpool.hit_ratio": ratio(
            count("pool_hits"), count("pool_hits") + count("pool_misses")),
        "storage.bufferpool.evictions": ratio(
            count("pool_evictions"), statements),
        "storage.pages.page_reads": ratio(count("pool_misses"), statements),
        "storage.wal.fsyncs_per_commit": ratio(count("wal_fsyncs"), commits),
        "storage.wal.bytes_per_commit": ratio(count("wal_bytes"), commits),
        "storage.wal.bytes_per_user_byte": ratio(
            count("wal_bytes"), count("user_bytes")),
    })
    for name in EXTRA_METRICS:
        out[name] = extras.get(name, 0.0)
    return out


def recovery_extras(tracer: Tracer, to_reference: float) -> Dict[str, float]:
    """Seconds of the one traced ``Database.open`` spent loading the
    snapshot, scanning + redoing the WAL, and running the checker, from
    the spans recorded under ``recover``."""
    self_s = tracer.summary("recover")["self_s"]
    get = lambda layer: self_s.get(layer, 0.0) * to_reference
    return {
        "storage.recovery.snapshot_load_s":
            get("storage.recovery.snapshot_load"),
        "storage.recovery.redo_s":
            get("storage.recovery.redo") + get("storage.recovery"),
        "storage.recovery.check_s": get("storage.recovery.check"),
    }


# -------------------------------------------------------------------- run

@dataclass
class RunResult:
    workload: str
    seed: int
    attempted: int
    failed: int
    failures: List[str]
    end_to_end: Dict[str, Dict[str, float]]
    #: The workload's own measurements (open time, stored bytes, ...),
    #: taken with tracing off in every run.
    extras: Dict[str, float]
    per_layer: Optional[Dict[str, float]]
    properties: Dict[str, object]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload, "seed": self.seed,
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed, "failures": self.failures[:50],
            "failed_share": ratio(self.failed, self.attempted),
            "end_to_end": self.end_to_end, "extras": self.extras,
            "per_layer": self.per_layer, "properties": self.properties,
        }


def run_workload(cls, seed: int, seconds: float, trace: bool = False,
                 scale: float = 1.0, setups: int = SETUPS,
                 out_dir: str = OUT_DIR) -> RunResult:
    """Set up ``cls`` (``setups`` times, keeping the last), measure
    ``PASSES`` untraced passes after a discarded one, with ``trace`` add
    one traced pass, and finish with the untraced post-run work
    (checks, reopen). ``seconds`` only sets the length of a pass of the
    fixed-duration workload."""
    os.makedirs(out_dir, exist_ok=True)
    workload = cls(seed, scale, out_dir)
    trace_path = os.path.join(out_dir, f"trace_{cls.name}.json")
    try:
        workload.generate()
        setup = []
        for attempt in range(setups):
            if attempt:
                workload.teardown()
                # a database is a cyclic structure: without this the peak
                # RSS depends on when the collector happens to run
                gc.collect()
            setup.append(workload.timed_build())
        workload.prepare_oracle()
        measured = workload.measure(seconds)
        traced_pass = summary = tracer = None
        traced_extras = {}
        if trace:
            traced_pass, summary, tracer, traced_extras = \
                workload.traced_pass(trace_path)
        extras = workload.finish(tracer)
        if tracer is not None:
            with open(trace_path, "w") as f:
                json.dump(tracer.chrome_trace(), f)
        rss = workload.peak_rss_mib()
    finally:
        workload.teardown()
    counted = measured + ([traced_pass] if trace else [])
    failures = [f for p in counted for f in p.failures]
    failures += workload.check_failures
    attempted = sum(p.attempted for p in counted) + workload.checks
    properties = dict(workload.properties)
    properties["passes"] = len(measured)
    # reference-speed seconds per raw second over the measured passes:
    # 1.0 means the machine ran the yardstick in REFERENCE_S
    properties["speed_factor"] = statistics.median(
        [ratio(p.wall_s, p.raw_wall_s) for p in measured])
    properties["statements_per_pass"] = statistics.median(
        [p.attempted for p in measured])
    if trace:
        properties["trace_file"] = os.path.relpath(trace_path, REPO_ROOT)
    return RunResult(
        workload=cls.name, seed=seed, attempted=attempted,
        failed=len(failures), failures=failures,
        end_to_end=end_to_end(measured, setup, rss), extras=extras,
        per_layer=per_layer(measured, summary, traced_pass,
                            dict(extras, **traced_extras)) if trace else None,
        properties=properties)

"""Experiment runner: measure statements, build concurrency profiles,
and orchestrate design comparisons.

Glue between the engine and the per-figure benchmark scripts: every bench
uses :func:`measure` for solo executions and :func:`profile_statement` to
turn solo measurements into :class:`StatementProfile` inputs for the
discrete-event concurrency simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.concurrency import StatementProfile
from repro.engine.executor import Executor
from repro.engine.locks import range_bucket
from repro.engine.metrics import QueryMetrics


@dataclass
class Measurement:
    """Averaged metrics over repeated solo executions of one statement."""

    sql: str
    elapsed_ms: float
    cpu_ms: float
    data_read_mb: float
    memory_peak_bytes: int
    dop: int
    rows: int
    runs: int
    leaf_accesses: Dict[str, int] = field(default_factory=dict)
    segments_read: int = 0
    segments_skipped: int = 0


def measure(
    executor: Executor,
    sql: str,
    repeats: int = 3,
    cold: bool = False,
    memory_grant_bytes: Optional[int] = None,
) -> Measurement:
    """Execute ``sql`` ``repeats`` times and average the metrics.

    The paper runs each experiment at least 5 times and reports averages;
    our simulated timings are deterministic, so 3 repeats only guard
    against accidental state dependence (warming the delta store etc.).
    """
    totals = QueryMetrics()
    rows = 0
    for _ in range(repeats):
        result = executor.execute(
            sql, cold=cold, memory_grant_bytes=memory_grant_bytes)
        totals.merge(result.metrics)
        rows = len(result.rows)
    return Measurement(
        sql=sql,
        elapsed_ms=totals.elapsed_ms / repeats,
        cpu_ms=totals.cpu_ms / repeats,
        data_read_mb=totals.data_read_mb / repeats,
        memory_peak_bytes=totals.memory_peak_bytes,
        dop=totals.dop,
        rows=rows,
        runs=repeats,
        leaf_accesses=dict(totals.leaf_accesses),
        segments_read=totals.segments_read,
        segments_skipped=totals.segments_skipped,
    )


def profile_statement(
    executor: Executor,
    sql: str,
    tag: str,
    is_write: bool = False,
    read_resources: Tuple = (),
    write_resources: Tuple = (),
    pool: str = "default",
    cold: bool = False,
) -> StatementProfile:
    """Measure a statement solo and wrap it as a simulator profile.

    CPU and I/O components are separated so the simulator can model CPU
    contention (shared cores) independently of I/O waits.
    """
    result = executor.execute(sql, cold=cold)
    metrics = result.metrics
    io_ms = max(0.0, metrics.elapsed_ms - metrics.cpu_ms)
    return StatementProfile(
        tag=tag,
        cpu_ms=max(1e-6, metrics.cpu_ms),
        io_ms=io_ms,
        dop=max(1, metrics.dop),
        is_write=is_write,
        read_resources=tuple(read_resources),
        write_resources=tuple(write_resources),
        pool=pool,
    )


@dataclass
class DesignComparison:
    """Per-query costs under several physical designs (Figure 9 input)."""

    design_names: List[str]
    #: query -> design -> cpu_ms
    costs: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record(self, query: str, design: str, cpu_ms: float) -> None:
        """Record one execution of ``sql``."""
        self.costs.setdefault(query, {})[design] = cpu_ms

    def speedups(self, over: str, base: str) -> List[float]:
        """Speedup of design ``over`` relative to ``base`` per query
        (base_cost / over_cost, >1 means ``over`` is faster)."""
        out = []
        for per_design in self.costs.values():
            if over in per_design and base in per_design:
                if per_design[over] > 0:
                    out.append(per_design[base] / per_design[over])
        return out


def update_lock_footprint(table: str, key_column: str, key_value: object,
                          bucket_width: int = 1) -> Tuple:
    """Lock resource for an update hitting one key bucket."""
    return ("range", table, key_column, range_bucket(key_value, bucket_width))


def scan_lock_footprint(table: str, n_rowgroups: int) -> Tuple[Tuple, ...]:
    """Row-group-granularity read footprint of a columnstore scan."""
    return tuple(("rowgroup", table, g) for g in range(n_rowgroups))

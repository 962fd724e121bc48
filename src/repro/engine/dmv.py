"""DMV-style system views over the always-on telemetry layer.

Reproduces the monitoring surface SQL Server DBAs (and auto-tuners)
consume — the dynamic management views referenced throughout the paper's
methodology and related work:

======================================================  ======================================================
repro view                                              SQL Server counterpart
======================================================  ======================================================
``dm_db_index_usage_stats``                             ``sys.dm_db_index_usage_stats``
``dm_db_column_store_row_group_physical_stats``         ``sys.dm_db_column_store_row_group_physical_stats``
``dm_db_missing_index_details``                         ``sys.dm_db_missing_index_details`` (+ group stats)
``dm_exec_query_stats``                                 ``sys.dm_exec_query_stats`` (via the Query Store)
``dm_os_memory_cache_counters``                         ``sys.dm_os_memory_cache_counters``
``dm_os_wait_stats``                                    ``sys.dm_os_wait_stats``
``dm_exec_session_wait_stats``                          ``sys.dm_exec_session_wait_stats``
``dm_xe_ring_buffer``                                   ``sys.dm_xe_session_targets`` (ring buffer target)
======================================================  ======================================================

Each view is *virtual*: :func:`materialize_system_views` snapshots the
live telemetry into an ordinary heap :class:`~repro.storage.table.Table`
and registers it with the database, so ``SELECT * FROM
dm_db_index_usage_stats`` parses, binds, plans, and executes through the
normal engine path (filterable, joinable, aggregatable). The
:class:`~repro.engine.executor.Executor` rematerializes any referenced
view right before binding, so queries always see current counters.

Collection is observation-only — building a snapshot charges zero
modeled cost — and stamps come from the deterministic logical clock, so
snapshots are reproducible run-to-run. (Querying a view through SQL
charges normal modeled costs for the query itself, like any table scan;
the views never appear in figure workloads.)

The whole snapshot also exports as JSON (:func:`snapshot`) and
Prometheus text exposition format (:func:`to_prometheus`), surfaced by
``python -m repro monitor``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import CatalogError
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal, varchar
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.waits import HISTOGRAM_BUCKETS_MS

#: Names of every system view, in registration order.
SYSTEM_VIEW_NAMES: Tuple[str, ...] = (
    "dm_db_index_usage_stats",
    "dm_db_column_store_row_group_physical_stats",
    "dm_db_missing_index_details",
    "dm_exec_query_stats",
    "dm_os_memory_cache_counters",
    "dm_os_wait_stats",
    "dm_exec_session_wait_stats",
    "dm_xe_ring_buffer",
)

#: Maximum characters of statement text projected into
#: ``dm_exec_query_stats`` (SQL Server truncates via ``dm_exec_sql_text``
#: offsets; we simply clip).
_SQL_TEXT_LIMIT = 512

_RATIO = decimal(scale=4)


def _schema(name: str, *columns: Column) -> TableSchema:
    return TableSchema(name, list(columns))


_VIEW_SCHEMAS: Dict[str, TableSchema] = {
    "dm_db_index_usage_stats": _schema(
        "dm_db_index_usage_stats",
        Column("table_name", varchar(128), nullable=False),
        Column("index_name", varchar(128), nullable=False),
        Column("index_kind", varchar(8), nullable=False),
        Column("is_primary", INT, nullable=False),
        Column("user_seeks", BIGINT, nullable=False),
        Column("user_scans", BIGINT, nullable=False),
        Column("user_lookups", BIGINT, nullable=False),
        Column("user_updates", BIGINT, nullable=False),
        Column("last_user_seek", BIGINT, nullable=False),
        Column("last_user_scan", BIGINT, nullable=False),
        Column("last_user_lookup", BIGINT, nullable=False),
        Column("last_user_update", BIGINT, nullable=False),
        Column("segments_scanned", BIGINT, nullable=False),
        Column("segments_skipped", BIGINT, nullable=False),
    ),
    "dm_db_column_store_row_group_physical_stats": _schema(
        "dm_db_column_store_row_group_physical_stats",
        Column("table_name", varchar(128), nullable=False),
        Column("index_name", varchar(128), nullable=False),
        Column("row_group_id", INT, nullable=False),
        Column("state", varchar(16), nullable=False),
        Column("total_rows", BIGINT, nullable=False),
        Column("deleted_rows", BIGINT, nullable=False),
        Column("trimmed_rows", BIGINT, nullable=False),
        Column("size_in_bytes", BIGINT, nullable=False),
        Column("delta_store_rows", BIGINT, nullable=False),
        Column("delete_buffer_rows", BIGINT, nullable=False),
        Column("fragmentation", _RATIO, nullable=False),
    ),
    "dm_db_missing_index_details": _schema(
        "dm_db_missing_index_details",
        Column("table_name", varchar(128), nullable=False),
        Column("equality_columns", varchar(256)),
        Column("inequality_columns", varchar(256)),
        Column("included_columns", varchar(256)),
        Column("statement_count", BIGINT, nullable=False),
        Column("avg_selectivity", _RATIO, nullable=False),
        Column("last_seen", BIGINT, nullable=False),
    ),
    "dm_exec_query_stats": _schema(
        "dm_exec_query_stats",
        Column("sql_text", varchar(_SQL_TEXT_LIMIT), nullable=False),
        Column("execution_count", BIGINT, nullable=False),
        Column("total_cpu_ms", decimal(scale=3), nullable=False),
        Column("avg_cpu_ms", decimal(scale=3), nullable=False),
        Column("total_elapsed_ms", decimal(scale=3), nullable=False),
        Column("plan_count", INT, nullable=False),
        Column("had_plan_change", INT, nullable=False),
    ),
    "dm_os_memory_cache_counters": _schema(
        "dm_os_memory_cache_counters",
        Column("cache_name", varchar(64), nullable=False),
        Column("entries", BIGINT, nullable=False),
        Column("bytes_cached", BIGINT, nullable=False),
        Column("budget_bytes", BIGINT, nullable=False),
        Column("hits", BIGINT, nullable=False),
        Column("misses", BIGINT, nullable=False),
        Column("evictions", BIGINT, nullable=False),
        Column("hit_ratio", _RATIO, nullable=False),
        Column("enabled", INT, nullable=False),
    ),
    "dm_os_wait_stats": _schema(
        "dm_os_wait_stats",
        Column("wait_type", varchar(32), nullable=False),
        Column("waiting_tasks_count", BIGINT, nullable=False),
        Column("wait_time_ms", decimal(scale=3), nullable=False),
        Column("max_wait_time_ms", decimal(scale=3), nullable=False),
        # SQL Server splits runnable-queue time out as signal waits; the
        # repro engine has no scheduler queue, so this column is always
        # 0 — kept so DBA queries written against the real view port over.
        Column("signal_wait_time_ms", decimal(scale=3), nullable=False),
    ),
    "dm_exec_session_wait_stats": _schema(
        "dm_exec_session_wait_stats",
        Column("session_id", INT, nullable=False),
        Column("wait_type", varchar(32), nullable=False),
        Column("waiting_tasks_count", BIGINT, nullable=False),
        Column("wait_time_ms", decimal(scale=3), nullable=False),
        Column("max_wait_time_ms", decimal(scale=3), nullable=False),
        Column("signal_wait_time_ms", decimal(scale=3), nullable=False),
    ),
    "dm_xe_ring_buffer": _schema(
        "dm_xe_ring_buffer",
        Column("event_id", BIGINT, nullable=False),
        Column("timestamp", BIGINT, nullable=False),
        Column("event_name", varchar(64), nullable=False),
        Column("session_id", INT, nullable=False),
        Column("payload", varchar(1024), nullable=False),
    ),
}


def view_schema(name: str) -> TableSchema:
    """The schema of one system view (CatalogError for unknown names)."""
    try:
        return _VIEW_SCHEMAS[name]
    except KeyError:
        raise CatalogError(f"no system view named {name!r}") from None


# ------------------------------------------------------------- row builders
def usage_rows(database: Database) -> List[Tuple[object, ...]]:
    """``dm_db_index_usage_stats``: one row per index of every user
    table, in table-creation / index-creation order."""
    rows = []
    for table in database.tables():
        for index in table.all_indexes:
            usage = index.usage
            rows.append((
                table.name, index.name, index.kind,
                1 if index.is_primary else 0,
                usage.user_seeks, usage.user_scans, usage.user_lookups,
                usage.user_updates,
                usage.last_user_seek, usage.last_user_scan,
                usage.last_user_lookup, usage.last_user_update,
                usage.segments_scanned, usage.segments_skipped,
            ))
    return rows


def rowgroup_rows(database: Database) -> List[Tuple[object, ...]]:
    """``dm_db_column_store_row_group_physical_stats``: one row per
    compressed row group, plus one OPEN row for a non-empty delta store
    (SQL Server surfaces the delta store the same way).

    ``trimmed_rows`` is the unused capacity of a compressed group
    (``rowgroup_size - total_rows``); ``delta_store_rows`` and
    ``delete_buffer_rows`` repeat the index-level depths on every row of
    that index so a single-row filter still sees them."""
    rows = []
    for table in database.tables():
        for index in table.all_indexes:
            if not isinstance(index, ColumnstoreIndex):
                continue
            delta_rows = index.delta_rows
            buffer_rows = index.delete_buffer_rows
            fragmentation = round(index.fragmentation, 6)
            for group_id, state in enumerate(index._groups):
                group = state.group
                rows.append((
                    table.name, index.name, group_id, "COMPRESSED",
                    group.n_rows, state.n_deleted,
                    max(0, index.rowgroup_size - group.n_rows),
                    group.size_bytes(), delta_rows, buffer_rows,
                    fragmentation,
                ))
            if delta_rows:
                rows.append((
                    table.name, index.name, index.n_rowgroups, "OPEN",
                    delta_rows, 0, 0,
                    delta_rows * index._delta_row_bytes(),
                    delta_rows, buffer_rows, fragmentation,
                ))
    return rows


def missing_index_rows(database: Database) -> List[Tuple[object, ...]]:
    """``dm_db_missing_index_details``: grouped optimizer observations,
    most-requested first."""
    rows = []
    for details in database.telemetry.missing_indexes():
        rows.append((
            details.table_name,
            ", ".join(details.equality_columns) or None,
            ", ".join(details.inequality_columns) or None,
            ", ".join(details.included_columns) or None,
            details.statement_count,
            round(details.avg_selectivity, 6),
            details.last_seen,
        ))
    return rows


def query_stats_rows(query_store) -> List[Tuple[object, ...]]:
    """``dm_exec_query_stats``: lifetime per-statement aggregates from a
    :class:`~repro.engine.query_store.QueryStore`, highest total CPU
    first. Empty when no store is attached."""
    if query_store is None:
        return []
    rows = []
    for stats in query_store.top_by_cpu(len(query_store)):
        rows.append((
            stats.sql[:_SQL_TEXT_LIMIT],
            stats.recorded,
            round(stats.total_cpu_ms, 4),
            round(stats.mean_cpu_ms, 4),
            round(stats.total_elapsed_ms, 4),
            len(stats.plan_fingerprints),
            1 if stats.had_plan_change else 0,
        ))
    return rows


def memory_cache_rows(database: Database,
                      buffer_pool=None) -> List[Tuple[object, ...]]:
    """``dm_os_memory_cache_counters``: the statement cache (capped by
    entry, so ``budget_bytes`` is 0 and ``bytes_cached`` counts the
    UTF-8 bytes of the texts it retains),
    the plans its templates carry (``plan_cache``: entries = operator
    trees held, hits = executions that ran a kept one, misses =
    executions of a reusable SELECT that built a tree, no byte
    accounting), plus a
    :class:`~repro.storage.bufferpool.BufferPool` when one exists — either the database's own demand-paging pool
    (``Database.open(..., paging=True)``) or a modeled pool the caller
    tracks. Byte math derives from the pool's real accounting
    (``bytes_resident``/``budget_bytes``, both rooted in the single
    :data:`~repro.storage.bufferpool.PAGE_BYTES` constant shared with the
    on-disk format) instead of a hardcoded page size."""
    statements = database.statement_cache
    rows = [(
        "statement_cache", len(statements), statements.bytes_cached, 0,
        statements.hits, statements.misses, statements.evictions,
        round(statements.hit_ratio, 6), 1,
    )]
    rows.append((
        "plan_cache", statements.plans_cached, 0, 0,
        statements.plan_hits, statements.plan_misses,
        statements.plan_evictions, round(statements.plan_hit_ratio, 6), 1,
    ))
    if buffer_pool is None:
        buffer_pool = getattr(database, "buffer_pool", None)
    if buffer_pool is not None:
        rows.append((
            "buffer_pool", len(buffer_pool), buffer_pool.bytes_resident,
            buffer_pool.budget_bytes,
            buffer_pool.hits, buffer_pool.misses, buffer_pool.evictions,
            round(buffer_pool.hit_ratio, 6), 1,
        ))
    return rows


def wait_stats_rows(database: Database) -> List[Tuple[object, ...]]:
    """``dm_os_wait_stats``: server-wide wait accumulation, every
    canonical wait type present (zeros included, like the real view),
    in taxonomy order.

    When a WAL is attached, two informational counter rows follow —
    ``WAL_FLUSH`` / ``WAL_FSYNC`` surface the log's flush and fsync
    counts through ``waiting_tasks_count`` (their blocked time is
    already accumulated under ``WRITELOG``, so the ms columns are 0)."""
    rows = []
    for wait_type, acc in database.waits.server_stats().items():
        rows.append((
            wait_type, acc.waiting_tasks_count,
            round(acc.wait_time_ms, 4), round(acc.max_wait_time_ms, 4),
            0.0,
        ))
    wal = getattr(database, "wal", None)
    if wal is not None:
        rows.append(("WAL_FLUSH", wal.flushes, 0.0, 0.0, 0.0))
        rows.append(("WAL_FSYNC", wal.fsyncs, 0.0, 0.0, 0.0))
    return rows


def session_wait_stats_rows(database: Database) -> List[Tuple[object, ...]]:
    """``dm_exec_session_wait_stats``: per-session wait accumulation,
    sessions ascending, wait types in taxonomy order, only nonzero
    buckets (the real view likewise only carries waits that happened).
    Session 0 is the unattributed/internal bucket (standalone
    executors, checkpoints). Summing this view's counters grouped by
    wait_type reproduces ``dm_os_wait_stats`` exactly — recording updates
    both ledgers under one lock."""
    rows = []
    for session_id, buckets in database.waits.session_stats().items():
        for wait_type, acc in buckets.items():
            rows.append((
                session_id, wait_type, acc.waiting_tasks_count,
                round(acc.wait_time_ms, 4), round(acc.max_wait_time_ms, 4),
                0.0,
            ))
    return rows


def xe_ring_rows(database: Database) -> List[Tuple[object, ...]]:
    """``dm_xe_ring_buffer``: the retained extended events oldest-first,
    payloads as deterministic (sorted-keys) JSON clipped to the column
    width."""
    rows = []
    for event in database.events.events():
        payload = json.dumps(event.payload, sort_keys=True, default=str)
        rows.append((
            event.event_id, event.timestamp, event.name, event.session_id,
            payload[:1024],
        ))
    return rows


_ROW_BUILDERS = {
    "dm_db_index_usage_stats": lambda db, qs, bp: usage_rows(db),
    "dm_db_column_store_row_group_physical_stats":
        lambda db, qs, bp: rowgroup_rows(db),
    "dm_db_missing_index_details": lambda db, qs, bp: missing_index_rows(db),
    "dm_exec_query_stats": lambda db, qs, bp: query_stats_rows(qs),
    "dm_os_memory_cache_counters":
        lambda db, qs, bp: memory_cache_rows(db, bp),
    "dm_os_wait_stats": lambda db, qs, bp: wait_stats_rows(db),
    "dm_exec_session_wait_stats":
        lambda db, qs, bp: session_wait_stats_rows(db),
    "dm_xe_ring_buffer": lambda db, qs, bp: xe_ring_rows(db),
}


# ----------------------------------------------------------- materialization
def build_view(name: str, database: Database, query_store=None,
               buffer_pool=None) -> Table:
    """Snapshot one system view into a standalone heap table."""
    schema = view_schema(name)
    table = Table(schema)
    table.bulk_load(_ROW_BUILDERS[name](database, query_store, buffer_pool))
    return table


def materialize_system_views(
    database: Database,
    names: Optional[Sequence[str]] = None,
    query_store=None,
    buffer_pool=None,
) -> List[str]:
    """Snapshot the requested system views (all by default) and register
    them with ``database`` so SQL queries resolve them like tables.

    Returns the names actually materialized. Views shadowed by a real
    user table of the same name are skipped — user tables win."""
    materialized = []
    for name in (names if names is not None else SYSTEM_VIEW_NAMES):
        if name not in _VIEW_SCHEMAS or database.has_table(name):
            continue
        database.register_system_view(
            build_view(name, database, query_store, buffer_pool))
        materialized.append(name)
    return materialized


# ------------------------------------------------------------------ exports
def snapshot(database: Database, query_store=None,
             buffer_pool=None) -> Dict[str, object]:
    """The full telemetry snapshot as a JSON-serialisable dict: one entry
    per view mapping column names to row values, plus the logical clock."""
    out: Dict[str, object] = {
        "logical_clock": database.telemetry.clock.now,
    }
    for name in SYSTEM_VIEW_NAMES:
        columns = view_schema(name).column_names()
        rows = _ROW_BUILDERS[name](database, query_store, buffer_pool)
        out[name] = [dict(zip(columns, row)) for row in rows]
    return out


def _escape_label(value: object) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _prom_line(metric: str, labels: Dict[str, object],
               value: object) -> str:
    if labels:
        inner = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items())
        return f"{metric}{{{inner}}} {value}"
    return f"{metric} {value}"


def to_prometheus(database: Database, query_store=None,
                  buffer_pool=None) -> str:
    """The snapshot in Prometheus text exposition format.

    Cumulative usage counters export as ``counter`` metrics; physical
    state (rowgroups, fragmentation, cache occupancy) as ``gauge``.
    Output order is deterministic (table/index creation order)."""
    lines: List[str] = []

    def header(metric: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")

    header("repro_logical_clock", "counter",
           "Monotonic statement sequence number (deterministic stamps).")
    lines.append(_prom_line("repro_logical_clock", {},
                            database.telemetry.clock.now))

    usage_metrics = [
        ("user_seeks", "Seeks through the index by user statements."),
        ("user_scans", "Full scans of the index by user statements."),
        ("user_lookups", "Bookmark/RID lookups into the structure."),
        ("user_updates", "User DML statements that maintained the index."),
        ("segments_scanned", "Columnstore segments read by user scans."),
        ("segments_skipped", "Columnstore segments eliminated via min/max."),
    ]
    usage = usage_rows(database)
    columns = view_schema("dm_db_index_usage_stats").column_names()
    for field, help_text in usage_metrics:
        metric = f"repro_index_{field}"
        header(metric, "counter", help_text)
        ordinal = columns.index(field)
        for row in usage:
            lines.append(_prom_line(
                metric, {"table": row[0], "index": row[1], "kind": row[2]},
                row[ordinal]))

    rowgroup_metrics = [
        ("repro_csi_rowgroups", "n_rowgroups", "Compressed row groups."),
        ("repro_csi_delta_rows", "delta_rows", "Rows in the delta store."),
        ("repro_csi_delete_buffer_rows", "delete_buffer_rows",
         "Rids awaiting delete-buffer compaction."),
    ]
    csi_indexes = [
        (table.name, index)
        for table in database.tables()
        for index in table.all_indexes
        if isinstance(index, ColumnstoreIndex)
    ]
    for metric, attribute, help_text in rowgroup_metrics:
        header(metric, "gauge", help_text)
        for table_name, index in csi_indexes:
            lines.append(_prom_line(
                metric, {"table": table_name, "index": index.name},
                getattr(index, attribute)))
    header("repro_csi_fragmentation", "gauge",
           "Fraction of compressed slots wasted on deleted/buffered rows.")
    for table_name, index in csi_indexes:
        lines.append(_prom_line(
            "repro_csi_fragmentation",
            {"table": table_name, "index": index.name},
            f"{index.fragmentation:.6f}"))

    header("repro_missing_index_requests", "counter",
           "Statements that would have benefited from a missing index.")
    for details in database.telemetry.missing_indexes():
        lines.append(_prom_line(
            "repro_missing_index_requests",
            {"table": details.table_name,
             "keys": ",".join(details.key_columns)},
            details.statement_count))

    cache_metrics = [
        ("hits", "counter", 4), ("misses", "counter", 5),
        ("evictions", "counter", 6), ("bytes_cached", "gauge", 2),
        ("entries", "gauge", 1),
    ]
    cache_rows = memory_cache_rows(database, buffer_pool)
    for field, kind, ordinal in cache_metrics:
        metric = f"repro_cache_{field}"
        header(metric, kind, f"Memory cache {field.replace('_', ' ')}.")
        for row in cache_rows:
            lines.append(_prom_line(metric, {"cache": row[0]}, row[ordinal]))

    header("repro_wait_time_ms", "histogram",
           "Real blocked milliseconds per wait type (fixed buckets; "
           "observation-only wall time, not modeled cost).")
    for wait_type, acc in database.waits.server_stats().items():
        labels = {"wait_type": wait_type}
        cumulative = 0
        for bound, count in zip(HISTOGRAM_BUCKETS_MS, acc.bucket_counts):
            cumulative += count
            lines.append(_prom_line(
                "repro_wait_time_ms_bucket",
                {**labels, "le": f"{bound:g}"}, cumulative))
        cumulative += acc.bucket_counts[-1]
        lines.append(_prom_line(
            "repro_wait_time_ms_bucket", {**labels, "le": "+Inf"},
            cumulative))
        lines.append(_prom_line("repro_wait_time_ms_sum", labels,
                                f"{acc.wait_time_ms:.4f}"))
        lines.append(_prom_line("repro_wait_time_ms_count", labels,
                                acc.waiting_tasks_count))

    header("repro_xe_events_emitted", "counter",
           "Extended events emitted into the ring buffer (lifetime).")
    lines.append(_prom_line("repro_xe_events_emitted", {},
                            database.events.emitted))
    header("repro_xe_events_dropped", "counter",
           "Extended events aged off the full ring buffer.")
    lines.append(_prom_line("repro_xe_events_dropped", {},
                            database.events.dropped))

    wal = getattr(database, "wal", None)
    if wal is not None:
        header("repro_wal_flushes", "counter",
               "WAL flush calls (commit group flushes).")
        lines.append(_prom_line("repro_wal_flushes", {}, wal.flushes))
        header("repro_wal_fsyncs", "counter",
               "fsync barriers issued by the WAL.")
        lines.append(_prom_line("repro_wal_fsyncs", {}, wal.fsyncs))

    if query_store is not None:
        header("repro_query_store_executions", "counter",
               "Executions recorded by the Query Store (lifetime).")
        lines.append(_prom_line("repro_query_store_executions", {},
                                query_store.recorded_executions))
        header("repro_query_store_cpu_ms", "counter",
               "Total modeled CPU recorded by the Query Store.")
        lines.append(_prom_line(
            "repro_query_store_cpu_ms", {},
            f"{query_store.total_cpu_ms:.4f}"))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- reports
def unused_index_report(database: Database) -> List[Dict[str, object]]:
    """Secondary indexes that were maintained but never read — the
    classic drop-candidate query over ``sys.dm_db_index_usage_stats``.

    Sorted by wasted maintenance (``user_updates`` desc, then size)."""
    report = []
    for table in database.tables():
        for index in table.all_indexes:
            if index.is_primary:
                continue
            usage = index.usage
            if usage.total_reads == 0:
                report.append({
                    "table_name": table.name,
                    "index_name": index.name,
                    "index_kind": index.kind,
                    "user_updates": usage.user_updates,
                    "size_bytes": index.size_bytes(),
                })
    report.sort(key=lambda entry: (-entry["user_updates"],
                                   -entry["size_bytes"],
                                   entry["table_name"],
                                   entry["index_name"]))
    return report


#: Package-level aliases: ``repro.dmv_snapshot`` / ``repro.dmv_to_prometheus``
#: re-export :func:`snapshot` and :func:`to_prometheus` under names that
#: stay unambiguous outside this module.
dmv_snapshot = snapshot
dmv_to_prometheus = to_prometheus

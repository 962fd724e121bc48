"""Top-level statement executor.

Ties the stack together: SQL text -> parse -> bind -> optimize ->
materialize -> run, returning rows plus the metrics the paper reports
(elapsed, CPU, data read, memory, spills). DML statements locate their
target rows through the best available access path, then route the
modifications through every index on the table — which is where the
update-cost asymmetries of Figure 5 are measured.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.analyze import AnalyzedQuery
from repro.engine.batch import Batch, RowColumns, batch_to_rows, eval_column
from repro.engine.dmv import SYSTEM_VIEW_NAMES, materialize_system_views
from repro.engine.expressions import (
    ColumnRange,
    Expr,
    drop_folded_conjuncts,
    eval_batch,
    extract_column_ranges,
    key_prefix_ranges,
)
from repro.engine.metrics import ExecutionContext, OperatorSpan, QueryMetrics
from repro.engine.operators.scans import compose_prefix_bounds
from repro.engine.query_store import node_stats_from_span, plan_fingerprint
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostingOptions
from repro.optimizer.materializer import Materializer
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plans import PlannedQuery
from repro.optimizer.reuse import kept_tree, rebound, reuse_plan
from repro.sql.binder import (
    Binder,
    BoundDelete,
    BoundInsert,
    BoundSelect,
    BoundUpdate,
)
from repro.sql.parser import Template, fill, instantiate
from repro.storage.btree import PrimaryBTreeIndex, SecondaryBTreeIndex
from repro.storage.columnstore import RID_COLUMN, ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.table import Table


@dataclass
class QueryResult:
    """Rows, column names, metrics, and (for SELECTs) the chosen plan."""

    columns: List[str]
    rows: List[Tuple[object, ...]]
    metrics: QueryMetrics
    plan: Optional[PlannedQuery] = None
    rows_affected: int = 0
    #: Root of the per-operator span tree recorded while executing (the
    #: synthetic "<statement>" span; operator spans hang beneath it).
    root_span: Optional[OperatorSpan] = None
    #: Real blocking observed while this statement executed:
    #: ``{wait_type: {"count": n, "wait_ms": ms}}``. Observation-only
    #: wall-clock data (empty on an uncontended run) — never part of the
    #: modeled metrics, shown by EXPLAIN ANALYZE and aggregated by the
    #: Query Store.
    wait_profile: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> object:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def column(self, name: str) -> List[object]:
        """Values of one result/batch/stats column by name."""
        try:
            i = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"no result column {name!r}") from None
        return [row[i] for row in self.rows]


@dataclass
class Statement:
    """One statement's record: ``prepare`` creates it, each later stage
    reads what the stages before it wrote, and the record stage tells
    every sensor about the statement from it. Data only, except
    ``enter`` and the ``parsed`` it builds on first use."""

    sql: str
    params: Sequence[object]
    #: The cached template of the text, and this execution's value for
    #: each of its slots.
    template: Template
    values: Sequence[object]
    #: Only a SELECT is: the latch mode a session admits the statement in.
    read_only: bool
    #: The one hook, behaviour rather than data: a context ``execute``
    #: enters between opening the wait scope and begin. A session puts
    #: its ``AdmissionController.admit(...)`` here (latch hold + memory
    #: grant, so their queueing lands in ``waits``); embedded, nothing.
    enter: ContextManager = nullcontext()
    #: Written by begin (the logical-clock sequence number), bind (the
    #: bound statement, or an equality-only SELECT's kept plan and tree
    #: instead), run.
    stamp: Optional[int] = None
    bound: object = None
    #: The kept plan and operator tree (:mod:`repro.optimizer.reuse`) a
    #: SELECT runs with its ``values``: taken at bind, or at run after
    #: optimizing, kept then or earlier.
    cached: object = None
    plan: Optional[PlannedQuery] = None
    ctx: Optional[ExecutionContext] = None
    result: Optional[QueryResult] = None
    #: ``wait_type -> [count, wait_ms]`` of the statement's wait scope.
    waits: Optional[Dict[str, List[float]]] = None
    error: Optional[BaseException] = None
    _parsed: object = None

    @property
    def parsed(self):
        """The template with this execution's values in its slots. Built
        on first use: a SELECT whose template keeps its bound statement
        never binds it."""
        if self._parsed is None:
            self._parsed = instantiate(self.template, self.values)
        return self._parsed


class Executor:
    """Executes SQL statements against a database."""

    def __init__(self, database: Database,
                 catalog: Optional[Catalog] = None,
                 query_store: Optional["QueryStore"] = None):
        self.database = database
        self.catalog = catalog or Catalog(database)
        self.binder = Binder(database)
        self.materializer = Materializer(database)
        #: Optional Query Store recording every execution (Section 3.1's
        #: monitoring methodology). None disables recording.
        self.query_store = query_store

    def refresh(self) -> None:
        """Invalidate cached statistics and design descriptors (call after
        physical design changes or bulk DML)."""
        self.catalog.invalidate()

    # ------------- pipeline: prepare -> begin -> bind -> run -> record
    def prepare(self, sql: str, params: Sequence[object] = ()) -> Statement:
        """Stage 1: the record for ``sql``, from one statement-cache
        lookup. A pure function of text and values: it needs no latch,
        and text that does not parse raises its ``SqlError`` here."""
        template, values = self.database.statement_cache.lookup(sql)
        values = fill(values, params)
        # A reusable template's slots are all comparison or BETWEEN
        # values, which any value fills, and it is instantiated only if
        # it binds; any other statement is instantiated here, so a value
        # a slot cannot take (TOP 'x') fails before admission.
        return Statement(sql, params, template, values, template.read_only,
                         _parsed=None if template.plans else instantiate(
                             template, values))

    def execute(
        self,
        sql: Union[str, Statement],
        params: Sequence[object] = (),
        cold: bool = False,
        memory_grant_bytes: Optional[int] = None,
        concurrent_queries: int = 1,
    ) -> QueryResult:
        """Run one statement: SQL text, or the record a session prepared
        and hung its admission on (``record.enter``). The wait scope
        opens first, so queueing for the latch and the grant is charged
        to the statement."""
        record = sql if isinstance(sql, Statement) else self.prepare(
            sql, params)
        options = (cold, memory_grant_bytes, concurrent_queries)
        with self.database.waits.statement() as record.waits, \
                record.enter:
            self._begin(record)
            try:
                self._bind(record, options)
                self._run(record, options)
            except BaseException as exc:
                record.error = exc
                raise
            finally:
                self._record(record)
        return record.result

    def _begin(self, record: Statement) -> None:
        """Stage 2: stamp and announce the statement, and rematerialize
        any ``dm_*`` view it references against current telemetry."""
        database = self.database
        # Every user statement advances the deterministic logical clock;
        # telemetry stamps recorded while it runs carry its sequence
        # number (observation-only: no modeled cost).
        record.stamp = database.telemetry.clock.advance()
        # Emitted before the system views refresh so a query over
        # dm_xe_ring_buffer observes its own statement_begin.
        database.events.emit("statement_begin", {
            "sql": record.sql[:200], "statement": record.stamp,
        })
        self._materialize_views(record.template)

    def _materialize_views(self, template: Template) -> None:
        """Rematerialize every ``dm_*`` view ``template`` names (and no
        table shadows) against current telemetry. A slot never names a
        table, so the template's table references are the statement's."""
        database, statement = self.database, template.statement
        referenced = [
            ref.table
            for ref in (getattr(statement, "table_refs", None)
                        or [statement.table])
            if ref.table in SYSTEM_VIEW_NAMES
            and not database.has_table(ref.table)
        ]
        if referenced:
            for name in materialize_system_views(
                    database, names=referenced, query_store=self.query_store,
                    buffer_pool=database.buffer_pool):
                self.catalog.invalidate(name)

    def _bind(self, record: Statement, options: Optional[tuple] = None
              ) -> object:
        """Stage 3: resolve the statement's names against the catalog.
        Given the run's ``options``, a SELECT of a reusable template is
        not bound (:mod:`repro.optimizer.reuse`): an equality-only one
        whose template holds a plan valid for them and these values takes
        that plan and its operator tree instead, and is neither bound,
        optimized nor materialized; else, once a bind of these value
        types succeeded, its WHERE is rebuilt from the kept bound
        statement."""
        if options is not None and record.read_only:
            record.cached = reuse_plan(record.template, record.values,
                                       options, self.catalog)
            if record.cached is not None:
                return None
            record.bound = rebound(record.template, record.values,
                                   self.database)
            if record.bound is not None:
                return record.bound
        record.bound = self.binder.bind(record.parsed)
        return record.bound

    def _run(self, record: Statement, options: tuple) -> None:
        """Stage 4. SELECT: optimize (unless bind took a kept plan and
        tree), run the kept tree whose plan decides as this one does or
        materialize one, drain. A kept tree runs with the statement's
        values as ``ctx.params``; the plan the statement reports is the
        one optimizing its values made. DML: locate the target rows, then
        apply them inside one WAL scope."""
        bound, database = record.bound, self.database
        cold, memory_grant_bytes, concurrent_queries = options
        record.ctx = ctx = ExecutionContext(
            cost_model=database.cost_model, cold=cold,
            memory_grant_bytes=memory_grant_bytes,
        )
        ctx.charge_statement_overhead()
        result = QueryResult(columns=[], rows=[], metrics=ctx.metrics)
        root = None
        if isinstance(bound, BoundSelect):
            optimizer = self._optimizer(
                ctx.memory_grant_bytes, cold, concurrent_queries)
            record.plan = optimizer.optimize(bound)
            record.cached = kept_tree(
                record.template, record.values, options, self.catalog,
                self.binder, bound, record.plan,
                optimizer.reported_missing_index,
                self.materializer.materialize)
            if record.cached is None:
                root = self.materializer.materialize(record.plan)
            else:
                record.plan = record.plan.with_params(record.values)
        elif record.cached is not None:
            record.plan = record.cached.planned.with_params(record.values)
        if record.cached is not None:
            root, ctx.params = record.cached.root, record.values
        if root is not None:
            result.plan = record.plan
            result.columns = root.output_columns
            for batch in root.execute(ctx):
                result.rows.extend(batch_to_rows(batch, result.columns))
            ctx.metrics.rows_returned = len(result.rows)
        elif type(bound) in self._APPLY:
            # On a durable database every DML statement is one WAL
            # transaction: the redo ops raised by its Table calls buffer
            # in the scope and hit disk together with the COMMIT before
            # the statement returns. Failure aborts the scope — nothing
            # from this statement ever reaches the log.
            wal = database.wal
            with nullcontext() if wal is None else wal.statement():
                result.rows_affected = self._APPLY[type(bound)](
                    self, bound, ctx)
        else:
            raise ExecutionError(f"cannot execute {type(bound).__name__}")
        record.result = result

    def _record(self, record: Statement) -> None:
        """Stage 5, success or failure: hand the result its span tree,
        format the wait profile, feed the Query Store, emit
        ``statement_end``, offer the history a sample."""
        database, result = self.database, record.result
        payload = {"sql": record.sql[:200], "statement": record.stamp}
        if record.error is not None:
            payload["error"] = type(record.error).__name__
        else:
            result.root_span = record.ctx.root_span
            result.wait_profile = {
                wait_type: {"count": int(count), "wait_ms": round(ms, 4)}
                for wait_type, (count, ms) in sorted(record.waits.items())
            }
            if self.query_store is not None:
                self._record_in_query_store(record.sql, result)
            payload.update(
                elapsed_ms=round(result.metrics.elapsed_ms, 4),
                cpu_ms=round(result.metrics.cpu_ms, 4),
                rows=len(result.rows), rows_affected=result.rows_affected)
            if result.wait_profile:
                # Only when the statement blocked, so single-threaded
                # determinism harnesses see stable payloads.
                payload["waits"] = result.wait_profile
        database.events.emit("statement_end", payload)
        if record.error is None:
            database.history.maybe_sample(database)

    def _record_in_query_store(self, sql: str, result: QueryResult) -> None:
        fingerprint = plan_fingerprint(result.plan)
        prior = self.query_store.stats(sql)
        if (fingerprint and prior is not None and prior.plan_fingerprints
                and fingerprint not in prior.plan_fingerprints):
            self.database.events.emit("plan_change", {
                "sql": sql[:200],
                "previous_plan": prior.plan_fingerprints[-1][:200],
                "new_plan": fingerprint[:200],
            })
        self.query_store.record(
            sql, result.metrics, fingerprint,
            node_stats=node_stats_from_span(result.root_span),
            wait_profile=result.wait_profile)

    def explain_analyze(
        self,
        sql: str,
        params: Sequence[object] = (),
        cold: bool = False,
        memory_grant_bytes: Optional[int] = None,
    ) -> AnalyzedQuery:
        """Execute ``sql`` and return the plan tree annotated with actual
        per-operator statistics (rows, batches, elapsed/CPU, I/O, memory,
        spills) next to the optimizer's estimates — the reproduction of
        SQL Server's actual-execution-plan / DMV surface the paper's
        methodology leans on (Sections 3.1, 5.2.1)."""
        result = self.execute(sql, params=params, cold=cold,
                              memory_grant_bytes=memory_grant_bytes)
        return AnalyzedQuery(sql=sql, result=result)

    def explain(self, sql: str, params: Sequence[object] = ()) -> str:
        """The optimizer's chosen plan for a SELECT, as indented text
        (EXPLAIN without executing)."""
        return self.plan(sql, params).explain()

    def plan(self, sql: str, params: Sequence[object] = (),
             cold: bool = False,
             memory_grant_bytes: Optional[int] = None) -> PlannedQuery:
        """Optimize a SELECT without executing it: always through the
        optimizer (never a reused plan), and without stamping or
        announcing a statement."""
        record = self.prepare(sql, params)
        self._materialize_views(record.template)
        bound = self._bind(record)
        if not isinstance(bound, BoundSelect):
            raise ExecutionError("plan() supports SELECT statements")
        return self._optimizer(memory_grant_bytes, cold).optimize(bound)

    def _optimizer(self, memory_grant_bytes: Optional[int],
                   cold: bool, concurrent_queries: int = 1) -> Optimizer:
        options = CostingOptions(
            cost_model=self.database.cost_model, cold=cold,
            memory_grant_bytes=memory_grant_bytes,
            concurrent_queries=concurrent_queries,
        )
        return Optimizer(self.catalog, options,
                         telemetry=self.database.telemetry)

    # ---------------------------------------------------------------- DML
    def _locate_rids(self, table: Table, where: Optional[Expr],
                     top: Optional[int], ctx: ExecutionContext) -> List[int]:
        """Find target row ids through the cheapest available access path.

        Mirrors access-path selection for DML: a sargable primary B+ tree
        seek, else a sargable secondary B+ tree seek that looks every row
        up, else a columnstore scan when the primary is a CSI, else a
        heap scan. Each is a source of ``(rids, batch)`` chunks; what is
        left of ``where`` once the seek's own conjuncts are dropped is
        evaluated once per chunk by the evaluator SELECT's scans use.
        """
        if top == 0:
            return []
        ranges = {
            name.split(".", 1)[-1]: column_range
            for name, column_range in extract_column_ranges(where).items()
        }
        primary = table.primary
        index = (primary if isinstance(primary, PrimaryBTreeIndex)
                 else self._best_secondary_for(table, ranges))
        key_ranges = (key_prefix_ranges(index.key_columns, ranges)
                      if index is not None else [])
        low, high, *inclusive = compose_prefix_bounds(key_ranges)
        # The seek bounds enforce the conjuncts they were made from.
        where = drop_folded_conjuncts(where, key_ranges)
        read = _column_reader(table, where)
        #: Modeled CPU per examined row, charged once after the loop.
        row_ms = ctx.cost_model.row_cpu_ms_per_row
        lookups = index is not None and index is not primary

        def seek_chunks():
            for keys, values in index.seek_range(low, high, ctx, *inclusive):
                rids = [key[-1] for key in keys]
                if lookups:     # a secondary leaf holds keys, not rows
                    values = RowColumns(table.get_rows(rids))
                yield rids, read(values)

        if index is not None:
            chunks = seek_chunks()
            row_ms *= 2 if lookups else 1
        elif isinstance(primary, ColumnstoreIndex):
            chunks = self._columnstore_chunks(table, where, ranges, ctx)
            row_ms = 0.0        # that source charges per batch instead
        else:
            chunks = ((rids, read(values))
                      for rids, values in primary.scan(ctx))

        located: List[int] = []
        scanned = 0
        for rids, batch in chunks:
            hits = (np.arange(len(batch)) if where is None
                    else np.flatnonzero(eval_batch(where, batch)))
            # Under TOP n a chunk is examined up to its n-th match only.
            last = top is not None and len(located) + len(hits) >= top
            if last:
                hits = hits[:top - len(located)]
            examined = int(hits[-1]) + 1 if last else len(batch)
            scanned += examined
            if lookups:
                for _ in range(examined):
                    ctx.charge_random_read(1)
                    primary.usage.record_lookup()
            located += [int(rids[hit]) for hit in hits.tolist()]
            if last:
                break
        if row_ms:
            ctx.charge_serial_cpu(scanned * row_ms)
        return located

    def _columnstore_chunks(self, table: Table, where: Optional[Expr],
                            ranges: Dict[str, ColumnRange],
                            ctx: ExecutionContext):
        """``(rids, batch)`` per batch of a primary columnstore scan with
        segment elimination, the batch holding ``where``'s columns under
        their bare and their qualified names."""
        needed = _bare_columns(where, table) or [table.schema.columns[0].name]
        elimination = {column: column_range.as_bounds()
                       for column, column_range in ranges.items()}
        for batch in table.primary.scan(
                needed, ctx, elimination_ranges=elimination or None,
                include_rids=True):
            ctx.charge_serial_cpu(
                len(batch) * ctx.cost_model.batch_cpu_ms_per_row)
            columns = {f"{table.name}.{c}": batch.column(c) for c in needed}
            columns.update({c: batch.column(c) for c in needed})
            yield batch.column(RID_COLUMN), Batch(columns)

    def _best_secondary_for(self, table: Table, ranges: Dict[str, ColumnRange]
                            ) -> Optional[SecondaryBTreeIndex]:
        best = None
        for index in table.secondary_btrees():
            leading = index.key_columns[0]
            if leading in ranges:
                if best is None or len(index.key_columns) < len(
                        best.key_columns):
                    best = index
        return best

    def _run_update(self, bound: BoundUpdate,
                    ctx: ExecutionContext) -> int:
        table = bound.table
        rids = self._locate_rids(table, bound.where, bound.top, ctx)
        rows = table.get_rows(rids)
        for _ in rids:
            # Re-fetching the target row is the same random access that
            # _locate_rids charges; cold update runs previously got it
            # for free, under-reporting Figure 5's update costs.
            ctx.charge_random_read(1)
        # Each SET expression is evaluated once, over all located rows.
        assigned = [
            (table.schema.ordinal(column),
             eval_batch(expr, _column_reader(table, expr)(RowColumns(rows)))
             .tolist())
            for column, expr in bound.assignments
        ]
        updates = []
        for n, (rid, row) in enumerate(zip(rids, rows)):
            new_row = list(row)
            for ordinal, values in assigned:
                new_row[ordinal] = values[n]
            updates.append((rid, tuple(new_row)))
        table.update_rids(updates, ctx)
        return len(updates)

    def _run_delete(self, bound: BoundDelete,
                    ctx: ExecutionContext) -> int:
        table = bound.table
        rids = self._locate_rids(table, bound.where, bound.top, ctx)
        table.delete_rids(rids, ctx)
        return len(rids)

    def _run_insert(self, bound: BoundInsert,
                    ctx: ExecutionContext) -> int:
        table = bound.table
        # One undo scope around the rows: a multi-row INSERT is
        # all-or-nothing in memory, as its WAL scope is on disk.
        with table.statement(ctx, 0):
            for row in bound.rows:
                table.insert_row(row, ctx)
        return len(bound.rows)

    #: The apply step of each DML statement kind; each returns the
    #: number of rows it affected.
    _APPLY = {BoundUpdate: _run_update, BoundDelete: _run_delete,
              BoundInsert: _run_insert}


def _column_reader(table: Table, expr: Optional[Expr]):
    """whole rows read by column (a leaf's records, or
    :class:`RowColumns`) -> the batch ``expr`` is evaluated over: one
    array per column it names (bare or qualified), or the first column
    when it names none (a batch carries its length in a column)."""
    ordinals = {name: table.schema.ordinal(name.split(".", 1)[-1])
                for name in (expr.columns() if expr is not None else ())}
    if not ordinals:
        ordinals = {table.schema.columns[0].name: 0}
    return lambda source: Batch({
        name: eval_column(source.column(at))
        for name, at in ordinals.items()})


def _bare_columns(where: Optional[Expr], table: Table) -> List[str]:
    if where is None:
        return []
    out = []
    for name in where.columns():
        bare = name.split(".", 1)[-1]
        if bare in table.schema and bare not in out:
            out.append(bare)
    return out

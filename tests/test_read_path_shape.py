"""The fixed costs of the row-mode read path, pinned by counting calls
rather than by timing them, and span parity on the shapes the recorded
corpus covers thinly.

A rowstore scan filters a *run* of whole leaves in one step (as many rows
as the pending batch still needs), so a clustered scan of small leaves
steps once per batch's worth of rows, not once per leaf; a heap leaf
already holds a batch, so a heap scan steps as it did one leaf at a time.
An operator switches spans once on each side of every pull, and its
generator's close runs under its span only when there is something left
to close. Every charge lands on the span on top when it is made: the
parity tests hold the span tree to the invariants of
``tests/test_explain_analyze.py`` on an early-closed scan, a spilling
aggregate and a statement a fault ends mid-scan, and the attribution
tests hold each span to the in-order sum of its own charges.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.executor import Executor
from repro.engine.metrics import (SPAN_ATTRIBUTED_FIELDS, ExecutionContext,
                                  OperatorSpan, QueryMetrics)
from repro.engine.operators import scans
from repro.engine.operators.aggregates import AggregateSpec, HashAggregate
from repro.engine.operators.base import DEFAULT_BATCH_ROWS, PhysicalOperator
from repro.engine.expressions import ColumnRef
from repro.storage.database import Database
from repro.storage.faults import InjectedFault, trip

ROWS = 100_000


@pytest.fixture(scope="module")
def databases():
    """The same 100 000 rows as a clustered B+ tree and as a heap."""
    built = {}
    for design in ("btree", "heap"):
        database = Database()
        table = database.create_table(TableSchema("t", [
            Column("k", INT, nullable=False),
            Column("v", INT, nullable=False),
            Column("g", INT, nullable=False),
        ]))
        table.bulk_load([(i, i * 7 % 1000, i % 97) for i in range(ROWS)])
        if design == "btree":
            table.set_primary_btree(["k"])
        built[design] = database
    return built


def stepped(database, sql):
    """The result of ``sql`` and the row count of every scan step."""
    sizes = []
    real = scans._ScanBase._run_step

    def spying(self, ctx):
        step = real(self, ctx)

        def counted(run, pending):
            sizes.append(sum(len(sources[0]) for sources in run))
            step(run, pending)
        return counted

    with mock.patch.object(scans._ScanBase, "_run_step", spying):
        result = Executor(database).execute(sql)
    return result, sizes


def per_leaf_steps(leaf_sizes, passes):
    """Steps of a scan that steps every leaf on its own, cut only at the
    row that fills a batch: the heap scan's count."""
    steps = pending = at = 0
    for size in leaf_sizes:
        start = 0
        while start < size:
            stop = min(size, start + DEFAULT_BATCH_ROWS - pending)
            steps += 1
            pending += int(np.count_nonzero(passes[at + start:at + stop]))
            start = stop
            if pending >= DEFAULT_BATCH_ROWS:
                pending = 0
        at += size
    return steps


class TestLeafRuns:
    SQL = "SELECT sum(v) s FROM t WHERE g = 7"      # ~1 % of the rows

    def test_clustered_full_scan_steps_per_batch_not_per_leaf(
            self, databases):
        result, sizes = stepped(databases["btree"], self.SQL)
        leaves = sum(1 for _ in databases["btree"].table("t").primary.scan())
        assert leaves > 150                 # small leaves: ~300 of them
        assert len(sizes) <= 50
        assert sum(sizes) == ROWS           # every row stepped once
        assert max(sizes) <= DEFAULT_BATCH_ROWS
        assert result.rows == [
            (float(sum(i * 7 % 1000 for i in range(7, ROWS, 97))),)]

    def test_heap_scan_steps_as_one_leaf_at_a_time(self, databases):
        heap = databases["heap"].table("t").primary
        leaf_sizes = [len(rids) for rids, _ in heap.scan()]
        passes = np.arange(ROWS) % 97 == 7      # rid order is load order
        result, sizes = stepped(databases["heap"], self.SQL)
        assert len(sizes) == per_leaf_steps(leaf_sizes, passes)
        assert sum(sizes) == ROWS
        clustered, _ = stepped(databases["btree"], self.SQL)
        assert result.rows == clustered.rows


class _RecordingStack(list):
    """A span stack that records every push and pop, as ``(kind, span)``
    with ``kind`` "push" or "pop"."""

    def __init__(self, spans, switches):
        super().__init__(spans)
        self.switches = switches

    def append(self, span):
        self.switches.append(("push", span))
        super().append(span)

    def pop(self):
        span = super().pop()
        self.switches.append(("pop", span))
        return span


def switched(database, sql, **options):
    """The result of ``sql`` and its span switches, in order."""
    switches = []
    real_init = ExecutionContext.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self._span_stack = _RecordingStack(self._span_stack, switches)

    with mock.patch.object(ExecutionContext, "__init__", init):
        result = Executor(database).execute(sql, **options)
    return result, switches


def spans_by_kind(root):
    """The operator spans under ``root`` by their operator's class."""
    return {type(span.operator).__name__: span
            for span in root.walk() if span.operator is not None}


class TestSpanSwitches:
    def test_one_batch_operator_switches_four_times(self, databases):
        result, switches = switched(
            databases["btree"],
            "SELECT sum(v) s FROM t WHERE k BETWEEN 10 AND 20")
        spans = spans_by_kind(result.root_span)
        assert set(spans) == {"Project", "HashAggregate", "BTreeSeek"}
        for span in spans.values():
            assert span.batches_out == 1
            assert [kind for kind, s in switches if s is span] == \
                ["push", "pop", "push", "pop"]
        assert len(switches) == 4 * len(spans)

    def test_top_closes_the_scan_under_its_span(self, databases):
        result, switches = switched(databases["btree"],
                                    "SELECT TOP 7 k, v FROM t")
        assert result.rows == [(i, i * 7 % 1000) for i in range(7)]
        spans = spans_by_kind(result.root_span)
        scan, top = spans["BTreeSeek"], spans["Top"]
        assert scan.batches_out == 1 and scan.rows_out < ROWS
        # One pull for the batch, then the early close: the scan's
        # generator was left suspended, so closing it runs under its
        # span, while the Top that closed it is on the stack.
        assert [kind for kind, s in switches if s is scan] == \
            ["push", "pop", "push", "pop"]
        close = [i for i, (_, s) in enumerate(switches) if s is scan][2]
        top_pushes = [i for i, (kind, s) in enumerate(switches)
                      if s is top and kind == "push"]
        top_pops = [i for i, (kind, s) in enumerate(switches)
                    if s is top and kind == "pop"]
        assert top_pushes[-1] < close < top_pops[-1]
        assert_span_invariants(result.root_span, result.metrics,
                               ExecutionContext())


# ------------------------------------------------------------ span parity

def assert_span_invariants(root, metrics, ctx):
    """The span tree's sums equal the statement's totals, and every label
    is what its operator describes for this execution."""
    for field in SPAN_ATTRIBUTED_FIELDS:
        total, summed = getattr(metrics, field), root.total(field)
        if isinstance(total, int):
            assert summed == total, field
        else:
            assert summed == pytest.approx(total, rel=1e-9, abs=1e-12), field
    for span in root.walk():
        if span.operator is not None:
            assert span.label == span.operator.describe(ctx)


def placements(root):
    """Where the non-additive annotations sit: ``memory_peak_bytes`` and
    ``fallback_reasons`` by the kind of operator whose span holds them."""
    return {(type(span.operator).__name__ if span.operator else "<statement>"):
            (span.memory_peak_bytes, dict(span.fallback_reasons))
            for span in root.walk()}


def corpus_db(design):
    database = Database()
    table = database.create_table(TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", INT, nullable=False),
        Column("s", varchar(10)),
    ]))
    table.bulk_load([(i, i % 16, f"name{i % 7:03d}") for i in range(10_000)])
    if design == "btree":
        table.set_primary_btree(["a"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=1024)
    return database


def run_recorded(database, sql, **options):
    executor = Executor(database)
    record = executor.prepare(sql)
    result = executor.execute(record, **options)
    return result, record.ctx


class TestSpanParity:
    def test_early_closed_top_scan(self):
        result, ctx = run_recorded(corpus_db("btree"),
                                   "SELECT TOP 7 a, b FROM t")
        assert result.rows == [(i, i % 16) for i in range(7)]
        assert_span_invariants(result.root_span, result.metrics, ctx)
        spans = spans_by_kind(result.root_span)
        assert spans["BTreeSeek"].rows_out == DEFAULT_BATCH_ROWS
        assert placements(result.root_span) == {
            "<statement>": (0, {}), "Project": (0, {}), "Top": (0, {}),
            "BTreeSeek": (0, {})}

    def test_spilling_hash_aggregate(self):
        result, ctx = run_recorded(
            corpus_db("csi"),
            "SELECT a, count(*) c FROM t WHERE s >= s GROUP BY a",
            memory_grant_bytes=20_000)
        assert result.metrics.spilled_bytes > 0
        assert len(result.rows) == 10_000
        assert_span_invariants(result.root_span, result.metrics, ctx)
        aggregate = spans_by_kind(result.root_span)["HashAggregate"]
        assert "SPILLED" in aggregate.label
        assert placements(result.root_span) == {
            "<statement>": (0, {}), "Project": (0, {}),
            "HashAggregate": (19_988, {}),
            "ColumnstoreScan": (0, {
                "non-literal comparison: (t.s >= t.s)": 20})}

    def test_statement_failing_mid_scan(self):
        """A fault raised between two batches of a scan unwinds every
        operator; the charges made so far still add up over the spans."""
        ctx = run_failing_mid_scan()
        assert ctx.active_span is ctx.root_span
        assert ctx.memory_in_use == 0
        assert_span_invariants(ctx.root_span, ctx.metrics, ctx)
        spans = spans_by_kind(ctx.root_span)
        assert spans["BTreeSeek"].batches_out == 2
        assert spans["Tripping"].batches_out == 1
        assert spans["HashAggregate"].batches_out == 0
        assert placements(ctx.root_span) == {
            "<statement>": (0, {}),
            "HashAggregate": (ctx.metrics.memory_peak_bytes, {}),
            "Tripping": (0, {}), "BTreeSeek": (0, {})}


class Tripping(PhysicalOperator):
    """Passes its child's batches on, hitting a fault point before each
    one."""

    def __init__(self, child, injector):
        super().__init__(children=(child,))
        self.injector = injector

    @property
    def output_columns(self):
        return self.child().output_columns

    def execute(self, ctx):
        for batch in self.child().execute(ctx):
            trip(self.injector, "heap.insert")
            yield batch


def run_failing_mid_scan():
    """Aggregate a clustered scan whose second batch trips a fault; the
    context the failed statement leaves."""
    database = corpus_db("btree")
    scan = scans.BTreeSeek(database.table("t"), ["a", "b"], prefix="t.")
    root = HashAggregate(Tripping(scan, database.fault_injector), [],
                         [AggregateSpec("sum", ColumnRef("t.b"), "s")])
    ctx = ExecutionContext(memory_grant_bytes=1_000_000)
    ctx.charge_statement_overhead()
    database.fault_injector.arm("heap.insert", on_hit=2)
    with pytest.raises(InjectedFault):
        list(root.execute(ctx))
    return ctx


# ------------------------------------------------------- charge attribution

#: Every ExecutionContext method that adds to the statement's metrics.
CHARGE_METHODS = sorted(
    name for name in vars(ExecutionContext)
    if name.startswith("charge_") or name in ("record_data_read", "count"))


def charged(run):
    """``run()``'s return value and every charge it made, in order, as
    ``(context, span on top, method, args, kwargs)``. A charge made
    inside another (``charge_statement_overhead`` calling
    ``charge_serial_cpu``) is part of the outer one."""
    calls, depth = [], [0]

    def spy(real):
        def charge(self, *args, **kwargs):
            if depth[0] == 0:
                calls.append((self, self.active_span, real, args, kwargs))
            depth[0] += 1
            try:
                return real(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return charge

    spies = {name: spy(getattr(ExecutionContext, name))
             for name in CHARGE_METHODS}
    with mock.patch.multiple(ExecutionContext, **spies):
        value = run()
    return value, calls


def bits(value):
    return value.hex() if isinstance(value, float) else value


def assert_spans_are_their_charges(ctx, calls):
    """Each span's attributed fields equal, bit for bit, the in-order sum
    of the charges made while it was on top, and the statement's totals
    the in-order sum of all of them. A charge's amount is what it adds to
    a fresh context of the same cost model and temperature."""
    mine = [call for call in calls if call[0] is ctx]
    assert mine
    expected = {id(span): OperatorSpan() for span in ctx.root_span.walk()}
    totals = QueryMetrics()
    for _, span, method, args, kwargs in mine:
        probe = ExecutionContext(ctx.cost_model, cold=ctx.cold)
        method(probe, *args, **kwargs)
        for target in (expected[id(span)], totals):
            for field in SPAN_ATTRIBUTED_FIELDS:
                amount = getattr(probe.metrics, field)
                setattr(target, field, getattr(target, field) + amount)
    for field in SPAN_ATTRIBUTED_FIELDS:
        assert bits(getattr(ctx.metrics, field)) == \
            bits(getattr(totals, field)), field
        for span in ctx.root_span.walk():
            assert bits(getattr(span, field)) == \
                bits(getattr(expected[id(span)], field)), (span.label, field)


def recorded(database, sql, **options):
    """The context of one statement, failed or not."""
    executor = Executor(database)
    record = executor.prepare(sql)
    try:
        executor.execute(record, **options)
    except InjectedFault:
        assert record.error is not None
    return record.ctx


def failing_update():
    database = corpus_db("btree")
    database.fault_injector.arm("btree.update", on_hit=40)
    ctx = recorded(database, "UPDATE t SET s = 'x' WHERE a < 100")
    assert (ctx.metrics.rollbacks, ctx.metrics.faults_injected) == (1, 1)
    return ctx


ATTRIBUTION_CASES = {
    "heap-scan": lambda: recorded(
        corpus_db("heap"), "SELECT b, count(*) c FROM t WHERE a > 17 "
        "GROUP BY b", cold=True),
    "clustered-seek": lambda: recorded(
        corpus_db("btree"), "SELECT sum(b) s FROM t WHERE a BETWEEN 100 "
        "AND 5000", cold=True),
    "csi-scan": lambda: recorded(
        corpus_db("csi"), "SELECT s, sum(b) x FROM t WHERE s <> 'name003' "
        "AND a > 1500 GROUP BY s", cold=True),
    "top-closes-early": lambda: recorded(
        corpus_db("btree"), "SELECT TOP 7 a, b FROM t", cold=True),
    "spilling-aggregate": lambda: recorded(
        corpus_db("csi"), "SELECT a, count(*) c FROM t WHERE s >= s "
        "GROUP BY a", memory_grant_bytes=20_000),
    "fault-mid-scan": run_failing_mid_scan,
    "dml": lambda: recorded(
        corpus_db("btree"), "UPDATE t SET b = b + 1 WHERE a < 300"),
    "dml-rolled-back": failing_update,
}


class TestChargeAttribution:
    @pytest.mark.parametrize("case", sorted(ATTRIBUTION_CASES))
    def test_spans_sum_their_charges(self, case):
        ctx, calls = charged(ATTRIBUTION_CASES[case])
        assert_spans_are_their_charges(ctx, calls)

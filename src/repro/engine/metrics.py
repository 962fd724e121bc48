"""Per-query metrics and the execution context that accumulates them.

The paper reports elapsed (execution) time, CPU time, data read, and query
memory for each experiment. :class:`QueryMetrics` carries those observables;
:class:`ExecutionContext` is threaded through every storage and operator
call and converts physical events (rows processed, pages read, hash
entries built) into charges using the :class:`repro.engine.costs.CostModel`.

Elapsed vs CPU time: serial work adds equally to both. Parallel work adds
its full cost to CPU (times a coordination overhead) but only
``cost / dop`` to elapsed time, plus a fixed parallel startup charge —
reproducing the dip-in-elapsed / jump-in-CPU at the serial→parallel
transition visible in Figure 1. That parallelism is modeled only: every
operator of a statement runs on the thread that executes it.

Per-operator attribution: every charge method adds the amount it
computes to the statement's metrics and, when it is made, to the
:class:`OperatorSpan` of the operator running (the top of a span stack).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ExecutionError
from repro.engine.costs import DEFAULT_COST_MODEL, MB, CostModel


@dataclass
class QueryMetrics:
    """Observable outcomes of one statement execution."""

    elapsed_ms: float = 0.0
    cpu_ms: float = 0.0
    data_read_mb: float = 0.0
    data_written_mb: float = 0.0
    pages_read: int = 0
    rows_returned: int = 0
    memory_peak_bytes: int = 0
    spilled_bytes: int = 0
    lock_wait_ms: float = 0.0
    dop: int = 1
    #: Leaf data-access counts by index kind, for Figure 10
    #: ("percentage of leaf nodes accessing columnstore vs B+ tree").
    leaf_accesses: Dict[str, int] = field(default_factory=dict)
    #: Row groups eliminated by segment min/max metadata (Figure 2).
    segments_skipped: int = 0
    segments_read: int = 0
    #: Always 0: the engine has no decoded-segment cache. The wall-clock
    #: benchmark's harness reads the first two, and the rowstore-scan and
    #: hash-join goldens pin all three; the next change to the benchmark
    #: removes them (ROADMAP 1(e)).
    segment_cache_hits: int = 0
    segment_cache_misses: int = 0
    segment_cache_evictions: int = 0
    #: Dictionary-coded (late materialization) execution: columns a
    #: columnstore scan served as codes instead of decoded values, and
    #: operator evaluations that ran on codes vs ones that had to
    #: materialize an encoded column (see :mod:`repro.engine.encoded`).
    columns_late_materialized: int = 0
    code_path_hits: int = 0
    code_path_fallbacks: int = 0
    #: Robustness counters: storage faults injected by an armed
    #: :class:`~repro.storage.faults.FaultInjector` during this statement,
    #: and multi-index DML operations that were rolled back via
    #: compensating index operations (both zero in normal operation).
    faults_injected: int = 0
    rollbacks: int = 0

    def record_leaf_access(self, index_kind: str) -> None:
        """Count one data access through the given index kind."""
        self.leaf_accesses[index_kind] = self.leaf_accesses.get(index_kind, 0) + 1

    def merge(self, other: "QueryMetrics") -> None:
        """Accumulate another statement's metrics into this one."""
        self.elapsed_ms += other.elapsed_ms
        self.cpu_ms += other.cpu_ms
        self.data_read_mb += other.data_read_mb
        self.data_written_mb += other.data_written_mb
        self.pages_read += other.pages_read
        self.rows_returned += other.rows_returned
        self.memory_peak_bytes = max(self.memory_peak_bytes, other.memory_peak_bytes)
        self.spilled_bytes += other.spilled_bytes
        self.lock_wait_ms += other.lock_wait_ms
        self.dop = max(self.dop, other.dop)
        for kind, count in other.leaf_accesses.items():
            self.leaf_accesses[kind] = self.leaf_accesses.get(kind, 0) + count
        self.segments_skipped += other.segments_skipped
        self.segments_read += other.segments_read
        self.columns_late_materialized += other.columns_late_materialized
        self.code_path_hits += other.code_path_hits
        self.code_path_fallbacks += other.code_path_fallbacks
        self.faults_injected += other.faults_injected
        self.rollbacks += other.rollbacks


#: QueryMetrics fields that are *additive* and attributed span-by-span.
#: Every charge made while a span is active lands on that span; summing a
#: field over the whole span tree (root included) reproduces the
#: statement-level total (floats to 1e-9 relative: their sums are grouped
#: differently) — the invariant ``tests/test_explain_analyze.py`` enforces.
SPAN_ATTRIBUTED_FIELDS = (
    "elapsed_ms",
    "cpu_ms",
    "data_read_mb",
    "data_written_mb",
    "pages_read",
    "spilled_bytes",
    "lock_wait_ms",
    "segments_skipped",
    "segments_read",
    "columns_late_materialized",
    "code_path_hits",
    "code_path_fallbacks",
    "faults_injected",
    "rollbacks",
)


@dataclass
class OperatorSpan:
    """Per-plan-node slice of one statement's metrics.

    A span is opened when an operator's ``execute`` generator first runs
    and is *active* whenever that operator's own code is on the Python
    stack (children push their spans on top while producing a batch, so
    charges always land on the innermost running operator). All charge
    fields are **self** amounts — exclusive of children; use
    :meth:`total` for inclusive values. A float field is the in-order
    sum of the charges made while the span was active.
    """

    label: str = ""
    op_id: int = 0
    rows_out: int = 0
    batches_out: int = 0
    elapsed_ms: float = 0.0
    cpu_ms: float = 0.0
    data_read_mb: float = 0.0
    data_written_mb: float = 0.0
    pages_read: int = 0
    spilled_bytes: int = 0
    lock_wait_ms: float = 0.0
    segments_skipped: int = 0
    segments_read: int = 0
    columns_late_materialized: int = 0
    code_path_hits: int = 0
    code_path_fallbacks: int = 0
    faults_injected: int = 0
    rollbacks: int = 0
    #: High-water mark of workspace memory reserved *by this operator*
    #: while its span was active (statement peak is in QueryMetrics).
    memory_peak_bytes: int = 0
    mode: str = ""
    dop: int = 1
    #: Which operator/predicate forced each encoded-column
    #: materialization while this span was active: reason -> count.
    #: Not charge-attributed (it annotates ``code_path_fallbacks``), so
    #: it is deliberately absent from SPAN_ATTRIBUTED_FIELDS.
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    children: List["OperatorSpan"] = field(default_factory=list)
    #: The PhysicalOperator this span measured (None for the statement
    #: root); explain_analyze uses it to pair spans with plan estimates.
    operator: object = None

    def walk(self):
        """Pre-order traversal of this span subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total(self, name: str):
        """Inclusive value of one attributed field (self + descendants)."""
        return getattr(self, name) + sum(c.total(name) for c in self.children)


class ExecutionContext:
    """Mutable per-statement execution state.

    Parameters
    ----------
    cost_model:
        Constant table used to convert events into milliseconds.
    cold:
        When True, data pages are charged storage I/O (the paper's "cold
        runs"); when False everything is memory resident ("hot runs").
    memory_grant_bytes:
        Working-memory limit for sorts and hash tables. Operators that
        would exceed it must spill (Figure 4's constrained-memory setup).
    dop:
        Degree of parallelism for the *current* parallel region; operators
        enter/leave parallel regions via :meth:`charge_parallel_cpu`.

    Everything that varies between two executions of one operator tree
    lives here, never on the operators, so a cached tree can run in two
    sessions at once: the parameter values, the spans, and
    :attr:`operator_state`.
    """

    def __init__(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        cold: bool = False,
        memory_grant_bytes: Optional[int] = None,
    ):
        self.cost_model = cost_model
        #: This execution's value of each parameter of the operator tree
        #: it runs (``Param(i)`` reads ``params[i]``); empty for a tree
        #: built from literals.
        self.params: Sequence[object] = ()
        #: What an operator keeps about its execution past its last
        #: batch, keyed by the operator (a spilled hash aggregate's
        #: spill record, which its span label reports).
        self.operator_state: Dict[object, object] = {}
        self.cold = cold
        self.memory_grant_bytes = (
            memory_grant_bytes
            if memory_grant_bytes is not None
            else cost_model.default_memory_grant_bytes
        )
        self.metrics = QueryMetrics()
        self._memory_in_use = 0
        #: Root of the statement's span tree. Charges made outside any
        #: operator (statement overhead, DML index maintenance) land here.
        self.root_span = OperatorSpan(label="<statement>", op_id=0)
        #: Spans of the running operators, innermost last (the operator
        #: wrapper appends and pops it directly).
        self._span_stack: List[OperatorSpan] = [self.root_span]
        self._next_span_id = 1

    # ------------------------------------------------------------- spans
    def begin_operator_span(self, operator) -> OperatorSpan:
        """Open a span for one operator execution, parented under the
        span active right now (its producing operator, or the root)."""
        span = OperatorSpan(
            op_id=self._next_span_id,
            label=type(operator).__name__,
            mode=getattr(operator, "mode", ""),
            dop=getattr(operator, "dop", 1),
            operator=operator,
        )
        self._next_span_id += 1
        self._span_stack[-1].children.append(span)
        return span

    def push_span(self, span: OperatorSpan) -> None:
        """Make ``span`` the attribution target for subsequent charges."""
        self._span_stack.append(span)

    def pop_span(self, span: OperatorSpan) -> None:
        """Suspend ``span``; charges flow to whatever it was stacked on."""
        popped = self._span_stack.pop()
        if popped is not span:
            raise span_stack_corruption(popped, span)

    def finish_operator_span(self, span: OperatorSpan) -> None:
        """Seal a span once its operator is done; the label is captured
        now, as this execution saw the operator (its parameter values,
        a spill)."""
        if span.operator is not None:
            span.label = span.operator.describe(self)

    @property
    def active_span(self) -> OperatorSpan:
        """The span charges are currently attributed to."""
        return self._span_stack[-1]

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the integer counter ``name`` (one of
        SPAN_ATTRIBUTED_FIELDS) of the statement and of the active span."""
        metrics, span = self.metrics, self._span_stack[-1]
        setattr(metrics, name, getattr(metrics, name) + n)
        setattr(span, name, getattr(span, name) + n)

    # ------------------------------------------------------------- CPU
    def charge_serial_cpu(self, ms: float) -> None:
        """Serial work: adds to both CPU and elapsed time."""
        self._charge_cpu(ms, ms)

    def charge_parallel_cpu(self, ms: float, dop: int) -> None:
        """Parallel work at degree ``dop``.

        CPU grows by the full cost inflated by coordination overhead;
        elapsed only by ``ms / dop``. ``dop == 1`` degrades to serial.
        """
        dop = max(1, min(dop, self.cost_model.max_dop))
        if dop == 1:
            self._charge_cpu(ms, ms)
            return
        self._charge_cpu(ms * self.cost_model.parallel_cpu_overhead, ms / dop)
        self.metrics.dop = max(self.metrics.dop, dop)

    def charge_parallel_startup(self, dop: int) -> None:
        """Fixed elapsed cost of spinning up a parallel region."""
        if dop > 1:
            startup_ms = self.cost_model.parallel_startup_ms
            self._charge_cpu(startup_ms * dop * 0.1, startup_ms)

    def _charge_cpu(self, cpu_ms: float, elapsed_ms: float) -> None:
        metrics, span = self.metrics, self._span_stack[-1]
        metrics.cpu_ms += cpu_ms
        metrics.elapsed_ms += elapsed_ms
        span.cpu_ms += cpu_ms
        span.elapsed_ms += elapsed_ms

    def choose_dop(self, estimated_rows: int) -> int:
        """The engine's parallelism heuristic: serial below a row
        threshold, max DOP above it (Figure 1's DOP 1 -> 40 jump)."""
        if estimated_rows < self.cost_model.parallel_row_threshold:
            return 1
        return self.cost_model.max_dop

    # ------------------------------------------------------------- I/O
    def charge_random_read(self, pages: int) -> None:
        """Random page reads (B+ tree traversals / RID lookups), charged
        only on cold runs."""
        if not self.cold or pages <= 0:
            return
        cm = self.cost_model
        # I/O wait consumes negligible CPU.
        self._charge_read(pages, pages * cm.page_bytes / MB,
                          pages * cm.random_io_ms_per_page)

    def charge_btree_scan_read(self, data_bytes: float) -> None:
        """Leaf-chain scan reads at B+ tree effective bandwidth."""
        if not self.cold or data_bytes <= 0:
            return
        cm = self.cost_model
        mb = data_bytes / MB
        self._charge_read(_ceil_pages(data_bytes, cm.page_bytes), mb,
                          mb * cm.btree_scan_io_ms_per_mb)

    def charge_seq_read(self, data_bytes: float) -> None:
        """Large sequential reads (columnstore segments)."""
        if not self.cold or data_bytes <= 0:
            return
        cm = self.cost_model
        mb = data_bytes / MB
        self._charge_read(_ceil_pages(data_bytes, cm.page_bytes), mb,
                          mb * cm.seq_io_ms_per_mb)

    def _charge_read(self, pages: int, mb: float, elapsed_ms: float) -> None:
        metrics, span = self.metrics, self._span_stack[-1]
        metrics.pages_read += pages
        metrics.data_read_mb += mb
        metrics.elapsed_ms += elapsed_ms
        span.pages_read += pages
        span.data_read_mb += mb
        span.elapsed_ms += elapsed_ms

    def record_data_read(self, data_bytes: float) -> None:
        """Account logical data volume on hot runs (Figure 2(b) reports
        data read even for memory-resident executions)."""
        if self.cold:
            return  # already recorded by the charge_* call
        mb = data_bytes / MB
        self.metrics.data_read_mb += mb
        self._span_stack[-1].data_read_mb += mb

    def charge_write(self, data_bytes: float) -> None:
        """Charge write I/O for the given number of bytes."""
        self._charge_write(data_bytes / MB, self.cost_model.write_io_ms_per_mb)

    def _charge_write(self, mb: float, ms_per_mb: float) -> None:
        metrics, span = self.metrics, self._span_stack[-1]
        elapsed_ms = mb * ms_per_mb
        metrics.data_written_mb += mb
        metrics.elapsed_ms += elapsed_ms
        span.data_written_mb += mb
        span.elapsed_ms += elapsed_ms

    # ----------------------------------------------------------- memory
    def acquire_memory(self, nbytes: int) -> bool:
        """Try to reserve ``nbytes`` of workspace memory.

        Returns False when the grant would be exceeded — the caller must
        then use a spilling implementation. Never raises; running out of
        grant is a normal, modelled condition.
        """
        if self._memory_in_use + nbytes > self.memory_grant_bytes:
            return False
        self._memory_in_use += nbytes
        self.metrics.memory_peak_bytes = max(
            self.metrics.memory_peak_bytes, self._memory_in_use
        )
        span = self._span_stack[-1]
        span.memory_peak_bytes = max(span.memory_peak_bytes,
                                     self._memory_in_use)
        return True

    def release_memory(self, nbytes: int) -> None:
        """Return previously acquired workspace memory."""
        self._memory_in_use -= nbytes
        if self._memory_in_use < 0:
            raise ExecutionError("memory accounting underflow")

    @property
    def memory_in_use(self) -> int:
        """Currently reserved workspace bytes."""
        return self._memory_in_use

    def charge_spill(self, nbytes: int) -> None:
        """A sort or hash operator wrote ``nbytes`` to tempdb and will read
        it back: charge write + read I/O regardless of hot/cold (spills
        always hit storage) plus extra CPU."""
        cm = self.cost_model
        self.count("spilled_bytes", nbytes)
        self._charge_write(nbytes / MB,
                           cm.write_io_ms_per_mb + cm.seq_io_ms_per_mb)

    # ------------------------------------------------------------- misc
    def charge_statement_overhead(self) -> None:
        """Fixed per-statement cost (parse, plan cache, logging)."""
        self.charge_serial_cpu(self.cost_model.statement_overhead_ms)


def span_stack_corruption(popped: OperatorSpan,
                          expected: OperatorSpan) -> ExecutionError:
    """The error for suspending ``expected`` when ``popped`` was on top."""
    return ExecutionError(f"span stack corruption: popped {popped.label!r}, "
                          f"expected {expected.label!r}")


def _ceil_pages(data_bytes: float, page_bytes: int) -> int:
    """Pages covering ``data_bytes``: proper ceiling division (exact page
    multiples previously over-counted by one page)."""
    return int(math.ceil(data_bytes / page_bytes))

"""Physical operator base class and shared helpers.

All operators exchange :class:`~repro.engine.batch.Batch` objects, but each
declares an execution **mode**:

* ``row`` — modeled as row-at-a-time processing, charged at
  ``CostModel.row_cpu_ms_per_row`` (B+ tree plans);
* ``batch`` — modeled as vectorized processing, charged at
  ``CostModel.batch_cpu_ms_per_row`` (columnstore plans).

The mode is the cost model's label only: rowstore scans hand whole leaf
chunks to the vectorised evaluator too (DESIGN.md, "Row mode is a cost
label").

This mirrors SQL Server's row mode vs batch mode split that the paper
identifies as a key source of the columnstore's scan advantage.

Operators also carry a ``dop`` (degree of parallelism) assigned by the
optimizer; per-row CPU is charged through
:meth:`ExecutionContext.charge_parallel_cpu`, which splits elapsed time
across workers while inflating total CPU — reproducing the Figure 1
behaviour where the serial→parallel switch drops elapsed time but raises
CPU time.
"""

from __future__ import annotations

import functools

from typing import Iterator, List, Optional, Sequence

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch
from repro.engine.metrics import ExecutionContext, span_stack_corruption

ROW_MODE = "row"
BATCH_MODE = "batch"

#: Target batch size when pivoting row streams into batches.
DEFAULT_BATCH_ROWS = 4096


def _instrument_execute(raw):
    """Wrap an operator's ``execute`` generator with span accounting.

    The wrapper opens one :class:`~repro.engine.metrics.OperatorSpan` per
    execution and keeps it pushed exactly while the operator's own body
    (or a child pull made from it) runs, so every ``charge_*`` call lands
    on the innermost active operator. It also counts actual rows and
    batches produced. Attribution is observation-only: the charges
    themselves are untouched, so statement totals are byte-identical.
    """

    @functools.wraps(raw)
    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        span = ctx.begin_operator_span(self)
        stack = ctx._span_stack
        gen = raw(self, ctx)
        stack.append(span)
        pushed = True
        try:
            for batch in gen:
                popped = stack.pop()
                if popped is not span:
                    raise span_stack_corruption(popped, span)
                pushed = False
                span.rows_out += len(batch)
                span.batches_out += 1
                yield batch
                stack.append(span)
                pushed = True
        finally:
            # Pushed here: the generator returned or raised under the
            # span. Otherwise we were closed early (or raised into) at
            # the yield, and the generator is closed under this span so
            # its cleanup work (e.g. releasing memory grants) is
            # attributed to it. A generator that returned or raised has
            # no frame left and its close() runs no code: no switch.
            if pushed:
                ctx.pop_span(span)
            if gen.gi_frame is not None:
                ctx.push_span(span)
                try:
                    gen.close()
                finally:
                    ctx.pop_span(span)
            ctx.finish_operator_span(span)

    execute._span_instrumented = True
    return execute


class PhysicalOperator:
    """Base class: a node in a physical plan tree."""

    mode: str = ROW_MODE

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        raw = cls.__dict__.get("execute")
        if raw is not None and not getattr(raw, "_span_instrumented", False):
            cls.execute = _instrument_execute(raw)

    def __init__(self, children: Sequence["PhysicalOperator"] = (), dop: int = 1):
        self.children: List[PhysicalOperator] = list(children)
        self.dop = max(1, dop)

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns this operator produces, in order."""
        raise NotImplementedError

    @property
    def output_ordering(self) -> List[str]:
        """Columns the output is sorted by (prefix order); [] if unsorted."""
        return []

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        raise NotImplementedError

    # ------------------------------------------------------------ costing
    def charge_rows(self, ctx: ExecutionContext, n_rows: int,
                    weight: float = 1.0) -> None:
        """Charge per-row processing CPU for ``n_rows`` at this operator's
        mode and degree of parallelism."""
        if n_rows <= 0:
            return
        cm = ctx.cost_model
        per_row = (cm.batch_cpu_ms_per_row if self.mode == BATCH_MODE
                   else cm.row_cpu_ms_per_row)
        ctx.charge_parallel_cpu(n_rows * per_row * weight, self.dop)

    # ------------------------------------------------------------ plumbing
    def child(self, i: int = 0) -> "PhysicalOperator":
        """The i-th child operator (ExecutionError when missing)."""
        try:
            return self.children[i]
        except IndexError:
            raise ExecutionError(
                f"{type(self).__name__} has no child {i}"
            ) from None

    def walk(self) -> Iterator["PhysicalOperator"]:
        """Pre-order traversal of the plan tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def explain(self, indent: int = 0) -> str:
        """Readable plan tree, used by examples and Figure 10 analysis."""
        line = " " * indent + self.describe()
        parts = [line]
        for child in self.children:
            parts.append(child.explain(indent + 2))
        return "\n".join(parts)

    def describe(self, ctx: Optional[ExecutionContext] = None) -> str:
        """One-line human-readable summary of this node; given the
        context of one execution, as that execution saw it (its
        parameter values, a spill)."""
        return self._label

    @functools.cached_property
    def _label(self) -> str:
        """The text of :meth:`describe` that no execution changes, made
        once per operator: a kept tree labels the spans of every
        execution it runs."""
        return f"{type(self).__name__} [{self.mode} mode, dop={self.dop}]"

    def __repr__(self) -> str:
        return self.describe()

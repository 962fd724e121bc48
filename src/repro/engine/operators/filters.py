"""Filter, projection/compute, and Top-N operators."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch
from repro.engine.expressions import Expr, eval_batch
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import PhysicalOperator


class Filter(PhysicalOperator):
    """Apply a predicate; mode follows the child (a filter over a
    columnstore scan stays in batch mode)."""

    def __init__(self, child: PhysicalOperator, predicate: Expr,
                 dop: int = 1):
        super().__init__(children=(child,), dop=dop)
        self.predicate = predicate
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child().output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return self.child().output_ordering

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        for batch in self.child().execute(ctx):
            self.charge_rows(ctx, len(batch))
            mask = eval_batch(self.predicate, batch, ctx)
            filtered = batch.filter(mask)
            if len(filtered) > 0:
                yield filtered

    @cached_property
    def _label(self) -> str:
        """The text of :meth:`describe`, made once per operator."""
        return f"Filter({self.predicate}) [{self.mode}, dop={self.dop}]"


class Project(PhysicalOperator):
    """Compute output expressions (column renames, arithmetic)."""

    def __init__(self, child: PhysicalOperator,
                 outputs: Sequence[Tuple[str, Expr]], dop: int = 1):
        super().__init__(children=(child,), dop=dop)
        if not outputs:
            raise ExecutionError("Project needs at least one output")
        self.outputs = list(outputs)
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return [name for name, _ in self.outputs]

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        for batch in self.child().execute(ctx):
            self.charge_rows(ctx, len(batch))
            columns = {}
            for name, expr in self.outputs:
                values = eval_batch(expr, batch, ctx)
                if np.isscalar(values) or getattr(values, "ndim", 1) == 0:
                    values = np.full(len(batch), values)
                columns[name] = values
            yield Batch(columns)

    @cached_property
    def _label(self) -> str:
        """The text of :meth:`describe`, made once per operator."""
        names = [name for name, _ in self.outputs]
        return f"Project({names}) [{self.mode}, dop={self.dop}]"


class Top(PhysicalOperator):
    """Return the first ``limit`` rows of the child's stream.

    The optimizer places Top above a Sort (or an ordered scan) so stream
    order is the requested order; Top merely truncates and stops pulling,
    modelling row-goal early termination.
    """

    def __init__(self, child: PhysicalOperator, limit: int, dop: int = 1):
        super().__init__(children=(child,), dop=dop)
        if limit < 0:
            raise ExecutionError("Top limit must be non-negative")
        self.limit = limit
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child().output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return self.child().output_ordering

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        remaining = self.limit
        if remaining == 0:
            return
        for batch in self.child().execute(ctx):
            if len(batch) >= remaining:
                yield batch.head(remaining)
                return
            remaining -= len(batch)
            yield batch

    @cached_property
    def _label(self) -> str:
        """The text of :meth:`describe`, made once per operator."""
        return f"Top({self.limit}) [{self.mode}, dop={self.dop}]"

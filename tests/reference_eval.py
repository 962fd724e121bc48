"""The row-at-a-time evaluator, kept as the tests' reference.

``eval_row`` walks an expression tree against one row tuple in plain
Python. Nothing in ``src/`` evaluates a row at a time any more (scans,
DML and the nested-loop join's residual all go through ``eval_batch``),
so it lives here as the independent oracle ``test_expressions.py``,
``test_property_based.py`` and ``test_rowstore_chunk_scan.py`` compare
the vectorised evaluator against. The bodies are the ones
``repro.engine.expressions`` had.
"""

from typing import Callable, Dict, Optional, Sequence

from repro.core.errors import ExecutionError
from repro.engine.expressions import (
    _ARITH_OPS,
    _COMPARE_OPS,
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)


def eval_row(expr: Expr, row: Sequence[object], positions: Dict[str, int]) -> object:
    """Evaluate an expression against one row tuple.

    ``positions`` maps column names to tuple positions. Comparisons with
    NULL evaluate to False (SQL not-true).
    """
    if isinstance(expr, ColumnRef):
        try:
            return row[positions[expr.name]]
        except KeyError:
            raise ExecutionError(f"unknown column {expr.name!r}") from None
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Arithmetic):
        left = eval_row(expr.left, row, positions)
        right = eval_row(expr.right, row, positions)
        if left is None or right is None:
            return None
        return _ARITH_OPS[expr.op](left, right)
    if isinstance(expr, Comparison):
        left = eval_row(expr.left, row, positions)
        right = eval_row(expr.right, row, positions)
        if left is None or right is None:
            return False
        return bool(_COMPARE_OPS[expr.op](left, right))
    if isinstance(expr, Between):
        value = eval_row(expr.subject, row, positions)
        low = eval_row(expr.low, row, positions)
        high = eval_row(expr.high, row, positions)
        if value is None or low is None or high is None:
            return False
        return low <= value <= high
    if isinstance(expr, InList):
        value = eval_row(expr.subject, row, positions)
        if value is None:
            return False
        return value in expr.values
    if isinstance(expr, And):
        return all(eval_row(op, row, positions) for op in expr.operands)
    if isinstance(expr, Or):
        return any(eval_row(op, row, positions) for op in expr.operands)
    if isinstance(expr, Not):
        return not eval_row(expr.operand, row, positions)
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def compile_row_predicate(
    expr: Optional[Expr], positions: Dict[str, int]
) -> Callable[[Sequence[object]], bool]:
    """Return a row -> bool callable for a (possibly None) predicate.

    It walks the expression tree through :func:`eval_row` on every
    call."""
    if expr is None:
        return lambda row: True
    return lambda row: bool(eval_row(expr, row, positions))

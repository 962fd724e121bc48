"""Scalar expressions and predicates.

One expression AST serves the whole stack: the SQL parser produces it, the
optimizer analyses it (conjunct extraction, sargable-range derivation for
index seeks and segment elimination), and the executor evaluates it
vectorized over numpy arrays (:func:`eval_batch`) whatever the
operator's mode; the per-tuple evaluator it replaced is the tests'
reference (``tests/reference_eval.py``).

Supported nodes: column references, literals, parameters, arithmetic
(+ - * /), comparisons (= != < <= > >=), BETWEEN, IN, AND/OR/NOT.

A :class:`Param` is a literal whose value the executing statement
supplies: a cached operator tree (:mod:`repro.optimizer.reuse`) holds
one where its template has a slot, and :func:`eval_batch` reads its
value from ``ExecutionContext.params``, so one tree serves every
execution without being rebuilt for its values.

NULL semantics follow SQL's three-valued logic for comparisons: any
comparison with NULL is not-true, so filters drop those rows. The
evaluator itself is two-valued above the comparison level — a ``Not``
node flips not-true to true — so the SQL binder never hands it one
over a predicate: it pushes ``NOT`` down to the comparisons
(``repro.sql.binder._negate``), where negating the operator keeps a
NULL operand not-true.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.core.types import INT64_MAX, INT64_MIN
from repro.engine.batch import Batch
from repro.engine.encoded import (
    EncodedColumn,
    between_codes,
    compare_codes,
    isin_codes,
    note_code_fallback,
    note_code_hit,
)


class Expr:
    """Base class for expression nodes."""

    def columns(self) -> List[str]:
        """All column names referenced by this expression."""
        out: List[str] = []
        self._collect_columns(out)
        return out

    def _collect_columns(self, out: List[str]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a column by (qualified or bare) name."""

    name: str

    def _collect_columns(self, out: List[str]) -> None:
        out.append(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""
    value: object

    def _collect_columns(self, out: List[str]) -> None:
        pass

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param(Expr):
    """Parameter ``index`` of a shared operator tree: a constant whose
    value is the executing statement's ``ctx.params[index]``."""
    index: int

    def _collect_columns(self, out: List[str]) -> None:
        pass

    def __str__(self) -> str:
        return f"@{self.index}"


#: The constant nodes: the evaluator's fast paths take either.
_CONSTANTS = (Literal, Param)


def resolve(value: object, params: Sequence[object]) -> object:
    """``value``, or the execution's value when it is a :class:`Param`
    (a seek or elimination bound made from a parameter slot)."""
    return params[value.index] if value.__class__ is Param else value


def _constant(node: Expr, ctx) -> object:
    """The value of a :class:`Literal` or :class:`Param` node."""
    if node.__class__ is Param:
        return ctx.params[node.index]
    return node.value


def with_values(expr: Optional[Expr], params: Sequence[object]
                ) -> Optional[Expr]:
    """``expr`` with each :class:`Param` replaced by a :class:`Literal`
    of its value: how an execution's plan text shows a predicate."""
    if expr is None or not params:
        return expr
    if expr.__class__ is Param:
        return Literal(params[expr.index])
    changed = {}
    for name in expr.__dataclass_fields__:
        value = getattr(expr, name)
        if isinstance(value, Expr):
            new = with_values(value, params)
        elif isinstance(value, tuple) and all(
                isinstance(item, Expr) for item in value):
            new = tuple(with_values(item, params) for item in value)
            if all(map(operator.is_, new, value)):
                continue
        else:
            continue
        if new is not value:
            changed[name] = new
    if not changed:
        return expr
    # A copy with the new fields: what ``dataclasses.replace`` makes,
    # without re-running ``__init__`` on fields it already checked.
    clone = object.__new__(expr.__class__)
    clone.__dict__.update(expr.__dict__, **changed)
    return clone


def _floating(value) -> bool:
    """Whether ``value`` is a float array or scalar (``np.float64`` is a
    ``float``), whose arithmetic numpy may answer with a warning."""
    return isinstance(value, float) or (
        isinstance(value, np.ndarray) and value.dtype.kind == "f")


def _float_op(op: Callable, left, right):
    """``op`` over float operands. A result that overflows is an
    infinity, as Python's own float arithmetic gives, without numpy's
    ``RuntimeWarning``: a DECIMAL column refuses it when a write stores
    it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return op(left, right)


def _divide(left, right):
    """``left / right`` for scalars and arrays alike; a zero divisor is
    the statement's error whatever the operands' dtype (numpy would
    answer ``inf``/``nan`` and warn, Python raise ``ZeroDivisionError``).
    """
    if np.any(right == 0):
        raise ExecutionError("division by zero")
    if _floating(left) or _floating(right):
        return _float_op(operator.truediv, left, right)
    return operator.truediv(left, right)


def _exact(op: Callable) -> Callable:
    """``op`` (+, - or *) that never wraps: where an integer result does
    not fit int64 it raises SQL Server's arithmetic overflow error.
    Object operands (Python ints, exact) and scalars (constant folding)
    are held to the same range, so a statement fails or not whatever
    dtype its batches happen to have."""
    def apply(left, right):
        if _floating(left) or _floating(right):
            return _float_op(op, left, right)
        out = op(left, right)
        if not isinstance(out, np.ndarray):
            exact = [out]
        elif out.dtype == object:
            exact = out.tolist()
        elif out.dtype == np.int64:
            # The float64 result is within a relative 2**-52 of the
            # exact one, so every int64 result that wrapped is among
            # these candidates, which are then computed exactly.
            near = np.flatnonzero(np.abs(op(left.astype(np.float64),
                                            right.astype(np.float64)))
                                  >= 2.0 ** 62)
            exact = list(map(op, left[near].tolist(), right[near].tolist()))
        else:
            exact = []
        if any(type(value) is int and not INT64_MIN <= value <= INT64_MAX
               for value in exact):
            raise ExecutionError(
                f"arithmetic overflow: an integer {op.__name__} does not "
                "fit a 64-bit integer")
        return out
    return apply


_ARITH_OPS: Dict[str, Callable] = {
    "+": _exact(operator.add),
    "-": _exact(operator.sub),
    "*": _exact(operator.mul),
    "/": _divide,
}

_COMPARE_OPS: Dict[str, Callable] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NEGATED = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic: + - * /."""
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _ARITH_OPS:
            raise ExecutionError(f"unknown arithmetic operator {self.op!r}")

    def _collect_columns(self, out: List[str]) -> None:
        self.left._collect_columns(out)
        self.right._collect_columns(out)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison: = != < <= > >=."""
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _COMPARE_OPS:
            raise ExecutionError(f"unknown comparison operator {self.op!r}")

    def _collect_columns(self, out: List[str]) -> None:
        self.left._collect_columns(out)
        self.right._collect_columns(out)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Between(Expr):
    """SQL BETWEEN: low <= subject <= high, all inclusive."""
    subject: Expr
    low: Expr
    high: Expr

    def _collect_columns(self, out: List[str]) -> None:
        self.subject._collect_columns(out)
        self.low._collect_columns(out)
        self.high._collect_columns(out)

    def __str__(self) -> str:
        return f"({self.subject} BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    """SQL IN over a literal value list."""
    subject: Expr
    values: Tuple[object, ...]

    def _collect_columns(self, out: List[str]) -> None:
        self.subject._collect_columns(out)

    def __str__(self) -> str:
        return f"({self.subject} IN {self.values})"


@dataclass(frozen=True)
class And(Expr):
    """Conjunction of two or more predicates."""
    operands: Tuple[Expr, ...]

    def _collect_columns(self, out: List[str]) -> None:
        for op in self.operands:
            op._collect_columns(out)

    def __str__(self) -> str:
        return "(" + " AND ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expr):
    """Disjunction of two or more predicates."""
    operands: Tuple[Expr, ...]

    def _collect_columns(self, out: List[str]) -> None:
        for op in self.operands:
            op._collect_columns(out)

    def __str__(self) -> str:
        return "(" + " OR ".join(str(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""
    operand: Expr

    def _collect_columns(self, out: List[str]) -> None:
        self.operand._collect_columns(out)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


def make_and(operands: Sequence[Expr]) -> Optional[Expr]:
    """AND together expressions, flattening; None for an empty list."""
    flat: List[Expr] = []
    for op in operands:
        if op is None:
            continue
        if isinstance(op, And):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Split an expression into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: List[Expr] = []
        for op in expr.operands:
            out.extend(conjuncts(op))
        return out
    return [expr]


# -------------------------------------------------------------- batch mode
def eval_batch(expr: Expr, batch: Batch, ctx=None) -> np.ndarray:
    """Vectorized evaluation: returns a value array or boolean mask.

    ``ctx`` (an :class:`~repro.engine.metrics.ExecutionContext`, optional)
    only receives code-path hit/fallback counters — evaluation itself is
    identical with or without it.

    Dictionary-coded columns evaluate on codes where possible: a
    comparison/BETWEEN/IN between an encoded column and literals
    translates the literals to code space once per segment dictionary
    and runs vectorized over ``int32`` codes. Anything else materializes
    the encoded operand and follows the decoded path (counted as a
    fallback).
    """
    if isinstance(expr, ColumnRef):
        return batch.column(expr.name)
    if isinstance(expr, _CONSTANTS):
        return np.full(len(batch), _constant(expr, ctx))
    if isinstance(expr, Arithmetic):
        left = _materialized(eval_batch(expr.left, batch, ctx), ctx,
                             expr, "arithmetic")
        right = _materialized(eval_batch(expr.right, batch, ctx), ctx,
                              expr, "arithmetic")
        return _null_aware(_ARITH_OPS[expr.op], left, right, None, object)
    if isinstance(expr, Comparison):
        if isinstance(expr.right, _CONSTANTS):
            subject = eval_batch(expr.left, batch, ctx)
            value = _constant(expr.right, ctx)
            if isinstance(subject, EncodedColumn):
                note_code_hit(ctx)
                return compare_codes(expr.op, subject, value)
            return _compare_arrays(expr.op, subject,
                                   np.full(len(batch), value))
        if isinstance(expr.left, _CONSTANTS):
            subject = eval_batch(expr.right, batch, ctx)
            value = _constant(expr.left, ctx)
            if isinstance(subject, EncodedColumn):
                note_code_hit(ctx)
                return compare_codes(_FLIPPED[expr.op], subject, value)
            return _compare_arrays(expr.op, np.full(len(batch), value),
                                   subject)
        left = _materialized(eval_batch(expr.left, batch, ctx), ctx,
                             expr, "non-literal comparison")
        right = _materialized(eval_batch(expr.right, batch, ctx), ctx,
                              expr, "non-literal comparison")
        return _compare_arrays(expr.op, left, right)
    if isinstance(expr, Between):
        value = eval_batch(expr.subject, batch, ctx)
        if (isinstance(value, EncodedColumn)
                and isinstance(expr.low, _CONSTANTS)
                and isinstance(expr.high, _CONSTANTS)):
            note_code_hit(ctx)
            return between_codes(value, _constant(expr.low, ctx),
                                 _constant(expr.high, ctx))
        value = _materialized(value, ctx, expr, "non-literal BETWEEN bounds")
        low = _materialized(eval_batch(expr.low, batch, ctx), ctx,
                            expr, "non-literal BETWEEN bounds")
        high = _materialized(eval_batch(expr.high, batch, ctx), ctx,
                             expr, "non-literal BETWEEN bounds")
        return _compare_arrays("<=", low, value) & _compare_arrays("<=", value, high)
    if isinstance(expr, InList):
        value = eval_batch(expr.subject, batch, ctx)
        if isinstance(value, EncodedColumn):
            note_code_hit(ctx)
            return isin_codes(value, expr.values)
        if value.dtype == object:
            allowed = set(expr.values) - {None}  # NULL IN (NULL) is not-true
            return np.fromiter((v in allowed for v in value), dtype=bool,
                               count=len(value))
        return np.isin(value, np.array(list(expr.values)))
    if isinstance(expr, And):
        mask = eval_batch(expr.operands[0], batch, ctx)
        for op in expr.operands[1:]:
            mask = mask & eval_batch(op, batch, ctx)
        return mask
    if isinstance(expr, Or):
        mask = eval_batch(expr.operands[0], batch, ctx)
        for op in expr.operands[1:]:
            mask = mask | eval_batch(op, batch, ctx)
        return mask
    if isinstance(expr, Not):
        return ~eval_batch(expr.operand, batch, ctx)
    raise ExecutionError(f"cannot evaluate {type(expr).__name__} in batch mode")


def _materialized(values, ctx, expr=None, why: str = ""):
    """Decode an encoded operand for a path without code support.

    ``expr``/``why`` describe which predicate forced the fallback; the
    attribution lands on the active operator span so EXPLAIN ANALYZE can
    name the expression instead of silently bumping a counter.
    """
    if isinstance(values, EncodedColumn):
        reason = f"{why}: {expr}" if expr is not None else None
        note_code_fallback(ctx, reason=reason)
        return values.materialize()
    return values


def _null_aware(op: Callable, left: np.ndarray, right: np.ndarray,
                null_result: object, dtype) -> np.ndarray:
    """``op(left, right)`` elementwise, with ``null_result`` wherever an
    object-dtype operand holds a NULL: the non-NULL positions are
    computed in one vectorised call, the NULL ones never reach ``op``."""
    if left.dtype != object and right.dtype != object:
        return op(left, right)
    valid = np.ones(len(left), dtype=bool)
    for operand in (left, right):
        if operand.dtype == object:
            valid &= operand != None  # noqa: E711 - elementwise NULL test
    left, right = left[valid], right[valid]
    if dtype is object:
        # Python scalars in, Python scalars out: an object + int64 add
        # would leave boxed numpy scalars in the result rows.
        left, right = left.astype(object), right.astype(object)
    out = np.full(len(valid), null_result, dtype=dtype)
    out[valid] = op(left, right)
    return out


def _compare_arrays(op: str, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Comparison that treats object-array NULLs as not-true."""
    return _null_aware(_COMPARE_OPS[op], left, right, False, bool)


# ------------------------------------------------------ predicate analysis
@dataclass
class ColumnRange:
    """A sargable interval derived from predicates on a single column."""

    low: object = None
    high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    #: The conjuncts :func:`extract_column_ranges` folded into this
    #: range. The range is their intersection, so it implies each of
    #: them (see :func:`drop_folded_conjuncts`).
    sources: Tuple[Expr, ...] = field(default=(), compare=False, repr=False)

    def intersect_low(self, value: object, inclusive: bool) -> None:
        """Tighten the lower bound with another predicate's bound."""
        if self.low is None or value > self.low or (
                value == self.low and not inclusive):
            self.low = value
            self.low_inclusive = inclusive

    def intersect_high(self, value: object, inclusive: bool) -> None:
        """Tighten the upper bound with another predicate's bound."""
        if self.high is None or value < self.high or (
                value == self.high and not inclusive):
            self.high = value
            self.high_inclusive = inclusive

    @property
    def is_point(self) -> bool:
        """True when the range pins exactly one value."""
        return (self.low is not None and self.low == self.high
                and self.low_inclusive and self.high_inclusive)

    def as_bounds(self) -> Tuple[object, object]:
        """The range as a plain (low, high) tuple."""
        return self.low, self.high


def extract_column_ranges(expr: Optional[Expr]) -> Dict[str, ColumnRange]:
    """Derive per-column sargable ranges from the AND-ed conjuncts.

    Only simple ``column <op> literal`` conjuncts (and BETWEEN/IN with a
    single value) contribute; everything else is ignored — it will be
    applied as a residual filter. These ranges drive B+ tree seeks and
    columnstore segment elimination.
    """
    ranges: Dict[str, ColumnRange] = {}
    for conj in conjuncts(expr):
        _absorb_conjunct(conj, ranges)
    return ranges


def _absorb_conjunct(conj: Expr, ranges: Dict[str, ColumnRange]) -> None:
    if isinstance(conj, Between) and isinstance(conj.subject, ColumnRef):
        if (isinstance(conj.low, Literal) and isinstance(conj.high, Literal)
                and conj.low.value is not None
                and conj.high.value is not None):  # NULL bound: not-true
            column_range = ranges.setdefault(conj.subject.name, ColumnRange())
            column_range.intersect_low(conj.low.value, True)
            column_range.intersect_high(conj.high.value, True)
            column_range.sources += (conj,)
        return
    if not isinstance(conj, Comparison):
        return
    left, right, op = conj.left, conj.right, conj.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = _FLIPPED[op]
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return
    if right.value is None:
        return
    if op == "!=":
        return  # not sargable
    column_range = ranges.setdefault(left.name, ColumnRange())
    value = right.value
    if op == "=":
        column_range.intersect_low(value, True)
        column_range.intersect_high(value, True)
    elif op == "<":
        column_range.intersect_high(value, False)
    elif op == "<=":
        column_range.intersect_high(value, True)
    elif op == ">":
        column_range.intersect_low(value, False)
    elif op == ">=":
        column_range.intersect_low(value, True)
    column_range.sources += (conj,)


def key_prefix_ranges(key_columns: Sequence[str],
                      ranges: Dict[str, ColumnRange]) -> List[ColumnRange]:
    """The per-column ranges a composite-key seek can use: points along
    the key prefix, optionally ending in one non-point range."""
    prefix = []
    for column in key_columns:
        column_range = ranges.get(column)
        if column_range is None:
            break
        prefix.append(column_range)
        if not column_range.is_point:
            break
    return prefix


def drop_folded_conjuncts(
    expr: Optional[Expr], ranges: Sequence[ColumnRange]
) -> Optional[Expr]:
    """``expr`` without the conjuncts that were folded into ``ranges``.

    For a caller that enforces every one of ``ranges`` exactly on a NOT
    NULL column (a B+ seek on its key prefix): a row inside a range
    satisfies each ``column <op> literal`` / ``BETWEEN`` conjunct the
    range was intersected from, so re-testing them is wasted work.
    Matching is by identity with the objects :func:`extract_column_ranges`
    saw, so ranges built any other way drop nothing; ``!=``, NULL
    literals and non-sargable conjuncts are never folded and stay."""
    folded = {id(conj) for column_range in ranges
              for conj in column_range.sources}
    if not folded:
        return expr
    return make_and([conj for conj in conjuncts(expr)
                     if id(conj) not in folded])


def elimination_ranges(
    expr: Optional[Expr],
) -> Dict[str, Tuple[object, object]]:
    """Column -> (low, high) bounds for columnstore segment elimination."""
    return {
        name: column_range.as_bounds()
        for name, column_range in extract_column_ranges(expr).items()
    }

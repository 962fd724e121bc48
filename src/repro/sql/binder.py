"""Binder: resolves parsed statements against a database schema.

Produces *bound* statements in which every column reference is qualified
as ``alias.column``, date-string literals are coerced to the engine's
internal day numbers, ``*`` is expanded, and the select list is split into
group-by columns and aggregate specifications — the form the optimizer
consumes.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SqlError
from repro.core.types import TypeKind, date_to_int
from repro.engine.expressions import (
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
    _NEGATED,
    conjuncts,
    make_and,
)
from repro.engine.operators.aggregates import AggregateSpec
from repro.sql.ast import (
    AggregateCall,
    DeleteStmt,
    InsertStmt,
    SelectStmt,
    Star,
    UpdateStmt,
)
from repro.storage.database import Database
from repro.storage.table import Table


@dataclass
class BoundTable:
    """One FROM-clause table with its (alias-qualified) name."""

    alias: str
    table: Table


@dataclass
class JoinEdge:
    """An equi-join condition ``left_alias.left_col = right_alias.right_col``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    @property
    def left_qualified(self) -> str:
        """``left_alias.left_column`` as one string."""
        return f"{self.left_alias}.{self.left_column}"

    @property
    def right_qualified(self) -> str:
        """``right_alias.right_column`` as one string."""
        return f"{self.right_alias}.{self.right_column}"


@dataclass
class OutputColumn:
    """One result column: its display name and its qualified source —
    either a group/scalar column name or an aggregate output slot."""

    name: str
    source: str  # qualified column name or aggregate output name
    is_aggregate: bool = False


@dataclass
class BoundSelect:
    """A fully-bound SELECT: tables, join edges, predicates, grouping, outputs."""
    tables: List[BoundTable]
    join_edges: List[JoinEdge]
    where: Optional[Expr]
    group_by: List[str]  # qualified column names
    aggregates: List[AggregateSpec]
    outputs: List[OutputColumn]
    order_by: List[Tuple[str, bool]]  # (output or qualified name, descending)
    top: Optional[int]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        """Whether the query groups or aggregates."""
        return bool(self.aggregates) or bool(self.group_by)

    def table_by_alias(self, alias: str) -> BoundTable:
        """Look up a FROM-clause table by its alias."""
        for bound in self.tables:
            if bound.alias == alias:
                return bound
        raise SqlError(f"unknown table alias {alias!r}")

    def referenced_columns(self, alias: str) -> List[str]:
        """Bare column names of ``alias`` referenced anywhere in the query
        (used by the advisor's candidate selection)."""
        prefix = alias + "."
        names = set()
        exprs: List[Expr] = []
        if self.where is not None:
            exprs.append(self.where)
        for spec in self.aggregates:
            if spec.expr is not None:
                exprs.append(spec.expr)
        for expr in exprs:
            for column in expr.columns():
                if column.startswith(prefix):
                    names.add(column[len(prefix):])
        for qualified in self.group_by:
            if qualified.startswith(prefix):
                names.add(qualified[len(prefix):])
        for out in self.outputs:
            if not out.is_aggregate and out.source.startswith(prefix):
                names.add(out.source[len(prefix):])
        for edge in self.join_edges:
            if edge.left_alias == alias:
                names.add(edge.left_column)
            if edge.right_alias == alias:
                names.add(edge.right_column)
        for name, descending in self.order_by:
            del descending
            if name.startswith(prefix):
                names.add(name[len(prefix):])
        return sorted(names)


@dataclass
class BoundUpdate:
    """A bound UPDATE: target table, assignments, predicate, TOP limit."""
    table: Table
    assignments: List[Tuple[str, Expr]]  # bare column name -> expression
    where: Optional[Expr]
    top: Optional[int]


@dataclass
class BoundDelete:
    """A bound DELETE: target table, predicate, TOP limit."""
    table: Table
    where: Optional[Expr]
    top: Optional[int]


@dataclass
class BoundInsert:
    """A bound INSERT: target table and fully-evaluated rows."""
    table: Table
    rows: List[Tuple[object, ...]]  # fully evaluated, schema order


class _Scope:
    """Alias -> table mapping with unique bare-column resolution."""

    def __init__(self, tables: List[BoundTable]):
        self.tables = tables
        self._by_alias: Dict[str, Table] = {}
        for bound in tables:
            if bound.alias in self._by_alias:
                raise SqlError(f"duplicate table alias {bound.alias!r}")
            self._by_alias[bound.alias] = bound.table

    def resolve(self, name: str) -> Tuple[str, str]:
        """Resolve a (possibly qualified) column name to (alias, column)."""
        if "." in name:
            alias, column = name.split(".", 1)
            table = self._by_alias.get(alias)
            if table is None:
                raise SqlError(f"unknown table alias {alias!r}")
            if column not in table.schema:
                raise SqlError(
                    f"table {alias!r} has no column {column!r}")
            return alias, column
        owners = [
            bound.alias for bound in self.tables
            if name in bound.table.schema
        ]
        if not owners:
            raise SqlError(f"unknown column {name!r}")
        if len(owners) > 1:
            raise SqlError(f"ambiguous column {name!r} (in {owners})")
        return owners[0], name

    def column_type(self, alias: str, column: str):
        """Column type of ``alias.column`` in this scope."""
        return self._by_alias[alias].schema.column(column).col_type


def _qualify_expr(expr: Expr, scope: _Scope) -> Expr:
    """Rewrite column refs to qualified names and coerce date literals."""
    if isinstance(expr, ColumnRef):
        alias, column = scope.resolve(expr.name)
        return ColumnRef(f"{alias}.{column}")
    if isinstance(expr, Literal):
        return expr
    if isinstance(expr, Arithmetic):
        return _fold(Arithmetic(expr.op, _qualify_expr(expr.left, scope),
                                _qualify_expr(expr.right, scope)))
    if isinstance(expr, Comparison):
        left = _qualify_expr(expr.left, scope)
        right = _qualify_expr(expr.right, scope)
        left, right = _coerce_date_pair(left, right, scope)
        return Comparison(expr.op, left, right)
    if isinstance(expr, Between):
        subject = _qualify_expr(expr.subject, scope)
        low = _coerce_for(subject, _qualify_expr(expr.low, scope), scope)
        high = _coerce_for(subject, _qualify_expr(expr.high, scope), scope)
        return Between(subject, low, high)
    if isinstance(expr, InList):
        subject = _qualify_expr(expr.subject, scope)
        values = tuple(
            _coerce_value_for(subject, v, scope) for v in expr.values)
        return InList(subject, values)
    if isinstance(expr, And):
        return And(tuple(_qualify_expr(op, scope) for op in expr.operands))
    if isinstance(expr, Or):
        return Or(tuple(_qualify_expr(op, scope) for op in expr.operands))
    if isinstance(expr, Not):
        if isinstance(expr.operand, Not):
            return _qualify_expr(expr.operand.operand, scope)
        return _negate(_qualify_expr(expr.operand, scope))
    if isinstance(expr, AggregateCall):
        argument = (None if expr.argument is None
                    else _qualify_expr(expr.argument, scope))
        return AggregateCall(expr.func, argument)
    raise SqlError(f"cannot bind expression {type(expr).__name__}")


def _negate(expr: Expr) -> Expr:
    """``NOT expr`` with the negation pushed down to the comparisons.

    A comparison with NULL is not-true, and stays not-true under SQL's
    NOT; a ``Not`` node over it would flip the evaluators' false to true
    and keep the row. Negating the leaves instead needs no new node kind
    and no branch in the evaluators: ``NOT IN`` becomes a conjunction of
    ``!=`` (never true once the list holds a NULL), ``NOT BETWEEN`` the
    two open ranges outside it."""
    if isinstance(expr, Comparison):
        return Comparison(_NEGATED[expr.op], expr.left, expr.right)
    if isinstance(expr, Between):
        return Or((Comparison("<", expr.subject, expr.low),
                   Comparison(">", expr.subject, expr.high)))
    if isinstance(expr, InList):
        return make_and([Comparison("!=", expr.subject, Literal(value))
                         for value in expr.values])
    if isinstance(expr, And):
        return Or(tuple(_negate(op) for op in expr.operands))
    if isinstance(expr, Or):
        return And(tuple(_negate(op) for op in expr.operands))
    return Not(expr)


def _is_date_column(expr: Expr, scope: _Scope) -> bool:
    if not isinstance(expr, ColumnRef) or "." not in expr.name:
        return False
    alias, column = expr.name.split(".", 1)
    return scope.column_type(alias, column).kind is TypeKind.DATE


def _coerce_date_pair(left: Expr, right: Expr, scope: _Scope):
    if _is_date_column(left, scope):
        right = _coerce_for(left, right, scope)
    elif _is_date_column(right, scope):
        left = _coerce_for(right, left, scope)
    return left, right


def _coerce_for(subject: Expr, expr: Expr, scope: _Scope) -> Expr:
    """Coerce literals to the subject column's type (date strings).

    Recurses through arithmetic so ``DATEADD(DAY, 1, '1995-01-01')`` —
    which parses to ``'1995-01-01' + 1`` — gets its string leaf converted
    to a day number before evaluation.
    """
    if isinstance(expr, Literal):
        return Literal(_coerce_value_for(subject, expr.value, scope))
    if isinstance(expr, Arithmetic):
        return _fold(Arithmetic(expr.op,
                                _coerce_for(subject, expr.left, scope),
                                _coerce_for(subject, expr.right, scope)))
    return expr


def _fold(expr: Arithmetic) -> Expr:
    """Constant-fold arithmetic over literals so folded bounds stay
    sargable (e.g. ``'1995-01-01' + 1`` becomes a day-number literal)."""
    if isinstance(expr.left, Literal) and isinstance(expr.right, Literal):
        left, right = expr.left.value, expr.right.value
        if left is None or right is None:
            return Literal(None)
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            from repro.engine.expressions import _ARITH_OPS
            return Literal(_ARITH_OPS[expr.op](left, right))
    return expr


def _coerce_value_for(subject: Expr, value: object, scope: _Scope) -> object:
    if not _is_date_column(subject, scope) or not isinstance(value, str):
        return value
    try:
        return date_to_int(_dt.date.fromisoformat(value))
    except ValueError:
        raise SqlError(f"bad date string {value!r}") from None


def _contains_aggregate(expr: Expr) -> bool:
    if isinstance(expr, AggregateCall):
        return True
    for attr in ("left", "right", "subject", "low", "high", "operand",
                 "argument"):
        child = getattr(expr, attr, None)
        if isinstance(child, Expr) and _contains_aggregate(child):
            return True
    operands = getattr(expr, "operands", None)
    if operands:
        return any(_contains_aggregate(op) for op in operands)
    return False


class Binder:
    """Binds statements against one database."""

    def __init__(self, database: Database):
        self.database = database

    # ------------------------------------------------------------- select
    def bind(self, stmt):
        """Dispatch a parsed statement to the matching bind_* method."""
        if isinstance(stmt, SelectStmt):
            return self.bind_select(stmt)
        if isinstance(stmt, UpdateStmt):
            return self.bind_update(stmt)
        if isinstance(stmt, DeleteStmt):
            return self.bind_delete(stmt)
        if isinstance(stmt, InsertStmt):
            return self.bind_insert(stmt)
        raise SqlError(f"cannot bind {type(stmt).__name__}")

    def bind_select(self, stmt: SelectStmt) -> BoundSelect:
        """Bind a SELECT statement into a BoundSelect."""
        tables = []
        for ref in stmt.table_refs:
            table = self.database.table(ref.table)
            tables.append(BoundTable(ref.name, table))
        scope = _Scope(tables)

        join_edges: List[JoinEdge] = []
        residuals: List[Expr] = []
        for join in stmt.joins:
            for conj in conjuncts(_qualify_expr(join.condition, scope)):
                edge = _as_join_edge(conj)
                if edge is not None:
                    join_edges.append(edge)
                else:
                    residuals.append(conj)
        where = None
        if stmt.where is not None:
            qualified_where = _qualify_expr(stmt.where, scope)
            for conj in conjuncts(qualified_where):
                edge = _as_join_edge(conj)
                if edge is not None and len(tables) > 1:
                    join_edges.append(edge)
                else:
                    residuals.append(conj)
        where = make_and(residuals)

        group_by: List[str] = []
        for expr in stmt.group_by:
            bound = _qualify_expr(expr, scope)
            if not isinstance(bound, ColumnRef):
                raise SqlError("GROUP BY supports plain columns only")
            group_by.append(bound.name)

        aggregates: List[AggregateSpec] = []
        outputs: List[OutputColumn] = []
        items = self._expand_stars(stmt, tables)
        has_aggregate = any(
            _contains_aggregate(item.expr) for item in items)
        if has_aggregate or group_by:
            self._bind_aggregate_select(
                items, scope, group_by, aggregates, outputs)
        else:
            for i, item in enumerate(items):
                bound = _qualify_expr(item.expr, scope)
                if isinstance(bound, ColumnRef):
                    name = item.alias or bound.name.split(".", 1)[1]
                    outputs.append(OutputColumn(name, bound.name))
                else:
                    # Computed scalar column: give it a slot name.
                    name = item.output_name(f"expr{i}")
                    outputs.append(OutputColumn(name, f"__expr{i}__"))
                    raise SqlError(
                        "computed select expressions require GROUP BY "
                        "or aggregation in this subset")
        # Results are keyed by output name downstream: two outputs of one
        # name would silently return one column's values twice.
        names = set()
        for out in outputs:
            if out.name in names:
                raise SqlError(f"duplicate output column {out.name!r}; "
                               "alias one of them")
            names.add(out.name)

        order_by: List[Tuple[str, bool]] = []
        for order in stmt.order_by:
            if isinstance(order.expr, ColumnRef):
                name = order.expr.name
                matched = next(
                    (out for out in outputs
                     if out.name == name or out.source == name), None)
                if matched is not None:
                    order_by.append((matched.source, order.descending))
                    continue
                bound = _qualify_expr(order.expr, scope)
                order_by.append((bound.name, order.descending))
            else:
                raise SqlError("ORDER BY supports plain columns only")

        if stmt.distinct:
            if aggregates:
                raise SqlError(
                    "DISTINCT with aggregate functions is not supported")
            # SELECT DISTINCT a, b  ==  SELECT a, b GROUP BY a, b.
            group_by = [out.source for out in outputs]

        return BoundSelect(
            tables=tables, join_edges=join_edges, where=where,
            group_by=group_by, aggregates=aggregates, outputs=outputs,
            order_by=order_by, top=stmt.top, distinct=stmt.distinct,
        )

    def _expand_stars(self, stmt: SelectStmt, tables: List[BoundTable]):
        from repro.sql.ast import SelectItem
        items = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                for bound in tables:
                    for column in bound.table.schema.column_names():
                        items.append(SelectItem(
                            ColumnRef(f"{bound.alias}.{column}")))
            else:
                items.append(item)
        if not items:
            raise SqlError("empty select list")
        return items

    def _bind_aggregate_select(self, items, scope, group_by,
                               aggregates, outputs) -> None:
        agg_counter = 0
        for item in items:
            bound = _qualify_expr(item.expr, scope)
            if isinstance(bound, AggregateCall):
                agg_counter += 1
                default = f"{bound.func}_{agg_counter}"
                name = item.alias or default
                slot = f"__agg{agg_counter}__"
                aggregates.append(
                    AggregateSpec(bound.func, bound.argument, slot))
                outputs.append(OutputColumn(name, slot, is_aggregate=True))
            elif isinstance(bound, ColumnRef):
                if bound.name not in group_by:
                    raise SqlError(
                        f"column {bound.name!r} must appear in GROUP BY")
                name = item.alias or bound.name.split(".", 1)[1]
                outputs.append(OutputColumn(name, bound.name))
            else:
                raise SqlError(
                    "select items must be columns or aggregates when "
                    "grouping")

    # -------------------------------------------------------------- DML
    def _single_table_scope(self, table: Table) -> _Scope:
        return _Scope([BoundTable(table.name, table)])

    def _dml_target(self, name: str) -> Table:
        """Resolve a DML target table, rejecting system views (DMVs are
        read-only; a real table of the same name shadows the view)."""
        if not self.database.has_table(name):
            from repro.engine.dmv import SYSTEM_VIEW_NAMES
            if name in SYSTEM_VIEW_NAMES:
                raise SqlError(f"system view {name!r} is read-only")
        return self.database.table(name)

    def bind_update(self, stmt: UpdateStmt) -> BoundUpdate:
        """Bind an UPDATE statement into a BoundUpdate."""
        table = self._dml_target(stmt.table.table)
        scope = self._single_table_scope(table)
        assignments = []
        for assignment in stmt.assignments:
            if assignment.column not in table.schema:
                raise SqlError(
                    f"table {table.name!r} has no column "
                    f"{assignment.column!r}")
            assignments.append(
                (assignment.column, _qualify_expr(assignment.value, scope)))
        where = (None if stmt.where is None
                 else _qualify_expr(stmt.where, scope))
        return BoundUpdate(table, assignments, where, stmt.top)

    def bind_delete(self, stmt: DeleteStmt) -> BoundDelete:
        """Bind a DELETE statement into a BoundDelete."""
        table = self._dml_target(stmt.table.table)
        where = (None if stmt.where is None else
                 _qualify_expr(stmt.where, self._single_table_scope(table)))
        return BoundDelete(table, where, stmt.top)

    def bind_insert(self, stmt: InsertStmt) -> BoundInsert:
        """Bind an INSERT statement into a BoundInsert."""
        table = self._dml_target(stmt.table.table)
        schema = table.schema
        columns = stmt.columns or schema.column_names()
        ordinals = schema.ordinals(columns)
        rows = []
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise SqlError("INSERT arity mismatch")
            full: List[object] = [None] * len(schema)
            for ordinal, expr in zip(ordinals, row_exprs):
                if not isinstance(expr, Literal):
                    raise SqlError("INSERT supports literal values only")
                value = expr.value
                if schema.columns[ordinal].col_type.kind is TypeKind.DATE \
                        and isinstance(value, str):
                    value = date_to_int(_dt.date.fromisoformat(value))
                full[ordinal] = value
            rows.append(tuple(full))
        return BoundInsert(table, rows)


def _as_join_edge(conj: Expr) -> Optional[JoinEdge]:
    """Recognise ``a.x = b.y`` between different aliases."""
    if not isinstance(conj, Comparison) or conj.op != "=":
        return None
    if not (isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)):
        return None
    left_alias, left_column = conj.left.name.split(".", 1)
    right_alias, right_column = conj.right.name.split(".", 1)
    if left_alias == right_alias:
        return None
    return JoinEdge(left_alias, left_column, right_alias, right_column)

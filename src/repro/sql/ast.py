"""Abstract syntax tree for the SQL subset.

Statements reference expressions from :mod:`repro.engine.expressions`
directly (the parser builds engine expressions), with two parse-only
additions defined here: :class:`AggregateCall` (aggregate functions are
not scalar expressions) and :class:`Star` (``SELECT *`` / ``COUNT(*)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.expressions import Expr


@dataclass(frozen=True)
class AggregateCall(Expr):
    """An aggregate function application in a select list."""

    func: str  # sum | count | avg | min | max
    argument: Optional[Expr]  # None for COUNT(*)

    def _collect_columns(self, out: List[str]) -> None:
        if self.argument is not None:
            self.argument._collect_columns(out)

    def __str__(self) -> str:
        arg = "*" if self.argument is None else str(self.argument)
        return f"{self.func}({arg})"


@dataclass(frozen=True)
class Star(Expr):
    """``*`` in a select list."""

    def _collect_columns(self, out: List[str]) -> None:
        pass

    def __str__(self) -> str:
        return "*"


@dataclass
class SelectItem:
    """One select-list entry: an expression and optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def output_name(self, default: str) -> str:
        """Display name: the alias if given, else a default."""
        if self.alias:
            return self.alias
        if hasattr(self.expr, "name"):
            return getattr(self.expr, "name")
        return default


@dataclass
class TableRef:
    """A table in the FROM clause with an optional alias."""

    table: str
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        """The effective name (alias if present)."""
        return self.alias or self.table


@dataclass
class JoinClause:
    """INNER JOIN <table> ON <condition>."""

    table: TableRef
    condition: Expr


@dataclass
class OrderItem:
    """One ORDER BY term: expression and direction."""
    expr: Expr
    descending: bool = False


@dataclass
class SelectStmt:
    """Parsed SELECT statement."""
    items: List[SelectItem]
    from_table: TableRef
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    order_by: List[OrderItem] = field(default_factory=list)
    top: Optional[int] = None
    distinct: bool = False

    @property
    def table_refs(self) -> List[TableRef]:
        """All FROM/JOIN table references, in order."""
        return [self.from_table] + [j.table for j in self.joins]


@dataclass
class Assignment:
    """One SET clause: column name and value expression."""
    column: str
    value: Expr


@dataclass
class UpdateStmt:
    """Parsed UPDATE statement."""
    table: TableRef
    assignments: List[Assignment]
    where: Optional[Expr] = None
    top: Optional[int] = None


@dataclass
class DeleteStmt:
    """Parsed DELETE statement."""
    table: TableRef
    where: Optional[Expr] = None
    top: Optional[int] = None


@dataclass
class InsertStmt:
    """Parsed INSERT statement."""
    table: TableRef
    columns: List[str]  # empty means all columns in schema order
    rows: List[List[Expr]] = field(default_factory=list)


Statement = object  # SelectStmt | UpdateStmt | DeleteStmt | InsertStmt

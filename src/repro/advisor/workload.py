"""Workload model for the tuning advisor.

A workload is a weighted set of SQL statements (Section 4.1: "a set of
SQL statements with associated weights"). Statements are parsed and bound
eagerly so candidate selection can inspect referenced tables/columns, and
classified into reads and updates — updates contribute index-maintenance
costs to the advisor's objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

from repro.core.errors import AdvisorError
from repro.sql.binder import (
    Binder,
    BoundDelete,
    BoundInsert,
    BoundSelect,
    BoundUpdate,
)
from repro.storage.database import Database


@dataclass
class WorkloadStatement:
    """One statement with its weight (relative frequency)."""

    sql: str
    weight: float = 1.0
    params: Tuple[object, ...] = ()
    #: Filled in by Workload.bind()
    bound: object = None

    @property
    def is_select(self) -> bool:
        """Whether the bound statement is a SELECT."""
        return isinstance(self.bound, BoundSelect)

    @property
    def is_update(self) -> bool:
        """Whether the bound statement modifies data."""
        return isinstance(self.bound, (BoundUpdate, BoundDelete, BoundInsert))

    def referenced_tables(self) -> List[str]:
        """Names of tables the statement/workload touches."""
        if isinstance(self.bound, BoundSelect):
            return [bt.table.name for bt in self.bound.tables]
        if isinstance(self.bound, (BoundUpdate, BoundDelete, BoundInsert)):
            return [self.bound.table.name]
        return []


class Workload:
    """An ordered collection of weighted statements bound to a database."""

    def __init__(self, statements: Sequence[WorkloadStatement],
                 database: Database):
        if not statements:
            raise AdvisorError("workload must contain at least one statement")
        self.statements = list(statements)
        self.database = database
        binder = Binder(database)
        for statement in self.statements:
            if statement.weight <= 0:
                raise AdvisorError(
                    f"statement weight must be positive: {statement.sql!r}")
            statement.bound = binder.bind(database.statement_cache.statement(
                statement.sql, statement.params))

    @classmethod
    def from_sql(cls, sql_statements: Sequence[Union[str, Tuple[str, float]]],
                 database: Database) -> "Workload":
        """Build from plain SQL strings or (sql, weight) pairs."""
        statements = []
        for entry in sql_statements:
            if isinstance(entry, tuple):
                sql, weight = entry
                statements.append(WorkloadStatement(sql, weight))
            else:
                statements.append(WorkloadStatement(entry))
        return cls(statements, database)

    def __len__(self) -> int:
        return len(self.statements)

    def __iter__(self) -> Iterator[WorkloadStatement]:
        return iter(self.statements)

    @property
    def selects(self) -> List[WorkloadStatement]:
        """The read-only statements of the workload."""
        return [s for s in self.statements if s.is_select]

    @property
    def updates(self) -> List[WorkloadStatement]:
        """The DML statements of the workload."""
        return [s for s in self.statements if s.is_update]

    @property
    def total_weight(self) -> float:
        """Sum of all statement weights."""
        return sum(s.weight for s in self.statements)

    def referenced_tables(self) -> List[str]:
        """Names of tables the statement/workload touches."""
        seen: List[str] = []
        for statement in self.statements:
            for name in statement.referenced_tables():
                if name not in seen:
                    seen.append(name)
        return seen

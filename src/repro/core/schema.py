"""Table schema objects shared by the storage engine, optimizer and advisor.

A :class:`TableSchema` is an ordered list of :class:`Column` definitions.
Rows are plain Python tuples in schema column order; the schema provides the
name→position mapping and per-row validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.errors import SchemaError
from repro.core.types import ColumnType


@dataclass(frozen=True)
class Column:
    """A column definition: name, type, and nullability."""

    name: str
    col_type: ColumnType
    nullable: bool = True

    def __str__(self) -> str:
        null = "" if self.nullable else " not null"
        return f"{self.name} {self.col_type}{null}"


class TableSchema:
    """An ordered collection of columns for one table.

    The schema is immutable after construction. Column lookup by name is
    O(1); the advisor and optimizer use :meth:`ordinal` heavily when
    translating column references into tuple positions.
    """

    def __init__(self, name: str, columns: Sequence[Column]):
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {name!r}")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._ordinals: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._ordinals

    def __iter__(self):
        return iter(self.columns)

    def ordinal(self, column_name: str) -> int:
        """Position of ``column_name`` in the row tuple."""
        try:
            return self._ordinals[column_name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {column_name!r}"
            ) from None

    def column(self, column_name: str) -> Column:
        """Values of one result/batch/stats column by name."""
        return self.columns[self.ordinal(column_name)]

    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def ordinals(self, column_names: Iterable[str]) -> List[int]:
        """Tuple positions of the named columns."""
        return [self.ordinal(n) for n in column_names]

    @property
    def row_byte_width(self) -> int:
        """Uncompressed row width in bytes (sum of column widths plus a
        small per-row header, matching row-store storage formats)."""
        return sum(c.col_type.byte_width for c in self.columns) + 9

    def validate_row(self, row: Sequence[object]) -> Tuple[object, ...]:
        """Validate and normalise one row against the schema."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, table {self.name!r} has "
                f"{len(self.columns)} columns"
            )
        out = []
        for col, value in zip(self.columns, row):
            normalised = col.col_type.validate(value)
            if normalised is None and not col.nullable:
                raise SchemaError(f"column {col.name!r} is not nullable")
            out.append(normalised)
        return tuple(out)

    def columnstore_columns(self) -> List[str]:
        """Names of columns whose types a columnstore index supports."""
        return [c.name for c in self.columns if c.col_type.columnstore_supported]

    def has_unsupported_columns(self) -> bool:
        """True when at least one column cannot live in a columnstore —
        in that case a *primary* columnstore index cannot be built on the
        table (Section 4.3 of the paper)."""
        return any(not c.col_type.columnstore_supported for c in self.columns)

    def __repr__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"


@dataclass
class SchemaBuilder:
    """Fluent helper for building schemas in workload generators.

    Example::

        schema = (SchemaBuilder("lineitem")
                  .add("l_orderkey", BIGINT, nullable=False)
                  .add("l_quantity", decimal(2))
                  .build())
    """

    name: str
    _columns: List[Column] = field(default_factory=list)

    def add(self, name: str, col_type: ColumnType, nullable: bool = True) -> "SchemaBuilder":
        """Append a column definition; returns self for chaining."""
        self._columns.append(Column(name, col_type, nullable))
        return self

    def build(self) -> TableSchema:
        """Construct and populate the demo database."""
        return TableSchema(self.name, self._columns)


def key_tuple(row: Sequence[object], ordinals: Sequence[int]) -> Tuple[object, ...]:
    """Project ``row`` onto ``ordinals`` — the common key-extraction helper
    used by indexes and operators."""
    return tuple(row[i] for i in ordinals)

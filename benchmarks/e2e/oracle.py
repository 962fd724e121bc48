"""Answer oracle: the same rows in stdlib ``sqlite3``.

The engine's tables are copied into an in-memory SQLite database during
set-up (outside every timed region) and each benchmark statement is
answered there too. Nothing here shares code with the engine beyond
reading the rows it was loaded with, so an optimisation that changes an
answer cannot also change the expectation.
"""

from __future__ import annotations

import math
import re
import sqlite3
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[object, ...]

_TOP = re.compile(r"^\s*SELECT\s+TOP\s+(\d+)\s+", re.IGNORECASE)
_ORDER_BY = re.compile(r"\bORDER\s+BY\s+(.+?)\s*(?:\bLIMIT\b.*)?$",
                       re.IGNORECASE | re.DOTALL)
_SQLITE_TYPES = {"int": "INTEGER", "bigint": "INTEGER", "date": "INTEGER",
                 "decimal": "REAL", "varchar": "TEXT", "xml": "TEXT"}
REL_TOL = 1e-9


def translate(sql: str) -> str:
    """Engine dialect -> SQLite: ``SELECT TOP n ...`` -> ``... LIMIT n``."""
    match = _TOP.match(sql)
    if match is None:
        return sql
    return f"SELECT {sql[match.end():]} LIMIT {match.group(1)}"


def is_select(sql: str) -> bool:
    return sql.lstrip().upper().startswith("SELECT")


class Oracle:
    """An in-memory SQLite mirror of an engine database."""

    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:", isolation_level=None,
                                    check_same_thread=False)

    def close(self) -> None:
        self.conn.close()

    def load_table(self, table, index_columns: Sequence[str] = ()) -> None:
        """Copy one engine table; ``index_columns`` adds SQLite indexes
        that only make the oracle itself fast. A primary B+ tree's key is
        always indexed so replayed TPC-C DML seeks instead of scanning."""
        columns = table.schema.columns
        decl = ", ".join(
            f"{c.name} {_SQLITE_TYPES[c.col_type.kind.value]}" for c in columns)
        self.conn.execute(f"CREATE TABLE {table.name} ({decl})")
        marks = ", ".join("?" for _ in columns)
        self.conn.executemany(
            f"INSERT INTO {table.name} VALUES ({marks})",
            (row for _rid, row in table.iter_rows()))
        key = getattr(table.primary, "key_columns", None)
        if key:
            self.conn.execute(
                f"CREATE INDEX {table.name}_pk ON {table.name} "
                f"({', '.join(key)})")
        for column in index_columns:
            self.conn.execute(
                f"CREATE INDEX {table.name}_{column} ON {table.name} "
                f"({column})")

    def load_database(self, database,
                      index_columns: Optional[Dict[str, Sequence[str]]] = None
                      ) -> None:
        for table in database.tables():
            self.load_table(table, (index_columns or {}).get(table.name, ()))

    def execute(self, sql: str, params: Sequence[object] = ()):
        """Answer one statement: rows for a SELECT, the affected-row count
        for DML (which also advances the mirror's state)."""
        cursor = self.conn.execute(translate(sql), tuple(params))
        if is_select(sql):
            return cursor.fetchall()
        return cursor.rowcount

    def table_fingerprint(self, name: str, numeric: Sequence[str]) -> Row:
        """``count(*)`` plus the sum of every numeric column — the
        end-of-run state check for the DML workloads."""
        return self.execute(fingerprint_sql(name, numeric))[0]


def fingerprint_sql(name: str, numeric: Sequence[str]) -> str:
    sums = "".join(f", sum({column}) s_{column}" for column in numeric)
    return f"SELECT count(*) n{sums} FROM {name}"


# ------------------------------------------------------------- comparison

def _plain(value: object) -> object:
    item = getattr(value, "item", None)      # numpy scalar -> python
    return item() if callable(item) else value


def values_close(a: object, b: object) -> bool:
    a, b = _plain(a), _plain(b)
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def rows_close(a: Sequence[Row], b: Sequence[Row]) -> bool:
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        for x, y in zip(row_a, row_b):
            if not values_close(x, y):
                return False
    return True


def _sort_key(row: Row):
    key = []
    for value in row:
        value = _plain(value)
        if value is None:
            key.append((0, 0))
        elif isinstance(value, str):
            key.append((2, value))
        else:
            key.append((1, float(f"{value:.9g}")))
    return key


def _order_positions(order_by: str,
                     columns: Sequence[str]) -> Optional[List[int]]:
    """Result positions of the ORDER BY columns, when all are projected."""
    bare = [c.split(".")[-1] for c in columns]
    positions = []
    for term in order_by.split(","):
        name = term.split()[0].split(".")[-1]
        if name not in bare:
            return None
        positions.append(bare.index(name))
    return positions


def answers_match(sql: str, columns: Sequence[str],
                  actual: Sequence[Row], expected: Sequence[Row]) -> bool:
    """Whether the engine's rows answer ``sql`` as SQLite did.

    Without ORDER BY the rows compare as a multiset. With it, the rows
    must also carry the ORDER BY columns in SQLite's sequence; rows that
    tie on those columns may come in either order."""
    if len(actual) != len(expected):
        return False
    ordered = _ORDER_BY.search(translate(sql))
    if ordered is not None and rows_close(actual, expected):
        return True
    if not rows_close(sorted(actual, key=_sort_key),
                      sorted(expected, key=_sort_key)):
        return False
    if ordered is None:
        return True
    positions = _order_positions(ordered.group(1), columns)
    if positions is None:
        return True
    project = lambda rows: [tuple(r[p] for p in positions) for r in rows]
    return rows_close(project(actual), project(expected))


def packed_bytes(rows: Iterable[Row]) -> int:
    """Size of user rows packed as int64/float64 and UTF-8 strings — the
    denominator of every bytes-per-user-byte ratio."""
    total = 0
    for row in rows:
        for value in row:
            total += len(value.encode("utf-8")) if isinstance(value, str) else 8
    return total

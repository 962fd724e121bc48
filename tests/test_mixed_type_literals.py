"""A literal of the wrong type is one typed error on every design.

A string against a numeric column, or a number against a VARCHAR column,
used to mean whatever each physical design made of it:
``DELETE FROM t WHERE qty IN ('x', 3)`` deleted no row on a heap or a
B+ tree and every ``qty = 3`` row on a columnstore (numpy turned the list
into strings), and ``qty = 'x'`` raised a raw ``TypeError`` on a
columnstore only. The binder now rejects such a comparison with
``SqlError`` before any design runs it, as literal text and as ``?``
parameters alike. NULL still compares with any column.
"""

import pytest

from repro.core.errors import SqlError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.executor import Executor
from repro.storage.database import Database

ROWS = [(i, f"c{i % 5}", i % 7) for i in range(3000)]
DESIGNS = ("heap", "btree", "pri_csi", "sec_csi")
EVERYTHING = "SELECT id, city, qty FROM t ORDER BY id"

#: (predicate as text, the same with ``?`` slots, their parameters)
MIXED = (
    ("qty IN ('x', 3)", "qty IN (?, ?)", ("x", 3)),
    ("qty = 'x'", "qty = ?", ("x",)),
    ("qty < 'x'", "qty < ?", ("x",)),
    ("city = 5", "city = ?", (5,)),
    ("city < 5", "city < ?", (5,)),
    ("city BETWEEN 1 AND 'b'", "city BETWEEN ? AND ?", (1, "b")),
)
STATEMENTS = ("SELECT count(*) FROM t WHERE {}",
              "UPDATE t SET qty = 0 WHERE {}",
              "DELETE FROM t WHERE {}")


def make_executor(design):
    database = Database()
    table = database.create_table(TableSchema("t", [
        Column("id", INT, nullable=False), Column("city", varchar(8)),
        Column("qty", INT, nullable=False)]))
    table.bulk_load(ROWS)
    if design == "btree":
        table.set_primary_btree(["id"])
    elif design == "pri_csi":
        table.set_primary_columnstore(rowgroup_size=1024)
    elif design == "sec_csi":
        table.create_secondary_columnstore("csi", rowgroup_size=1024)
    return Executor(database)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("statement", STATEMENTS)
@pytest.mark.parametrize("literal, slotted, params", MIXED)
def test_mixed_types_raise_sql_error(design, statement, literal, slotted,
                                     params):
    executor = make_executor(design)
    before = executor.execute(EVERYTHING).rows
    with pytest.raises(SqlError, match="^cannot compare "):
        executor.execute(statement.format(literal))
    with pytest.raises(SqlError, match="^cannot compare "):
        executor.execute(statement.format(slotted), params)
    assert executor.execute(EVERYTHING).rows == before


@pytest.mark.parametrize("design", DESIGNS)
def test_null_compares_with_any_column(design):
    executor = make_executor(design)
    for sql, params in (("SELECT count(*) FROM t WHERE qty IN (NULL, 3)", ()),
                        ("SELECT count(*) FROM t WHERE city = NULL", ()),
                        ("SELECT count(*) FROM t WHERE qty = ?", (None,))):
        expected = 429 if "3" in sql else 0
        assert executor.execute(sql, params).rows == [(expected,)], sql


def test_a_kept_plan_is_not_reused_for_a_string():
    executor = make_executor("heap")
    executor.database.table("t").create_secondary_btree("ix_qty", ["qty"])
    cache = executor.database.statement_cache
    sql = "SELECT count(*) FROM t WHERE qty = ?"
    assert executor.execute(sql, (3,)).rows == [(429,)]
    assert executor.execute(sql, (3,)).rows == [(429,)]
    assert cache.plan_hits == 1
    with pytest.raises(SqlError, match="^cannot compare int column 'qty'"):
        executor.execute(sql, ("x",))
    assert cache.plan_hits == 1

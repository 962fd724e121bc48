"""Integers stay within int64 on every design, or the statement fails.

* A value outside [-2**63, 2**63 - 1] written to an INT, BIGINT or DATE
  column is SQL Server's arithmetic overflow error, a
  :class:`SchemaError`, on INSERT, UPDATE and ``bulk_load`` alike, and
  the table stays readable.
* ``+``, ``-`` and ``*`` over integers never wrap: a result that leaves
  int64 is an :class:`ExecutionError` whatever the design, and whether
  or not a NULL made the batch an object array. Results that fit equal
  ``sqlite3``'s exactly.
"""

import pytest

from repro.core.errors import ExecutionError, SchemaError
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, DATE, INT
from repro.engine.executor import Executor
from repro.storage.database import Database
from tests.oracle import sqlite_mirror

SCHEMA = TableSchema("t", [Column("k", INT, nullable=False),
                           Column("a", BIGINT), Column("b", INT),
                           Column("d", DATE)])
ROWS = [(k, k, None if k % 10 == 3 else k - 50, k) for k in range(100)]
DESIGNS = ["heap", "btree", "csi"]
TOO_BIG = [2 ** 63, -(2 ** 63) - 1, 2 ** 70]


def build(design, rows=ROWS):
    database = Database(design)
    table = database.create_table(SCHEMA)
    table.bulk_load(rows)
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=64)
    return database


def readable(database):
    executor = Executor(database)
    assert executor.execute("SELECT count(*) FROM t").rows == [(100,)]
    assert (sorted(executor.execute("SELECT k, a, b, d FROM t").rows)
            == sorted(ROWS))


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("value", TOO_BIG)
def test_out_of_range_writes_are_schema_errors(design, value):
    database = build(design)
    executor = Executor(database)
    for column in ("a", "b", "d"):
        values = {"a": 1, "b": 1, "d": 1, column: value}
        with pytest.raises(SchemaError, match="arithmetic overflow"):
            executor.execute(f"INSERT INTO t VALUES (1000, {values['a']}, "
                             f"{values['b']}, {values['d']})")
        with pytest.raises(SchemaError, match="arithmetic overflow"):
            executor.execute(f"UPDATE t SET {column} = {value} WHERE k = 3")
        readable(database)
    with pytest.raises(SchemaError, match="arithmetic overflow"):
        build(design, ROWS[:5] + [(5, value, 0, 0)])
    # the largest and smallest int64 are values like any other
    executor.execute(f"INSERT INTO t VALUES (1000, {2 ** 63 - 1}, "
                     f"{-(2 ** 63)}, 0)")
    assert executor.execute("SELECT a, b FROM t WHERE k = 1000").rows == [
        (2 ** 63 - 1, -(2 ** 63))]


@pytest.fixture(scope="module")
def databases():
    return {design: build(design) for design in DESIGNS}


@pytest.fixture(scope="module")
def mirror(databases):
    return sqlite_mirror([databases["heap"].table("t")])


FITS = [
    "SELECT count(*) FROM t WHERE a + 9223372036854775708 > 0",
    "SELECT count(*) FROM t WHERE a - 9223372036854775807 < 0",
    "SELECT count(*) FROM t WHERE b * 1099511627776 < 0",
    "SELECT sum(a * 1099511627776), sum(b * 3) FROM t",
    "SELECT k, sum(a * 93163354917725008), sum(b - a) FROM t WHERE k < 12 "
    "GROUP BY k",
    "SELECT sum(0 - a), sum(b + a) FROM t WHERE k BETWEEN 5 AND 60",
]
OVERFLOWS = [
    "SELECT count(*) FROM t WHERE a + 9223372036854775807 > 0",
    "SELECT sum(a * 4611686018427387904) FROM t WHERE k = 3",
    "SELECT count(*) FROM t WHERE b - 9223372036854775807 < 0",
    "SELECT k, sum(b * 922337203685477580) FROM t GROUP BY k",
    "SELECT count(*) FROM t WHERE 0 - a - 9223372036854775807 < 0",
]


def as_sums(rows):
    """Integers as the float64 a SUM answers with (goldens pin it)."""
    return sorted(tuple(float(v) if type(v) is int else v for v in row)
                  for row in rows)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("sql", FITS)
def test_results_that_fit_equal_sqlite(databases, mirror, design, sql):
    got = Executor(databases[design]).execute(sql).rows
    want = mirror.execute(sql).fetchall()
    if "sum(" in sql:
        assert as_sums(got) == as_sums(want)
    else:
        assert sorted(got, key=repr) == sorted(want, key=repr)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("sql", OVERFLOWS)
def test_overflows_raise(databases, design, sql):
    with pytest.raises(ExecutionError, match="arithmetic overflow"):
        Executor(databases[design]).execute(sql)

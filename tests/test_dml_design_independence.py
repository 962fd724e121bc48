"""The physical design may change a statement's cost, never its answer
or its error: SELECT, UPDATE and DELETE find the same rows on a heap, a
primary B+ tree, a primary columnstore (each with and without a
secondary B+ tree on a filtered column) and under a secondary
columnstore, and ``sqlite3`` agrees.

UPDATE and DELETE locate and compute their rows with the evaluator
SELECT's scans use (``eval_batch``), so NULL and arithmetic semantics are
shared by construction; this file is the check that they stay shared.
"""

import pytest

from repro.core.errors import ExecutionError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.engine.executor import Executor
from repro.storage.checker import check_database
from repro.storage.database import Database
from tests.oracle import sqlite_mirror
from tests.reference_scan import scans

#: k is unique; a, b, s are nullable with few distinct values (so a
#: columnstore hands them out dictionary-coded); c is NOT NULL, as an
#: index key must be; z, zn, zf hold zeros.
ROWS = [(k, a, b, s, k % 13, k % 7, None if k % 5 == 0 else k % 3,
         (k % 4) * 0.5)
        for k, (a, b, s) in enumerate(
            (a, b, s) for _ in range(5)
            for a in (10, None, 11, 12)
            for b in (None, 1, 2, 12)
            for s in ("x", None, "y"))]

DESIGNS = ("heap", "btree", "btree+ix_c", "pri_csi", "pri_csi+ix_c", "sec_csi")
EVERYTHING = "SELECT k, a, b, s FROM t ORDER BY k"


def make_database(design):
    database = Database()
    table = database.create_table(TableSchema("t", [
        Column("k", INT, nullable=False), Column("a", INT), Column("b", INT),
        Column("s", varchar(4)), Column("c", INT, nullable=False),
        Column("z", INT, nullable=False), Column("zn", INT),
        Column("zf", decimal(8), nullable=False)]))
    table.bulk_load(ROWS)
    if design.startswith("btree"):
        table.set_primary_btree(["k"])
    elif design.startswith("pri_csi"):
        table.set_primary_columnstore(rowgroup_size=64)
    elif design == "sec_csi":
        table.create_secondary_columnstore("csi", rowgroup_size=64)
    if design.endswith("+ix_c"):
        table.create_secondary_btree("ix_c", ["c"])
    return database, table


PREDICATES = (
    # column against column, NULLs on both sides
    "a = b", "a < b", "a != b", "k BETWEEN a AND b * 20", "a BETWEEN b AND 12",
    # NOT over OR / AND (the binder pushes it to the comparisons)
    "NOT (a = 10 OR s = 'x')", "NOT (a < 11 AND b > 1)",
    "a = 11 AND NOT (s = 'x')",
    # arithmetic
    "a + b > 12", "a * 2 - b <= 19", "k - a > 100",
    # IN with a NULL in the list
    "a IN (10, 11, NULL)", "s IN ('x', NULL)", "NOT (a IN (10, NULL))",
    # string inequality
    "s > 'x'", "s != 'y'", "s <= 'x' AND a >= 11",
    # sargable on the primary key; segment elimination on a columnstore
    "a = 10", "a >= 11 AND a < 13 AND b != 2", "k < 50 AND a = 12",
    "k >= 20 AND k <= 190 AND s = 'y'", "a > 10 OR b = 1",
)
#: The predicate alone, and behind a range the secondary index seeks on.
FORMS = ("{}", "c >= 1 AND c < 12 AND ({})", "c = 4 AND ({})")


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("predicate", PREDICATES)
def test_select_delete_update_agree_with_sqlite(design, form, predicate):
    predicate = form.format(predicate)
    select = f"SELECT k FROM t WHERE {predicate} ORDER BY k"
    database, table = make_database(design)
    selected = sqlite_mirror([table]).execute(select).fetchall()
    # NOT IN over a list with a NULL is never true; all others decide.
    assert bool(selected) == ("NOT (a IN" not in predicate)
    assert len(selected) < len(ROWS)
    assert Executor(database).execute(select).rows == selected

    for dml in (f"DELETE FROM t WHERE {predicate}",
                f"UPDATE t SET a = a + b WHERE {predicate}"):
        database, table = make_database(design)
        executor, mirror = Executor(database), sqlite_mirror([table])
        assert executor.execute(dml).rows_affected \
            == mirror.execute(dml).rowcount == len(selected), dml
        after = executor.execute(EVERYTHING).rows
        assert after == mirror.execute(EVERYTHING).fetchall(), dml
        if dml.startswith("DELETE"):
            assert sorted(set(row[:1] for row in ROWS)
                          - set(row[:1] for row in after)) == selected
        assert check_database(database).ok


# -------------------------------------------------------- DELETE/UPDATE TOP

#: Modeled cost of a cold ``… TOP 3 … WHERE <predicate>``, recorded from
#: the row-at-a-time locate loops this file's subject replaced: which
#: rows a TOP takes depends on the access path (and ``sqlite3`` has no
#: TOP), but what examining them costs must not move. Per design:
#: (elapsed_ms, cpu_ms, pages_read) of the DELETE, then of the UPDATE.
TOP_PREDICATES = ("a = 12 AND s = 'y'", "k >= 100 AND b = 2",
                  "c >= 3 AND c <= 9 AND a = b", "a + b > 100")
TOP_COSTS = {
    ('heap', "a = 12 AND s = 'y'"): (
        (0.26659619140625, 0.14300000000000002, 2),
        (1.7665961914062498, 0.14300000000000002, 5)),
    ('heap', 'k >= 100 AND b = 2'): (
        (0.38659619140625, 0.263, 2),
        (1.8865961914062497, 0.263, 5)),
    ('heap', 'c >= 3 AND c <= 9 AND a = b'): (
        (0.27259619140625, 0.14900000000000002, 2),
        (1.7725961914062496, 0.14900000000000002, 5)),
    ('heap', 'a + b > 100'): (
        (0.65359619140625, 0.53, 2),
        (0.65359619140625, 0.53, 2)),
    ('btree', "a = 12 AND s = 'y'"): (
        (4.231999999999999, 0.23199999999999998, 8),
        (5.731999999999998, 0.23199999999999998, 11)),
    ('btree', 'k >= 100 AND b = 2'): (
        (4.151999999999999, 0.152, 8),
        (5.651999999999998, 0.152, 11)),
    ('btree', 'c >= 3 AND c <= 9 AND a = b'): (
        (4.2379999999999995, 0.238, 8),
        (5.737999999999999, 0.238, 11)),
    ('btree', 'a + b > 100'): (
        (1.67359619140625, 0.55, 4),
        (1.67359619140625, 0.55, 4)),
    ('btree+ix_c', "a = 12 AND s = 'y'"): (
        (5.803999999999997, 0.30400000000000005, 11),
        (5.731999999999998, 0.23199999999999998, 11)),
    ('btree+ix_c', 'k >= 100 AND b = 2'): (
        (5.723999999999997, 0.22399999999999998, 11),
        (5.651999999999998, 0.152, 11)),
    ('btree+ix_c', 'c >= 3 AND c <= 9 AND a = b'): (
        (5.809999999999997, 0.31000000000000005, 11),
        (5.737999999999999, 0.238, 11)),
    ('btree+ix_c', 'a + b > 100'): (
        (1.67359619140625, 0.55, 4),
        (1.67359619140625, 0.55, 4)),
    ('pri_csi', "a = 12 AND s = 'y'"): (
        (0.18328664550781254, 0.18260000000000004, 1),
        (1.7582866455078119, 0.25760000000000005, 4)),
    ('pri_csi', 'k >= 100 AND b = 2'): (
        (0.18343923339843754, 0.18260000000000004, 1),
        (1.7584392333984369, 0.25760000000000005, 4)),
    ('pri_csi', 'c >= 3 AND c <= 9 AND a = b'): (
        (0.23368718872070315, 0.23260000000000003, 1),
        (1.8086871887207026, 0.3076000000000001, 4)),
    ('pri_csi', 'a + b > 100'): (
        (0.45905175781250007, 0.45600000000000007, 4),
        (0.45905175781250007, 0.45600000000000007, 4)),
    ('pri_csi+ix_c', "a = 12 AND s = 'y'"): (
        (1.7552866455078127, 0.25460000000000005, 4),
        (1.7582866455078119, 0.25760000000000005, 4)),
    ('pri_csi+ix_c', 'k >= 100 AND b = 2'): (
        (1.7554392333984377, 0.25460000000000005, 4),
        (1.7584392333984369, 0.25760000000000005, 4)),
    ('pri_csi+ix_c', 'c >= 3 AND c <= 9 AND a = b'): (
        (15.793000000000001, 0.29300000000000004, 31),
        (15.796, 0.29600000000000004, 31)),
    ('pri_csi+ix_c', 'a + b > 100'): (
        (0.45905175781250007, 0.45600000000000007, 4),
        (0.45905175781250007, 0.45600000000000007, 4)),
    ('sec_csi', "a = 12 AND s = 'y'"): (
        (0.28159619140625003, 0.15800000000000003, 2),
        (1.8565961914062492, 0.233, 5)),
    ('sec_csi', 'k >= 100 AND b = 2'): (
        (0.40159619140625, 0.278, 2),
        (1.976596191406249, 0.3530000000000001, 5)),
    ('sec_csi', 'c >= 3 AND c <= 9 AND a = b'): (
        (0.28759619140625003, 0.16400000000000003, 2),
        (1.862596191406249, 0.23900000000000002, 5)),
    ('sec_csi', 'a + b > 100'): (
        (0.65359619140625, 0.53, 2),
        (0.65359619140625, 0.53, 2)),
}


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("predicate", TOP_PREDICATES)
def test_top_takes_matching_rows_at_the_recorded_cost(design, predicate):
    costs = []
    for dml in (f"DELETE TOP 3 FROM t WHERE {predicate}",
                f"UPDATE TOP (3) t SET a = a + b WHERE {predicate}"):
        database, table = make_database(design)
        matching = {row[0] for row in sqlite_mirror([table]).execute(
            f"SELECT k FROM t WHERE {predicate}")}
        executor = Executor(database)
        before = {row[0]: row for row in executor.execute(EVERYTHING).rows}
        result = executor.execute(dml, cold=True)
        assert result.rows_affected == min(3, len(matching))
        after = {row[0]: row for row in executor.execute(EVERYTHING).rows}
        touched = {k for k in before if after.get(k) != before[k]}
        assert touched <= matching
        if dml.startswith("DELETE"):
            assert len(touched) == result.rows_affected
        assert check_database(database).ok
        metrics = result.metrics
        costs.append((metrics.elapsed_ms, metrics.cpu_ms, metrics.pages_read))
    assert tuple(costs) == TOP_COSTS[design, predicate]


def test_top_zero_touches_nothing():
    database, _ = make_database("heap")
    executor = Executor(database)
    before = executor.execute(EVERYTHING).rows
    assert executor.execute("DELETE TOP 0 FROM t WHERE a = 10") \
        .rows_affected == 0
    assert executor.execute(EVERYTHING).rows == before


# ---------------------------------------------------------- division by zero

DIVISIONS = (
    "SELECT k FROM t WHERE k / z > 1",
    "SELECT k FROM t WHERE k / zn > 1",
    "SELECT k FROM t WHERE k / zf > 1",
    "SELECT sum(k / z) FROM t",
    "DELETE FROM t WHERE k / z > 1",
    "DELETE FROM t WHERE k / zn > 1",
    "UPDATE t SET a = 1 WHERE k / zf > 1",
    "UPDATE t SET a = k / z WHERE k < 50",
    "UPDATE t SET a = b / zn WHERE k < 50",
)


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("design", DESIGNS)
def test_division_by_zero_is_one_typed_error(design, encoded):
    database, _ = make_database(design)
    executor = Executor(database)
    with scans(encoded):
        before = executor.execute(EVERYTHING).rows
        for sql in DIVISIONS:
            with pytest.raises(ExecutionError, match="^division by zero$"):
                executor.execute(sql)
        assert executor.execute(EVERYTHING).rows == before
    assert check_database(database).ok

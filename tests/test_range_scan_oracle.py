"""Range scans by physical design against ``sqlite3``, NULLs included.

The nullable payload columns hold NULLs in a few leaves only, so a
clustered scan crosses leaves whose column is a typed int64/float64
array and leaves where it is an object array holding the NULLs, within
one statement and within one batch. Every design must answer what
``sqlite3`` answers: heap, resident clustered B+ tree, a heap with a
covering secondary B+ tree, the clustered B+ tree reopened paged (before
and after a write materializes it) and a primary columnstore. The three
clustered B+ designs must also charge identical modeled metrics and end
in the same state, and every design must pass the checker.
"""

import dataclasses
import re

import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal, varchar
from repro.engine.executor import Executor
from repro.storage.checker import check_database
from repro.storage.database import Database
from repro.storage.recovery import state_digest
from tests.oracle import sqlite_mirror

N = 6000
#: ``a`` is NULL in every third row of this block, ``x`` in every row of
#: the second: a handful of leaves each, the rest of the column typed.
NULL_A = range(2000, 2600)
NULL_X = range(4100, 4180)

SCHEMA = TableSchema("t", [
    Column("k", INT, nullable=False), Column("a", INT),
    Column("b", BIGINT), Column("x", decimal(2)), Column("s", varchar(4))])


def rows():
    return [(k, None if k in NULL_A and k % 3 == 0 else k * 7 % 101 - 50,
             k << 33, None if k in NULL_X else k / 4, f"s{k % 5}")
            for k in range(N)]


def build(design):
    database = Database(design)
    table = database.create_table(SCHEMA)
    table.bulk_load(rows())
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "secondary":
        table.create_secondary_btree("ix_k", ["k"],
                                     included_columns=["a", "b", "x"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=1024)
    return database


#: A write every design applies once the first half of the statements
#: has run: an in-place update, which materializes a paged tree.
WRITE = "UPDATE t SET b = b + 1 WHERE k = 17"

DESIGNS = ["heap", "btree", "secondary", "csi", "paged btree"]


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    built = {design: build(design) for design in DESIGNS[:-1]}
    directory = str(tmp_path_factory.mktemp("paged"))
    durable = build("btree")
    durable.enable_durability(directory)
    durable.wal.close()
    built["paged btree"] = Database.open(directory, paging=True,
                                         pool_bytes=64 * 1024)
    yield built
    built["paged btree"].close()


STATEMENTS = [
    # ranges inside typed leaves, across the NULL leaves, and over all
    "SELECT sum(a), count(a), avg(a), sum(x), avg(x), count(x) "
    "FROM t WHERE k BETWEEN 100 AND 900",
    "SELECT sum(a), count(a), avg(a), sum(x), avg(x), count(x) "
    "FROM t WHERE k BETWEEN 1500 AND 4500",
    "SELECT sum(a), count(a), avg(a), count(x), count(*) FROM t "
    "WHERE k >= 2590",
    "SELECT sum(b), count(a), avg(x) FROM t",
    # residual filters over a nullable column and arithmetic on it
    "SELECT count(*), sum(b) FROM t WHERE k < 3000 AND a > 10",
    "SELECT count(a), sum(a + k) FROM t WHERE k BETWEEN 1990 AND 2700 "
    "AND a * 2 < 40",
    "SELECT count(*) FROM t WHERE k > 4000 AND x > 1030.5",
    # key order, and TOP n on it
    "SELECT k, a, x FROM t WHERE k BETWEEN 2590 AND 2620 ORDER BY k",
    "SELECT k, a, x FROM t WHERE k BETWEEN 4170 AND 4190 ORDER BY k",
    "SELECT TOP (7) k, a, b FROM t WHERE k > 2394 ORDER BY k",
    "SELECT TOP (3) k, x FROM t WHERE k >= 4098 AND x > 1000 ORDER BY k",
]


def rounded(rows):
    """Each integer as the float64 a SUM answers with (goldens pin it)."""
    return [tuple(float(v) if type(v) is int else v for v in row)
            for row in rows]


def ordered(sql):
    return "ORDER BY" in sql


def answer(database, sql):
    result = Executor(database).execute(sql)
    rows = result.rows if ordered(sql) else sorted(result.rows, key=repr)
    return rows, dataclasses.asdict(result.metrics)


def expected(mirror, sql):
    """``sqlite3``'s answer, ``TOP (n)`` spelled as its ``LIMIT n``."""
    rows = mirror.execute(
        re.sub(r"TOP \((\d+)\) (.*)", r"\2 LIMIT \1", sql)).fetchall()
    return rows if ordered(sql) else sorted(rows, key=repr)


def test_designs_agree_with_sqlite_before_and_after_a_write(databases):
    mirror = sqlite_mirror([databases["heap"].table("t")])
    paged = databases["paged btree"].table("t").primary
    assert paged.is_paged
    for phase in ("before", "after"):
        for sql in STATEMENTS:
            want = expected(mirror, sql)
            metrics = {}
            for design in DESIGNS:
                got, metrics[design] = answer(databases[design], sql)
                if ordered(sql):
                    assert repr(got) == repr(want), (phase, design, sql)
                else:
                    assert rounded(got) == rounded(want), (phase, design, sql)
            # one clustered tree, resident or paged: one modeled cost
            assert metrics["btree"] == metrics["paged btree"], (phase, sql)
        assert paged.is_paged == (phase == "before")
        for design in DESIGNS:
            Executor(databases[design]).execute(WRITE)
        mirror.execute(WRITE)
    assert not paged.is_paged
    assert (state_digest(databases["btree"])
            == state_digest(databases["paged btree"]))
    for design in DESIGNS:
        assert check_database(databases[design]).ok, design


def test_secondary_design_seeks_the_covering_index(databases):
    """The premise of the ``secondary`` design: its statements read the
    covering index (all but the full scans and one the optimizer costs
    as a heap scan)."""
    executor = Executor(databases["secondary"])
    seeks = [sql for sql in STATEMENTS
             if "SEEK t via ix_k" in executor.explain(sql)]
    assert len(seeks) >= len(STATEMENTS) - 2


def test_clustered_leaves_hold_typed_and_object_columns(databases):
    """The premise of the suite: only the leaves holding the NULL block
    keep ``a`` (ordinal 1) as an object array."""
    leaf = databases["btree"].table("t").primary.tree._first_leaf
    kinds = []
    while leaf is not None:
        kinds.append((leaf.keys[0][0] in NULL_A or leaf.keys[-1][0] in NULL_A,
                      leaf.values.column(1).dtype.kind))
        leaf = leaf.next
    assert {kind for null, kind in kinds if not null} == {"i"}
    assert "O" in {kind for null, kind in kinds if null}

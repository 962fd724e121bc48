"""A join returns the same rows whatever the physical design of its
inner table: heap, clustered on the join column, clustered elsewhere
with a covering or a non-covering secondary B+ tree on it, primary
columnstore, primary columnstore plus that secondary — hot and cold —
and ``sqlite3`` agrees.

Every statement puts a predicate on ``fact``, the table a selective
``dim`` filter drives seeks into (the paper's hybrid plan, Section 5.3):
the index nested-loop join's inner seek has to apply it. ``INL`` names,
per statement, the designs whose plan must be that join, so the matrix
cannot silently stop covering it.
"""

import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.executor import Executor
from repro.storage.database import Database
from tests.oracle import sqlite_mirror

DESIGNS = ("heap", "btree_fk", "btree_y+cov", "btree_y+ix", "pri_csi",
           "pri_csi+ix")


def make_database(design):
    """``dim(dk, dv)`` 50 rows, ``tag(tk, tv)`` 7 rows and
    ``fact(fk, x, y, z, s)`` 20 000 rows, 400 per ``fk``; ``z`` and ``s``
    hold NULLs, and no secondary index includes them."""
    database = Database()
    database.create_table(TableSchema("dim", [
        Column("dk", INT, nullable=False), Column("dv", INT)])).bulk_load(
        [(i, i % 5) for i in range(50)])
    database.create_table(TableSchema("tag", [
        Column("tk", INT, nullable=False), Column("tv", INT)])).bulk_load(
        [(i, i % 2) for i in range(7)])
    fact = database.create_table(TableSchema("fact", [
        Column("fk", INT, nullable=False), Column("x", INT),
        Column("y", INT, nullable=False), Column("z", INT),
        Column("s", varchar(4)), Column("hk", INT, nullable=False)]))
    fact.bulk_load([(i % 50, i % 7, i, None if i % 11 == 0 else i % 5,
                     None if i % 13 == 0 else f"s{i % 3}", i % 2000)
                    for i in range(20_000)])
    if design == "btree_fk":
        fact.set_primary_btree(["fk"])
    elif design.startswith("btree_y"):
        fact.set_primary_btree(["y"])
    elif design.startswith("pri_csi"):
        fact.set_primary_columnstore()
    if design.endswith("+cov"):
        fact.create_secondary_btree("ix_fk", ["fk"], included_columns=["x", "y"])
    elif design.endswith("+ix"):
        fact.create_secondary_btree("ix_fk", ["fk"])
        fact.create_secondary_btree("ix_hk", ["hk"])
    return database


ON_FK = "FROM dim d JOIN fact f ON d.dk = f.fk WHERE"
ON_HK = "FROM dim d JOIN fact f ON d.dk = f.hk WHERE"
CLUSTERED, COVERED = ("btree_fk",), ("btree_fk", "btree_y+cov")
#: statement -> the designs whose plan is an INL join ("design:hot" or
#: "design:cold" where the optimizer chooses it at one temperature only).
STATEMENTS = {
    # The two that the nested-loop join answered without fact's
    # predicate: 800 for 4, and 400 rows for 57.
    f"SELECT count(*) {ON_FK} d.dk < 2 AND f.y < 100": CLUSTERED,
    f"SELECT d.dk, f.x, f.y {ON_FK} d.dk = 3 AND f.x = 2": COVERED,
    # range, IN with a NULL, OR, arithmetic, strings, nothing left
    f"SELECT d.dv, f.y {ON_FK} d.dk = 7 AND f.y BETWEEN 1000 AND 3000":
        COVERED,
    f"SELECT f.y, f.z {ON_FK} d.dk = 11 AND f.z IN (1, 3, NULL)": CLUSTERED,
    f"SELECT f.x, f.y {ON_FK} d.dk = 12 AND (f.x = 1 OR f.y > 19000)":
        COVERED,
    f"SELECT f.y {ON_FK} d.dk = 13 AND f.x + f.z > 8": CLUSTERED,
    f"SELECT count(*), sum(f.y) {ON_FK} d.dk = 14 AND f.s = 's1'": CLUSTERED,
    f"SELECT f.y {ON_FK} d.dk = 15 AND f.x != 3 AND f.y < 0":
        ("btree_fk", "btree_y+cov:cold"),
    # on the join column itself: sargable, so a seek feeds a hash join
    f"SELECT d.dk, f.y {ON_FK} d.dv = 1 AND f.fk >= 10 AND f.fk < 13 "
    "AND f.x = 0": (),
    # a conjunct over both aliases stays for the Filter above the join
    f"SELECT d.dk, f.x, f.y {ON_FK} d.dk = 4 AND f.x > d.dv AND f.y < 9000":
        COVERED,
    # ten rows per hk: worth a bookmark lookup per match
    f"SELECT f.y, f.z {ON_HK} d.dk = 9 AND f.z IN (4, NULL) AND f.x < 3":
        ("btree_y+ix", "pri_csi+ix:hot"),
    f"SELECT d.dk, f.s, f.x {ON_HK} d.dv = 2 AND f.s != 's0' AND f.y > 5000":
        ("btree_y+ix:hot",),
    # three tables: fact is the inner of one join and feeds the next
    "SELECT d.dk, f.y, t.tv FROM dim d JOIN fact f ON d.dk = f.fk "
    "JOIN tag t ON f.x = t.tk WHERE d.dk = 5 AND f.y < 6000 AND t.tv = 1":
        COVERED,
    "SELECT count(*) FROM tag t JOIN fact f ON t.tk = f.x "
    "JOIN dim d ON f.fk = d.dk WHERE t.tk = 2 AND d.dv = 3 AND f.y >= 500 "
    "AND f.z = 3": (),
}


@pytest.fixture(scope="module")
def databases():
    return {design: make_database(design) for design in DESIGNS}


@pytest.fixture(scope="module")
def mirror(databases):
    return sqlite_mirror(databases["heap"].tables())


@pytest.mark.parametrize("cold", (False, True), ids=("hot", "cold"))
@pytest.mark.parametrize("design", DESIGNS)
def test_joins_agree_with_sqlite_on_every_design(databases, mirror, design,
                                                  cold):
    executor = Executor(databases[design])
    for sql, inl_designs in STATEMENTS.items():
        result = executor.execute(sql, cold=cold)
        assert sorted(result.rows) == sorted(mirror.execute(sql).fetchall()), sql
        plan = result.plan.explain()
        assert ("INL JOIN" in plan) == bool(
            {design, f"{design}:{'cold' if cold else 'hot'}"}
            & set(inl_designs)), (sql, plan)


def test_the_matrix_reaches_what_it_claims(databases, mirror):
    """Every statement filters fact and keeps some of the join's rows
    but not all (one keeps none); the INL plans reach a clustered seek,
    a covering secondary and a bookmark lookup, under a Filter too."""
    kept_nothing = 0
    for sql in STATEMENTS:
        select, where = sql.split(" WHERE ")
        assert " f." in f" {where}"
        count = f"SELECT count(*) {select[select.index('FROM'):]} WHERE "
        kept, = mirror.execute(count + where).fetchone()
        everything, = mirror.execute(count + " AND ".join(
            conjunct for conjunct in where.split(" AND ")
            if "f." not in conjunct)).fetchone()
        assert kept < everything, sql
        kept_nothing += not kept
    assert kept_nothing == 1
    inl = [plan for design, database in databases.items()
           for sql in STATEMENTS
           for plan in [Executor(database).explain(sql)] if "INL JOIN" in plan]
    assert any("SEEK f via fact_pk_btree" in plan for plan in inl)
    assert any("SEEK f via ix_fk" in plan for plan in inl)
    assert any("SEEK f via ix_hk" in plan and "+lookup" in plan for plan in inl)
    assert any("FILTER (f.x > d.dv)" in plan for plan in inl)


def test_explain_analyze_shows_the_inner_predicate_at_the_seek(databases):
    assert "-> fact.ix_fk where (f.x = 2)) [row" in Executor(
        databases["btree_y+cov"]).explain_analyze(
        f"SELECT d.dk, f.x, f.y {ON_FK} d.dk = 3 AND f.x = 2").format()

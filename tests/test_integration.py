"""End-to-end integration tests: query correctness against Python
oracles across physical designs, DML consistency with all index types,
and smoke tests for the example scripts."""

import pathlib
import random
import runpy
import sys

import pytest

from repro.core.schema import Column, TableSchema
from repro.core.types import DATE, INT, decimal, varchar
from repro.engine.executor import Executor
from repro.storage.database import Database
from repro.workloads.tpch import generate_tpch
from tests.oracle import sqlite_mirror

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def tpch_db(scale=0.2):
    db = Database()
    generate_tpch(db, scale=scale, seed=13)
    return db


def oracle_rows(table):
    return [row for _, row in table.iter_rows()]


DESIGN_SETUPS = {
    "heap": lambda t: None,
    "btree": lambda t: t.set_primary_btree(["l_orderkey", "l_linenumber"]),
    "pri_csi": lambda t: t.set_primary_columnstore(rowgroup_size=4096),
    "hybrid": lambda t: (
        t.set_primary_btree(["l_orderkey", "l_linenumber"]),
        t.create_secondary_columnstore("csi", rowgroup_size=4096),
    ),
}


class TestCrossDesignCorrectness:
    @pytest.mark.parametrize("design", list(DESIGN_SETUPS))
    def test_q6_matches_oracle(self, design):
        db = tpch_db()
        DESIGN_SETUPS[design](db.table("lineitem"))
        executor = Executor(db)
        result = executor.execute(
            "SELECT sum(l_extendedprice * l_discount) revenue "
            "FROM lineitem WHERE l_shipdate BETWEEN '1994-01-01' AND "
            "'1994-12-31' AND l_discount BETWEEN 0.05 AND 0.07 "
            "AND l_quantity < 24")
        import datetime
        from repro.core.types import date_to_int
        low = date_to_int(datetime.date(1994, 1, 1))
        high = date_to_int(datetime.date(1994, 12, 31))
        expected = sum(
            row[5] * row[6] for row in oracle_rows(db.table("lineitem"))
            if low <= row[10] <= high and 0.05 <= row[6] <= 0.07
            and row[4] < 24)
        got = result.scalar()
        if expected == 0:
            assert got in (0, None)
        else:
            assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("design", list(DESIGN_SETUPS))
    def test_group_by_matches_oracle(self, design):
        db = tpch_db()
        DESIGN_SETUPS[design](db.table("lineitem"))
        executor = Executor(db)
        result = executor.execute(
            "SELECT l_returnflag, count(*) c, sum(l_quantity) q "
            "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag")
        expected = {}
        for row in oracle_rows(db.table("lineitem")):
            flag = row[8]
            count, quantity = expected.get(flag, (0, 0.0))
            expected[flag] = (count + 1, quantity + row[4])
        assert len(result.rows) == len(expected)
        for flag, count, quantity in result.rows:
            assert expected[flag][0] == count
            assert expected[flag][1] == pytest.approx(quantity)

    def test_join_consistent_across_designs(self):
        sql = ("SELECT n.n_name, count(*) c FROM customer c "
               "JOIN nation n ON c.c_nationkey = n.n_nationkey "
               "GROUP BY n.n_name ORDER BY n.n_name")
        results = []
        for build_csi in (False, True):
            db = tpch_db()
            db.table("customer").set_primary_btree(["c_custkey"])
            db.table("nation").set_primary_btree(["n_nationkey"])
            if build_csi:
                db.table("customer").create_secondary_columnstore("csi_c")
            results.append(Executor(db).execute(sql).rows)
        assert results[0] == results[1]


    @pytest.mark.parametrize("design", list(DESIGN_SETUPS))
    @pytest.mark.parametrize("encoded", [True, False])
    def test_aggregates_over_no_rows_match_sqlite(self, design, encoded):
        """A scalar aggregate answers one row over an empty input and a
        GROUP BY none, whatever the design and execution mode (the engine
        used to return no row for the first; found by the PR 12 oracle)."""
        db = tpch_db(scale=0.05)
        table = db.table("lineitem")
        DESIGN_SETUPS[design](table)
        oracle = sqlite_mirror([table])
        executor = Executor(db)
        executor.encoded_execution = encoded
        for sql in (
            "SELECT count(*) FROM lineitem WHERE l_orderkey < 0",
            "SELECT count(*), count(l_quantity), sum(l_quantity), "
            "avg(l_quantity), min(l_returnflag), max(l_linenumber) "
            "FROM lineitem WHERE l_orderkey < 0",
            "SELECT sum(l_quantity) FROM lineitem "
            "WHERE l_orderkey < 0 AND l_returnflag = 'R'",
            "SELECT l_returnflag, count(*) FROM lineitem "
            "WHERE l_orderkey < 0 GROUP BY l_returnflag",
            "SELECT DISTINCT l_returnflag FROM lineitem "
            "WHERE l_orderkey < 0",
            "SELECT count(*), max(l_linenumber) FROM lineitem "
            "WHERE l_orderkey = 1",
        ):
            assert executor.execute(sql).rows \
                == oracle.execute(sql).fetchall(), sql


NOT_PREDICATES = (
    "NOT (a = 10)",
    "NOT a < 11",
    "NOT (a = 10 AND s = 'x')",
    "NOT (a = 10 OR s = 'x')",
    "NOT (a BETWEEN 10 AND 11)",
    "NOT (a IN (10, 11))",
    "NOT (a IN (10, NULL))",
    "NOT NOT (a = 10)",
    "NOT (NOT (a = 10) AND s = 'x')",
    "NOT (a BETWEEN 10 AND 11 OR NOT s = 'x') AND k > 1",
)


class TestNotOverUnknown:
    """``NOT`` over a comparison with NULL is unknown, not true: the row
    is not selected, updated or deleted (the engine used to keep it:
    ``NOT (a = 10)`` returned the rows whose ``a`` is NULL)."""

    ROWS = [(k, a, s)
            for k, (a, s) in enumerate(
                (a, s) for _ in range(40)
                for a in (10, None, 11, 12) for s in ("x", None, "y"))]

    @pytest.mark.parametrize("encoded", [True, False])
    @pytest.mark.parametrize("design", ["heap", "btree", "pri_csi"])
    def test_select_update_delete_match_sqlite(self, design, encoded):
        db = Database()
        table = db.create_table(TableSchema("t", [
            Column("k", INT, nullable=False), Column("a", INT),
            Column("s", varchar(4))]))
        table.bulk_load(self.ROWS)
        if design == "btree":
            table.set_primary_btree(["k"])
        elif design == "pri_csi":
            table.set_primary_columnstore(rowgroup_size=128)
        oracle = sqlite_mirror([table])
        executor = Executor(db)
        executor.encoded_execution = encoded
        everything = "SELECT k, a, s FROM t ORDER BY k"
        for predicate in NOT_PREDICATES:
            select = f"SELECT k FROM t WHERE {predicate} ORDER BY k"
            assert executor.execute(select).rows \
                == oracle.execute(select).fetchall(), predicate
        for predicate in NOT_PREDICATES:
            for dml in (f"UPDATE t SET a = 13 WHERE k < 300 AND {predicate}",
                        f"DELETE FROM t WHERE k >= 300 AND {predicate}"):
                executor.execute(dml)
                oracle.execute(dml)
                assert executor.execute(everything).rows \
                    == oracle.execute(everything).fetchall(), dml


class TestDmlConsistencyAcrossIndexes:
    def make_hybrid(self):
        db = tpch_db(scale=0.1)
        lineitem = db.table("lineitem")
        lineitem.set_primary_btree(["l_orderkey", "l_linenumber"])
        lineitem.create_secondary_btree("ix_ship", ["l_shipdate"])
        lineitem.create_secondary_columnstore("csi", rowgroup_size=2048)
        return db

    def test_update_visible_through_every_access_path(self):
        db = self.make_hybrid()
        executor = Executor(db)
        executor.execute(
            "UPDATE TOP (20) lineitem SET l_quantity = 999 "
            "WHERE l_shipdate >= '1992-01-01'")
        # Count through the CSI (scan) and through the B+ tree (seek).
        csi_count = executor.execute(
            "SELECT count(*) FROM lineitem WHERE l_quantity = 999").scalar()
        assert csi_count == 20

    def test_delete_then_totals_consistent(self):
        db = self.make_hybrid()
        executor = Executor(db)
        before = executor.execute("SELECT count(*) FROM lineitem").scalar()
        deleted = executor.execute(
            "DELETE FROM lineitem WHERE l_shipdate < '1992-06-01'")
        after = executor.execute("SELECT count(*) FROM lineitem").scalar()
        assert after == before - deleted.rows_affected

    def test_insert_visible_everywhere(self):
        db = self.make_hybrid()
        executor = Executor(db)
        executor.execute(
            "INSERT INTO lineitem VALUES (999999, 1, 1, 1, 5.0, 100.0, "
            "0.01, 0.02, 'N', 'O', '1997-05-05', '1997-06-01', "
            "'1997-06-10', 'NONE', 'AIR', 'inserted')")
        assert executor.execute(
            "SELECT count(*) FROM lineitem WHERE l_orderkey = 999999"
        ).scalar() == 1


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "whatif_exploration.py",
    "hybrid_plans.py",
])
def test_example_scripts_run(script, capsys):
    """Smoke-run the fast example scripts end to end."""
    path = EXAMPLES_DIR / script
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100

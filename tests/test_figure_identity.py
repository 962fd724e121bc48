"""Figure-output identity: durability must be invisible by default.

The simulator is the default backend; every paper figure and demo
output must be byte-identical whether or not the durability subsystem
has ever been exercised in the process, and a durable database must
report exactly the same modeled metrics as its in-memory twin.
"""

import contextlib
import io
import pathlib

from repro.__main__ import main
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.executor import Executor
from repro.storage.database import Database
from repro.workloads.synthetic import make_uniform_table, q1_scan

RESULTS = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def exercise_durability(tmp_path):
    """Run a full durability round trip (snapshot + WAL + recovery) so
    any global side effect it might have would poison the re-run."""
    from repro.storage.recovery import recover

    database = Database("side")
    table = database.create_table(TableSchema("s", [
        Column("a", INT, nullable=False), Column("t", varchar(4))]))
    table.bulk_load([(i, "x") for i in range(300)])
    table.set_primary_btree(["a"])
    table.create_secondary_columnstore("csi_s", rowgroup_size=64)
    database.enable_durability(str(tmp_path))
    executor = Executor(database)
    executor.execute("INSERT INTO s (a, t) VALUES (900, 'y')")
    executor.execute("DELETE FROM s WHERE a < 10")
    database.checkpoint()
    _, report = recover(str(tmp_path))
    assert report.check_ok
    database.wal.close()


class TestFigureIdentity:
    def test_micro_selectivity_output_identical(self, tmp_path):
        argv = ["micro", "--experiment", "selectivity", "--rows", "4000"]
        before = capture(argv)
        exercise_durability(tmp_path / "d1")
        after = capture(argv)
        assert before == after
        assert "Figure 1" in before

    def test_micro_updates_output_identical(self, tmp_path):
        argv = ["micro", "--experiment", "updates", "--rows", "4000"]
        before = capture(argv)
        exercise_durability(tmp_path / "d1")
        after = capture(argv)
        assert before == after
        assert "Figure 5" in before

    def test_demo_output_identical(self, tmp_path):
        before = capture(["demo"])
        exercise_durability(tmp_path / "d1")
        after = capture(["demo"])
        assert before == after

    def test_durable_database_metrics_identical(self, tmp_path):
        """The same statements on a durable database and its in-memory
        twin produce identical rows and identical modeled metrics —
        logging must never leak into the cost model."""
        def build():
            database = Database("twin")
            table = database.create_table(TableSchema("t", [
                Column("a", INT, nullable=False), Column("b", INT)]))
            table.bulk_load([(i, i % 7) for i in range(2000)])
            table.set_primary_btree(["a"])
            table.create_secondary_columnstore("csi_t", rowgroup_size=256)
            return database

        plain, durable = build(), build()
        durable.enable_durability(str(tmp_path))
        statements = [
            "INSERT INTO t (a, b) VALUES (5000, 1), (5001, 2)",
            "UPDATE t SET b = 9 WHERE a BETWEEN 100 AND 160",
            "DELETE FROM t WHERE a < 30",
            "SELECT sum(b) FROM t WHERE a BETWEEN 0 AND 1500",
            "SELECT count(*) FROM t",
        ]
        ex_plain, ex_durable = Executor(plain), Executor(durable)
        for sql in statements:
            lhs, rhs = ex_plain.execute(sql), ex_durable.execute(sql)
            assert lhs.rows == rhs.rows
            assert lhs.metrics.elapsed_ms == rhs.metrics.elapsed_ms
            assert lhs.metrics.cpu_ms == rhs.metrics.cpu_ms
            assert lhs.metrics.data_read_mb == rhs.metrics.data_read_mb
            assert lhs.metrics.data_written_mb == rhs.metrics.data_written_mb

    def test_zero_row_q1_is_the_committed_figure_point(self):
        """Figures 1 and 2's zero-row B+ tree point, on the figures'
        500 000-row clustered table: Q1 at selectivity 0 reads no row
        and answers one, a NULL sum. The committed figure files print
        its times, so an engine change that moves them fails here."""
        database = Database()
        make_uniform_table(database, "micro", 500_000, 1, seed=5)
        database.table("micro").set_primary_btree(["col1"])
        executor = Executor(database)
        hot = executor.execute(q1_scan(0.0))
        cold = executor.execute(q1_scan(0.0), cold=True)
        assert hot.rows == cold.rows == [(None,)]
        assert round(cold.metrics.elapsed_ms, 3) == 1.572
        assert round(hot.metrics.elapsed_ms, 3) == 0.072
        assert round(hot.metrics.cpu_ms, 3) == 0.072
        # sel% | btree cold | CSI cold | btree hot | CSI hot | btree CPU
        fig1 = (RESULTS / "fig1_selectivity.txt").read_text().splitlines()
        cells = [cell.strip() for cell in fig1[3].split("|")]
        assert [cells[i] for i in (0, 1, 3, 5)] \
            == ["0", "1.572", "0.072", "0.072"]
        # sel% | btree ms (cold)
        fig2 = (RESULTS / "fig2_data_skipping.txt").read_text().splitlines()
        assert [cell.strip() for cell in fig2[3].split("|")][:2] \
            == ["0", "1.572"]

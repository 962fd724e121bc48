"""A ``?`` value that is not a number, string, date or NULL is one typed
error on every design.

A NaN compares false with everything, so each design made of it what
its comparison happened to do: ``k = ?`` with NaN counted 88 rows on a
clustered B+ tree (the seek's bisection landed somewhere), 260 on a
heap with a secondary B+ tree, and none on a heap or a columnstore;
``k < ?`` counted every row on B+ and columnstore designs and none on a
heap; and ``DELETE … WHERE k = ?`` deleted those 88 or 260 rows. A list
value deleted the ``k = 3`` row of a heap and raised a bare
``TypeError`` elsewhere. ``sqlite3`` binds NaN as NULL. ``fill`` now
refuses such a value with ``SqlError`` naming its position, before any
design sees it, in-process and over the frontend's JSON lines alike
(``json.loads`` accepts ``NaN``).
"""

import json
import socket

import numpy as np
import pytest

from repro.core.errors import SqlError
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal
from repro.engine.executor import Executor
from repro.server.frontend import ReproServer
from repro.server.session import SessionManager
from repro.storage.database import Database

N_ROWS = 2000
DESIGNS = ("heap", "btree", "heap_sec_btree", "pri_csi", "sorted_sec_csi")
EVERYTHING = "SELECT k, a, d FROM t ORDER BY k"
STATEMENTS = ("SELECT count(*) FROM t WHERE k = ?",
              "SELECT count(*) FROM t WHERE k < ?",
              "SELECT count(*) FROM t WHERE d = ?",
              "DELETE FROM t WHERE k = ?",
              "UPDATE t SET a = 0 WHERE k = ?")
BAD_VALUES = (float("nan"), np.float64("nan"), [3], (3,), {"k": 3}, b"3",
              3j)


def make_database(design):
    database = Database()
    table = database.create_table(TableSchema("t", [
        Column("k", INT, nullable=False), Column("a", BIGINT, nullable=False),
        Column("d", decimal(2))]))
    rng = np.random.default_rng(7)
    keys = rng.permutation(N_ROWS)
    table.bulk_load([(int(k), int(k) * 3, float(k % 97) / 4) for k in keys])
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "heap_sec_btree":
        table.create_secondary_btree("ix_k", ["k"])
    elif design == "pri_csi":
        table.set_primary_columnstore(rowgroup_size=512)
    elif design == "sorted_sec_csi":
        table.create_secondary_columnstore(
            "csi", rowgroup_size=512, sorted_on="k")
    return database


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("sql", STATEMENTS)
@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_bad_value_is_a_sql_error(design, sql, value):
    executor = Executor(make_database(design))
    before = executor.execute(EVERYTHING).rows
    with pytest.raises(SqlError, match="^parameter 1 "):
        executor.execute(sql, [value])
    assert executor.execute(EVERYTHING).rows == before


@pytest.mark.parametrize("design", DESIGNS)
def test_error_names_the_position(design):
    executor = Executor(make_database(design))
    with pytest.raises(SqlError, match="^parameter 2 "):
        executor.execute("SELECT count(*) FROM t WHERE k > ? AND k < ?",
                         [3, float("nan")])


@pytest.mark.parametrize("design", DESIGNS)
def test_good_values_still_answer(design):
    executor = Executor(make_database(design))
    count = "SELECT count(*) FROM t WHERE k < ?"
    for value, expected in ((3, 3), (3.5, 4), (True, 1), (np.int64(3), 3),
                            (float("inf"), N_ROWS), (None, 0)):
        assert executor.execute(count, [value]).rows == [(expected,)], value


@pytest.mark.parametrize("design", DESIGNS)
def test_frontend_refuses_nan(design):
    database = make_database(design)
    before = Executor(database).execute(EVERYTHING).rows
    with SessionManager(database) as manager:
        server = ReproServer(manager, host="127.0.0.1", port=0)
        server.serve_background()
        try:
            with socket.create_connection(server.server_address,
                                          timeout=10) as conn:
                reader = conn.makefile("r", encoding="utf-8")
                assert json.loads(reader.readline())["ok"]
                for sql in STATEMENTS:
                    line = json.dumps({"sql": sql, "params": [float("nan")]})
                    assert "NaN" in line
                    conn.sendall(line.encode("utf-8") + b"\n")
                    reply = json.loads(reader.readline())
                    assert not reply["ok"], sql
                    assert reply["error"].startswith("parameter 1 "), sql
        finally:
            server.shutdown()
            server.server_close()
    assert Executor(database).execute(EVERYTHING).rows == before

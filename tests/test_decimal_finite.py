"""A DECIMAL column holds finite values only, on every design.

NaN, ``inf`` and ``-inf`` written to a DECIMAL column are a
:class:`SchemaError` on ``bulk_load``, INSERT and UPDATE alike — the
error an out-of-range integer gets — and the refused statement leaves
the database as it found it (same ``state_digest``), so a columnstore
can still be built over the table. A float product that overflows is an
infinity without numpy's ``RuntimeWarning`` (which pytest turns into an
error here): a SELECT returns it, a write refuses it.
"""

import math

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal
from repro.engine.executor import Executor
from repro.storage.database import Database
from repro.storage.recovery import state_digest

SCHEMA = TableSchema("t", [Column("k", INT, nullable=False),
                           Column("f", decimal(2))])
DESIGNS = ["heap", "btree", "csi"]
NON_FINITE = [math.nan, math.inf, -math.inf]
BIG = 1e200


def build(design, rows):
    database = Database(design)
    table = database.create_table(SCHEMA)
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=64)
    if rows:
        table.bulk_load(rows)
    return database


def still_compresses(database):
    """The table's rows still build a columnstore, which a stored
    non-finite value made fail with a bare ValueError/OverflowError."""
    table = database.table("t")
    if table.primary.kind == "csi":
        table.primary.rebuild()
    else:
        table.set_primary_columnstore(rowgroup_size=64)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_bulk_load_refuses(design, value):
    database = build(design, [])
    before = state_digest(database)
    with pytest.raises(SchemaError, match="not a finite DECIMAL"):
        database.table("t").bulk_load([(1, 2.5), (2, value)])
    assert state_digest(database) == before
    still_compresses(database)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_insert_refuses(design, value):
    database = build(design, [(k, k / 4) for k in range(100)])
    table = database.table("t")
    before = state_digest(database)
    with pytest.raises(SchemaError, match="not a finite DECIMAL"):
        table.insert_row((1000, value))
    assert state_digest(database) == before
    if not math.isnan(value):       # a NaN parameter is refused earlier
        with pytest.raises(SchemaError, match="not a finite DECIMAL"):
            Executor(database).execute("INSERT INTO t VALUES (?, ?)",
                                       (1000, value))
        assert state_digest(database) == before
    still_compresses(database)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("sql", [
    "UPDATE t SET f = f * f WHERE k < 5",
    "UPDATE t SET f = f * -f WHERE k >= 95",
    "UPDATE t SET f = f * f - f * f WHERE k = 50",
])
def test_overflowing_update_refuses(design, sql):
    database = build(design, [(k, BIG) for k in range(100)])
    before = state_digest(database)
    with pytest.raises(SchemaError, match="not a finite DECIMAL"):
        Executor(database).execute(sql)
    assert state_digest(database) == before
    still_compresses(database)


@pytest.mark.parametrize("design", DESIGNS)
def test_overflowing_select_is_infinite(design):
    database = build(design, [(k, BIG) for k in range(100)])
    rows = Executor(database).execute(
        "SELECT max(f * f), min(f * -f) FROM t WHERE k < 10").rows
    assert rows == [(math.inf, -math.inf)]

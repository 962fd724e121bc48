"""The heap as a rid-keyed tree of columnar leaves.

A Hypothesis state machine edits a heap (inserts, rids below the
high-water mark included, deletes, updates and bulk builds) at small
leaf capacities, so leaves split, borrow and merge, against a dict of
row tuples. End to end, UPDATE and DELETE located by a heap scan run
against ``sqlite3`` over a heap table holding NULLs, and a snapshot
reopen and a WAL-redo reopen end in the in-memory state.
"""

import re
from unittest import mock

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.errors import StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.engine.batch import _column_array, batch_column
from repro.engine.executor import Executor
from repro.storage import heap as heap_module
from repro.storage.checker import check_database
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from repro.storage.records import Records
from repro.storage.recovery import state_digest
from tests.oracle import examples, sqlite_mirror

# ======================================== the heap against a dict model

#: A field of a heap row: int (validation keeps them in int64), float,
#: str or NULL, mostly ints so typed columns are common and the others
#: are edits a leaf must absorb.
FIELD = (st.integers(-5, 5) | st.integers(-2 ** 63, 2 ** 63 - 1)
         | st.floats(allow_nan=False) | st.text(max_size=2) | st.none())
RIDS = st.integers(0, 80)
WIDTH = 3


def lossless_kind(values):
    """The dtype kind the lossless rule allows for these values."""
    kinds = {type(value) for value in values}
    return "i" if kinds == {int} else "f" if kinds == {float} else "O"


class HeapMachine(RuleBasedStateMachine):
    """A heap with leaf capacity 4-8 against ``{rid: row}``. ``repr``
    tells 1 from 1.0, and -0.0 from 0.0."""

    SCHEMA = TableSchema("h", [Column(f"c{i}", INT) for i in range(WIDTH)])

    @initialize(capacity=st.integers(4, 8),
                bulk=st.dictionaries(RIDS, st.tuples(FIELD, FIELD, FIELD),
                                     max_size=40))
    def build(self, capacity, bulk):
        self.capacity = mock.patch.object(heap_module, "SCAN_CHUNK_ROWS",
                                          capacity)
        self.capacity.start()
        self.bulk_build(bulk)

    def teardown(self):
        self.capacity.stop()

    def bulk_build(self, rows):
        rids = sorted(rows)
        self.heap = HeapFile("h", self.SCHEMA)
        self.heap.load(rids, [rows[rid] for rid in rids])
        self.model = dict(rows)

    @rule(rid=RIDS, row=st.tuples(FIELD, FIELD, FIELD))
    def insert(self, rid, row):
        if rid in self.model:
            with pytest.raises(StorageError, match="duplicate rid"):
                self.heap.insert(rid, row)
            return
        self.heap.insert(rid, row)
        self.model[rid] = row

    @rule(rid=RIDS)
    def delete(self, rid):
        row = self.model.pop(rid, None)
        if row is None:
            with pytest.raises(StorageError, match="not in heap"):
                self.heap.delete(rid, ())
            return
        self.heap.delete(rid, row)

    @rule(rid=RIDS, row=st.tuples(FIELD, FIELD, FIELD))
    def update(self, rid, row):
        if rid not in self.model:
            with pytest.raises(StorageError, match="not in heap"):
                self.heap.update(rid, (), row)
            return
        self.heap.update(rid, self.model[rid], row)
        self.model[rid] = row

    @rule()
    def rebuild(self):
        """A whole-heap build from the current rows, as restore and
        ``set_primary_heap`` make one; a second load is refused."""
        self.bulk_build(dict(self.model))
        if self.model:
            with pytest.raises(StorageError, match="non-empty heap"):
                self.heap.load([81], [(1, 2, 3)])

    @rule(rid=RIDS)
    def fetch(self, rid):
        if rid in self.model:
            assert repr(self.heap.fetch(rid)) == repr(self.model[rid])
        else:
            with pytest.raises(StorageError, match="not in heap"):
                self.heap.fetch(rid)

    @invariant()
    def matches_the_model(self):
        self.heap.tree.check_invariants()
        assert len(self.heap) == len(self.model)
        chunks = list(self.heap.scan())
        assert repr([pair for rids, values in chunks
                     for pair in zip(rids, values)]) == repr(
            sorted(self.model.items()))
        for rids, values in chunks:
            assert 0 < len(rids) == len(values) <= self.capacity.new
            assert isinstance(values, Records) and values.width == WIDTH
            rows = [self.model[rid] for rid in rids]
            for ordinal in range(WIDTH):
                column = values.column(ordinal)
                stored = [row[ordinal] for row in rows]
                assert column.dtype.kind in ("O", lossless_kind(stored))
                # What a scan batches from the chunk is what pivoting
                # its rows gives: dtype, values and their Python types.
                built = batch_column([column])
                pivoted = _column_array(stored)
                assert built.dtype == pivoted.dtype
                assert repr(built.tolist()) == repr(pivoted.tolist())


TestHeapAgainstModel = HeapMachine.TestCase
TestHeapAgainstModel.settings = settings(examples(60),
                                         stateful_step_count=40)


# =============================== end to end: heap DML against sqlite3

N = 9000
SCHEMA = TableSchema("t", [
    Column("k", INT, nullable=False), Column("a", INT),
    Column("x", decimal(2)), Column("s", varchar(4))])


def rows():
    """``a`` is NULL in every third row of one block, ``x`` in every row
    of another: a NULL or a str makes a leaf's column an object array,
    so scans cross typed and object leaves."""
    return [(k, None if 3000 <= k < 3600 and k % 3 == 0 else k * 7 % 101 - 50,
             None if 7000 <= k < 7100 else k / 4, f"s{k % 5}")
            for k in range(N)]


#: UPDATE and DELETE with residuals and TOP, none of which a seek can
#: serve: the table is a heap with no index.
DML = [
    "UPDATE t SET a = a + k WHERE a > 20 AND x < 900",
    "DELETE FROM t WHERE a < -45 OR s = 's3'",
    "UPDATE TOP (5) t SET x = x * 2, s = 'top' WHERE a < 0 AND k > 2990",
    "DELETE TOP 7 FROM t WHERE x > 1740 AND k < 7050",
    "UPDATE t SET a = k, s = 'nul' WHERE x > 1749",
    "DELETE FROM t WHERE k BETWEEN 100 AND 4200 AND a = 3",
    "UPDATE TOP (4) t SET a = a * 2 WHERE s = 'nul'",
]

QUERIES = [
    "SELECT k, a, x, s FROM t ORDER BY k",
    "SELECT count(*), count(a), count(x), sum(a), sum(x) FROM t",
    "SELECT k, a FROM t WHERE a > 40 AND x < 1000 ORDER BY k",
]


def rounded(rows):
    """Each integer as the float64 a SUM answers with."""
    return repr([tuple(float(v) if type(v) is int else v for v in row)
                 for row in rows])


def as_sqlite(sql):
    """``sqlite3`` has no TOP: pick the first ``n`` matches in rid order
    (the mirror inserted the rows in it, so rowid order is rid order),
    which is the order a heap scan finds them in."""
    top = re.match(r"(UPDATE|DELETE) TOP \(?(\d+)\)? (?:FROM )?t (.*)"
                   r"WHERE (.*)", sql)
    if top is None:
        return sql
    verb, n, middle, where = top.groups()
    head = "UPDATE t " + middle if verb == "UPDATE" else "DELETE FROM t "
    return (f"{head}WHERE rowid IN (SELECT rowid FROM t WHERE {where} "
            f"ORDER BY rowid LIMIT {n})")


def test_heap_dml_agrees_with_sqlite_and_survives_reopen(tmp_path):
    database = Database("heap")
    table = database.create_table(SCHEMA)
    table.bulk_load(rows())
    assert isinstance(table.primary, HeapFile)
    mirror = sqlite_mirror([table])
    directory = str(tmp_path / "snap")
    database.enable_durability(directory)
    executor = Executor(database)
    for sql in DML:
        with mock.patch.object(HeapFile, "scan", autospec=True,
                               side_effect=HeapFile.scan) as scan:
            changed = executor.execute(sql).rows_affected
        assert scan.call_count == 1, sql      # located by a heap scan
        assert changed == mirror.execute(as_sqlite(sql)).rowcount > 0, sql
        for query in QUERIES:
            assert rounded(executor.execute(query).rows) == rounded(
                mirror.execute(query).fetchall()), (sql, query)
    assert check_database(database).ok
    digest = state_digest(database)

    # WAL redo: every statement above replays on the opening snapshot.
    redone = Database.open(directory)
    assert redone.last_recovery.ops_replayed > 0
    assert state_digest(redone) == digest
    assert check_database(redone).ok
    redone.checkpoint()
    redone.close()

    # Snapshot: the checkpoint holds the state, the log nothing more.
    reopened = Database.open(directory)
    assert reopened.last_recovery.ops_replayed == 0
    assert state_digest(reopened) == digest
    assert check_database(reopened).ok
    assert repr(Executor(reopened).execute(QUERIES[0]).rows) == repr(
        mirror.execute(QUERIES[0]).fetchall())
    reopened.close()
    database.close()

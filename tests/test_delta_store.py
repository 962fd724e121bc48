"""The columnstore delta store as a rid-keyed tree of columnar leaves.

A Hypothesis state machine runs DML through a table with a primary
columnstore and a table with a secondary one (so updates of compressed
rows leave delta-store shadow slots behind buffered deletes), plus the
tuple mover, delete-buffer compaction, REBUILD and a snapshot round
trip, at delta leaf capacities 4-8 so leaves split, borrow and merge,
against a dict of row tuples.
"""

from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.engine.batch import _column_array, batch_to_rows
from repro.storage import columnstore as columnstore_module
from repro.storage.checker import check_table
from repro.storage.columnstore import RID_COLUMN
from repro.storage.database import Database
from repro.storage.pages import load_snapshot, snapshot_bytes
from tests.oracle import examples

#: A row: an int (ints beyond 2**53 included), a float and a str, each
#: NULL at times, so a leaf's column is typed or an object array. A
#: float is never -0.0: a row group's run-length encoding keeps one of
#: two equal values, and ``repr`` tells them apart.
ROW = st.tuples(
    st.integers(-5, 5) | st.integers(-2 ** 63, 2 ** 63 - 1) | st.none(),
    st.floats(-1e9, 1e9).map(lambda f: f + 0.0) | st.none(),
    st.text(max_size=4) | st.none(),
)
ROWGROUP = 64


def schema(name):
    return TableSchema(name, [Column("k", INT), Column("x", decimal(2)),
                              Column("s", varchar(4))])


def lossless_kind(values):
    """The dtype kind the lossless rule allows for these values."""
    kinds = {type(value) for value in values}
    return "i" if kinds == {int} else "f" if kinds == {float} else "O"


class DeltaStoreMachine(RuleBasedStateMachine):
    """Tables ``p`` (primary CSI) and ``s`` (heap plus secondary CSI)
    take the same statements; both must always hold ``{rid: row}``."""

    @initialize(capacity=st.integers(4, 8),
                bulk=st.lists(ROW, max_size=2 * ROWGROUP + 10))
    def build(self, capacity, bulk):
        self.capacity = mock.patch.object(
            columnstore_module, "SCAN_CHUNK_ROWS", capacity)
        self.capacity.start()
        self.db = Database()
        primary = self.db.create_table(schema("p"))
        primary.bulk_load(bulk)
        primary.set_primary_columnstore(rowgroup_size=ROWGROUP)
        secondary = self.db.create_table(schema("s"))
        secondary.bulk_load(bulk)
        secondary.create_secondary_columnstore("csi_s",
                                               rowgroup_size=ROWGROUP)
        self.model = dict(primary.iter_rows())

    def teardown(self):
        self.capacity.stop()

    def tables(self):
        return [self.db.table("p"), self.db.table("s")]

    def indexes(self):
        return [table.columnstore_index() for table in self.tables()]

    def some_rids(self, data):
        return data.draw(st.lists(st.sampled_from(sorted(self.model)),
                                  unique=True, min_size=1, max_size=6))

    @rule(rows=st.lists(ROW, min_size=1, max_size=12))
    def insert(self, rows):
        for row in rows:
            rids = {table.insert_row(row) for table in self.tables()}
            (rid,) = rids
            self.model[rid] = schema("p").validate_row(row)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        rids = self.some_rids(data)
        for table in self.tables():
            assert table.delete_rids(rids) == len(rids)
        for rid in rids:
            del self.model[rid]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def update(self, data):
        """Updates of compressed rows leave shadow slots in ``s``'s
        delta store."""
        rids = self.some_rids(data)
        rows = data.draw(st.lists(ROW, min_size=len(rids),
                                  max_size=len(rids)))
        for table in self.tables():
            table.update_rids(list(zip(rids, rows)))
        for rid, row in zip(rids, rows):
            self.model[rid] = schema("p").validate_row(row)

    @rule()
    def move_tuples(self):
        for index in self.indexes():
            index.move_tuples()
            assert index.delta_rows == 0

    @rule()
    def compact_delete_buffer(self):
        for index in self.indexes():
            index.compact_delete_buffer()
            assert index.delete_buffer_rows == 0

    @rule()
    def rebuild(self):
        for index in self.indexes():
            index.rebuild()
            assert index.delta_rows == index.delete_buffer_rows == 0

    @rule()
    def snapshot_round_trip(self):
        """The delta store comes back through ``restore_side_state``
        (a ``from_columns`` build) and saves to the same bytes."""
        before = snapshot_bytes(self.db)
        self.db, _ = load_snapshot(before)
        assert snapshot_bytes(self.db) == before

    @invariant()
    def matches_the_model(self):
        expected = repr(sorted(self.model.items()))
        for table, index in zip(self.tables(), self.indexes()):
            names = list(index.columns)
            scanned = [(row[-1], row[:-1]) for batch in
                       index.scan(names, include_rids=True)
                       for row in batch_to_rows(batch, names + [RID_COLUMN])]
            assert repr(sorted(scanned)) == expected
            result = check_table(table)
            assert result.ok, result.summary()
            self.check_delta(index)

    def check_delta(self, index):
        index._delta.check_invariants()
        rids = []
        for keys, values in index._delta.leaf_chunks():
            assert 0 < len(keys) == len(values) <= self.capacity.new
            rids += keys
            for ordinal in range(values.width):
                stored = [self.model[rid][ordinal] for rid in keys]
                assert values.column(ordinal).dtype.kind in (
                    "O", lossless_kind(stored))
        batch = index._delta_batch(index.columns, include_rids=True)
        if not rids:
            assert batch is None
            return
        assert batch.column(RID_COLUMN).tolist() == rids == sorted(rids)
        for ordinal, name in enumerate(index.columns):
            # A delta batch column is what pivoting the rows gives:
            # dtype, values and their Python types.
            built = batch.column(name)
            pivoted = _column_array([self.model[rid][ordinal]
                                     for rid in rids])
            assert built.dtype == pivoted.dtype
            assert repr(built.tolist()) == repr(pivoted.tolist())


TestDeltaStoreAgainstModel = DeltaStoreMachine.TestCase
TestDeltaStoreAgainstModel.settings = settings(examples(40),
                                               stateful_step_count=30)

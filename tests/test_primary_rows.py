"""The primary structure is the table: every rid read goes to it.

A Hypothesis state machine runs the same statements through a heap, a
clustered B+ tree and a primary columnstore table, each with a
non-covering secondary B+ tree (and the first two with a secondary
columnstore), plus primary conversions, the tuple mover, REBUILD and
eager and paged snapshot round trips, against a dict of row tuples.
After every step each table's rid reads — ``get_row``, ``has_rid``,
``len``, the rid-ordered read and ``lookup_columns`` — give the
model's rows, compared by ``repr`` so the Python types count, and
``check_table`` is clean.
"""

import os
import shutil
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal, varchar
from repro.engine.batch import batch_column
from repro.storage import columnstore as columnstore_module
from repro.storage import heap as heap_module
from repro.storage.btree import PrimaryBTreeIndex
from repro.storage.bufferpool import BufferPool
from repro.storage.checker import check_table
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.compression import (ENCODING_BITPACK, ENCODING_DICT,
                                       ENCODING_RAW, ENCODING_RLE,
                                       Dictionary, encode_segment)
from repro.storage.database import Database
from repro.storage.pages import (load_snapshot, load_snapshot_paged,
                                 snapshot_bytes)
from repro.storage.records import lossless_array
from tests.oracle import examples

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
#: A row: a NOT NULL key, then an int, a float and a str that may be
#: NULL. A float is never -0.0: a row group's run-length and dictionary
#: encodings keep one of two equal values, and ``repr`` tells them apart.
FLOAT = st.floats(-1e9, 1e9).map(lambda f: f + 0.0)
#: Each column also draws from a few values, so row groups get runs and
#: every segment encoding is read at a rid.
ROW = st.tuples(
    st.integers(-5, 5) | INT64,
    st.integers(0, 2) | INT64 | st.none(),
    st.sampled_from([0.5, 2.0]) | FLOAT | st.none(),
    st.sampled_from(["a", "bc"]) | st.text(max_size=4) | st.none(),
)
ROWGROUP = 64
DESIGNS = ("heap", "btree", "csi")


def schema(name):
    # The declared VARCHAR width makes a clustered leaf hold ~25 rows.
    return TableSchema(name, [
        Column("id", INT, nullable=False), Column("n", BIGINT),
        Column("x", decimal(2)), Column("s", varchar(600))])


class PrimaryRowsMachine(RuleBasedStateMachine):
    """Tables ``heap``, ``btree`` and ``csi``, named by their first
    primary, take the same statements; each must always hold
    ``{rid: row}``."""

    @initialize(capacity=st.integers(4, 8),
                bulk=st.lists(ROW, max_size=2 * ROWGROUP + 10))
    def build(self, capacity, bulk):
        self.patches = [mock.patch.object(module, "SCAN_CHUNK_ROWS", capacity)
                        for module in (heap_module, columnstore_module)]
        for patch in self.patches:
            patch.start()
        self.work = tempfile.mkdtemp()
        self.db = Database()
        for design in DESIGNS:
            table = self.db.create_table(schema(design))
            table.bulk_load(bulk)
            if design == "btree":
                table.set_primary_btree(["id"])
            elif design == "csi":
                table.set_primary_columnstore(rowgroup_size=ROWGROUP)
            table.create_secondary_btree(f"ix_{design}", ["id"],
                                         included_columns=["x"])
            if design != "csi":
                table.create_secondary_columnstore(f"csi_{design}",
                                                   rowgroup_size=ROWGROUP)
        self.model = {rid: schema("m").validate_row(row)
                      for rid, row in enumerate(bulk)}
        self.gone = set()

    def teardown(self):
        self.db.close()
        shutil.rmtree(self.work, ignore_errors=True)
        for patch in self.patches:
            patch.stop()

    def tables(self):
        return [self.db.table(design) for design in DESIGNS]

    def some_rids(self, data):
        return data.draw(st.lists(st.sampled_from(sorted(self.model)),
                                  unique=True, min_size=1, max_size=6))

    @rule(rows=st.lists(ROW, min_size=1, max_size=12))
    def insert(self, rows):
        for row in rows:
            (rid,) = {table.insert_row(row) for table in self.tables()}
            self.model[rid] = schema("m").validate_row(row)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        rids = self.some_rids(data)
        for table in self.tables():
            assert table.delete_rids(rids) == len(rids)
        for rid in rids:
            del self.model[rid]
        self.gone.update(rids)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), keep_key=st.booleans())
    def update(self, data, keep_key):
        """A new key moves a clustered row and its secondary entries; a
        kept one updates in place."""
        rids = self.some_rids(data)
        rows = data.draw(st.lists(ROW, min_size=len(rids),
                                  max_size=len(rids)))
        if keep_key:
            rows = [(self.model[rid][0],) + row[1:]
                    for rid, row in zip(rids, rows)]
        for table in self.tables():
            table.update_rids(list(zip(rids, rows)))
        for rid, row in zip(rids, rows):
            self.model[rid] = schema("m").validate_row(row)

    @rule(name=st.sampled_from(DESIGNS), design=st.sampled_from(DESIGNS))
    def convert(self, name, design):
        table = self.db.table(name)
        if design == "heap":
            table.set_primary_heap()
        elif design == "btree":
            table.set_primary_btree(["id"])
        else:
            csi = table.columnstore_index()
            if csi is not None and not csi.is_primary:
                table.drop_index(csi.name)
            table.set_primary_columnstore(rowgroup_size=ROWGROUP)

    @rule(name=st.sampled_from(DESIGNS))
    def add_secondary_columnstore(self, name):
        table = self.db.table(name)
        if table.columnstore_index() is None:
            table.create_secondary_columnstore(f"csi_{name}",
                                               rowgroup_size=ROWGROUP)

    @rule()
    def move_tuples(self):
        for table in self.tables():
            if table.columnstore_index() is not None:
                table.columnstore_index().move_tuples()

    @rule()
    def rebuild(self):
        for table in self.tables():
            if table.columnstore_index() is not None:
                table.columnstore_index().rebuild()

    @rule()
    def eager_round_trip(self):
        before = snapshot_bytes(self.db)
        self.db.close()
        self.db, _ = load_snapshot(before)
        assert snapshot_bytes(self.db) == before

    @rule(pool_pages=st.integers(1, 8))
    def paged_round_trip(self, pool_pages):
        """Leaf and segment pages stay behind a small pool; the reads
        below fault them in without materializing a paged tree."""
        before = snapshot_bytes(self.db)
        self.db.close()
        path = os.path.join(self.work, f"snapshot{len(os.listdir(self.work))}")
        with open(path, "wb") as f:
            f.write(before)
        pool = BufferPool(budget_bytes=pool_pages * 8192)
        self.db, _, reader = load_snapshot_paged(path, pool)
        self.db.buffer_pool = pool
        self.db._snapshot_reader = reader
        self.paged = {table.name for table in self.tables()
                      if getattr(table.primary, "is_paged", False)}

    @invariant()
    def reads_match_the_model(self):
        rids = sorted(self.model)
        rows = [self.model[rid] for rid in rids]
        absent = sorted(self.gone)[:5] + [max(rids, default=0) + 1000]
        for table in self.tables():
            for rid in rids:
                assert repr(table.get_row(rid)) == repr(self.model[rid])
                assert table.has_rid(rid)
            assert not any(map(table.has_rid, absent))
            assert len(table) == table.row_count == len(rids)
            read_rids, values = table.columns_by_rid()
            assert read_rids.tolist() == rids
            assert repr(list(values)) == repr(rows)
            assert repr(list(table.iter_rows())) == repr(
                list(zip(rids, rows)))
            assert repr(table.lookup_columns(rids[::-1], [3, 0])) == \
                repr([(row[3], row[0]) for row in rows[::-1]])
            if table.name in getattr(self, "paged", ()):
                assert table.primary.is_paged
            result = check_table(table)
            assert result.ok, result.summary()
        self.paged = ()


TestPrimaryRowsAgainstModel = PrimaryRowsMachine.TestCase
TestPrimaryRowsAgainstModel.settings = settings(examples(25),
                                                stateful_step_count=20)


# ------------------------------------------------- one value of a segment
def segment_of(values):
    """The segment a row group stores for a column of ``values``: as
    ``compress_rowgroup`` encodes it, dictionary-coded when the column
    is an object array (strings, or NULLs among numbers)."""
    column = batch_column([lossless_array(values)])
    dictionary = Dictionary.build(column) if column.dtype == object else None
    return encode_segment("c", column, 8, dictionary)


def assert_reads_back(values):
    segment = segment_of(values)
    read = [segment.value_at(pos) for pos in range(len(values))]
    assert repr(read) == repr(values)
    assert repr(read) == repr(segment.decode().tolist())
    return segment.encoding


def test_value_at_reads_every_encoding():
    rng = np.random.default_rng(3)
    cases = {
        ENCODING_RLE: [1] * 40 + [2] * 30 + [7] * 30,
        ENCODING_BITPACK: rng.integers(0, 16, 100).tolist(),
        ENCODING_RAW: (rng.random(100) * 1e6).tolist(),
        ENCODING_DICT: [None, "a", "bb", "a", None, "c", "bb", "a"] * 9,
    }
    for encoding, values in cases.items():
        assert assert_reads_back(values) == encoding
    # Runs of a dictionary-coded column, NULLs first.
    assert assert_reads_back([None] * 9 + ["x"] * 40 + ["y"] * 30) == \
        ENCODING_RLE


@settings(examples(200))
@given(st.sampled_from([st.integers(0, 3) | INT64,
                        st.sampled_from([0.5, 2.0]) | FLOAT,
                        st.sampled_from(["a", "bc"]) | st.text(max_size=3)])
       .flatmap(lambda value: st.lists(value | st.none(), min_size=1,
                                       max_size=90)),
       st.booleans())
def test_value_at_matches_decode(values, ordered):
    if ordered:     # long runs, NULLs first, as a sorted row group has
        values = sorted(values, key=lambda v: (v is not None, v))
    assert_reads_back(values)


# ------------------------------------------------------ paged open memory
def _row_tuples(root, rows):
    """Every tuple equal to one of ``rows`` reachable from ``root``
    through attributes, slots and containers (numpy arrays hold columns,
    not rows, and are not entered)."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, np.ndarray, str, bytes,
                                               int, float)) or obj is None:
            continue
        seen.add(id(obj))
        try:
            if type(obj) is tuple and obj in rows:
                found.append(obj)
        except TypeError:       # a tuple holding a list: not a row
            pass
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                for name in getattr(cls, "__slots__", ()):
                    stack.append(getattr(obj, name, None))
    return found


def test_paged_open_keeps_no_row_of_a_btree_or_csi_primary():
    """A paged open reads every table's rows page and keeps of it only a
    clustered primary's rid -> key map: no row tuple stays reachable
    from the table, its pool frames included, after rid reads."""
    rows = [(i, i * 3, i / 4, f"s{i % 7}") for i in range(3000)]
    work = tempfile.mkdtemp()
    try:
        db = Database()
        for design in ("btree", "csi"):
            table = db.create_table(schema(design))
            table.bulk_load(rows)
            if design == "btree":
                table.set_primary_btree(["id"])
            else:
                table.set_primary_columnstore(rowgroup_size=512)
            table.create_secondary_btree(f"ix_{design}", ["n"])
        db.enable_durability(work)
        db.close()
        paged = Database.open(work, paging=True, pool_bytes=1 << 20)
        try:
            wanted = set(rows)
            assert _row_tuples({"planted": [rows[5]]}, wanted) == [rows[5]]
            for design, kind in (("btree", PrimaryBTreeIndex),
                                 ("csi", ColumnstoreIndex)):
                table = paged.table(design)
                assert isinstance(table.primary, kind)
                assert table.get_rows([1234, 7]) == [rows[1234], rows[7]]
            assert paged.buffer_pool.misses == len(paged.buffer_pool) > 2
            for design in ("btree", "csi"):
                assert _row_tuples(paged.table(design), wanted) == []
            assert paged.table("btree").primary.is_paged
        finally:
            paged.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

"""Tests for the B+ tree and its index wrappers."""

import random

import numpy as np
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
from repro.core.types import INT, varchar
from repro.engine.batch import _column_array, batch_column
from repro.engine.metrics import ExecutionContext
from repro.storage.btree import (
    BPlusTree,
    PrimaryBTreeIndex,
    SecondaryBTreeIndex,
    cut_leaves,
    iter_entries,
)
from repro.storage.records import Records
from tests.oracle import examples


def by_rid(rows):
    """(rid, row) pairs as the rids and records an index build reads."""
    return (np.array([rid for rid, _ in rows], np.int64),
            Records.from_rows([row for _, row in rows]))


def schema_two_ints():
    return TableSchema("t", [Column("a", INT, nullable=False),
                             Column("b", INT)])


class TestBPlusTree:
    def test_insert_and_get(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        for i in range(100):
            tree.insert((i,), (i, i * 2))
        assert len(tree) == 100
        assert tree.get((37,)) == (37, 74)
        assert tree.get((1000,)) is None
        tree.check_invariants()

    def test_insert_random_order(self):
        tree = BPlusTree(leaf_capacity=6, internal_capacity=5)
        keys = list(range(500))
        random.Random(7).shuffle(keys)
        for k in keys:
            tree.insert((k,), (k,))
        assert [k for k, _ in tree.items()] == [(i,) for i in range(500)]
        tree.check_invariants()

    def test_duplicate_key_raises(self):
        tree = BPlusTree()
        tree.insert((1,), ("x",))
        with pytest.raises(StorageError):
            tree.insert((1,), ("y",))

    def test_delete_returns_payload(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        for i in range(50):
            tree.insert((i,), (i * 10,))
        assert tree.delete((25,)) == (250,)
        assert tree.get((25,)) is None
        assert len(tree) == 49
        tree.check_invariants()

    def test_delete_missing_raises(self):
        tree = BPlusTree()
        with pytest.raises(StorageError):
            tree.delete((9,))

    def test_delete_everything_random_order(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        keys = list(range(300))
        for k in keys:
            tree.insert((k,), (k,))
        random.Random(3).shuffle(keys)
        for k in keys:
            tree.delete((k,))
            tree.check_invariants()
        assert len(tree) == 0

    def test_interleaved_insert_delete(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        rng = random.Random(11)
        alive = set()
        for step in range(2000):
            if alive and rng.random() < 0.4:
                k = rng.choice(sorted(alive))
                tree.delete((k,))
                alive.discard(k)
            else:
                k = rng.randrange(10000)
                if k not in alive:
                    tree.insert((k,), (k,))
                    alive.add(k)
        assert sorted(k[0] for k, _ in tree.items()) == sorted(alive)
        tree.check_invariants()

    def test_scan_range_inclusive(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        for i in range(100):
            tree.insert((i,), (i,))
        got = [k[0] for k, _ in tree.scan_range((10,), (20,))]
        assert got == list(range(10, 21))

    def test_scan_range_exclusive(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        for i in range(50):
            tree.insert((i,), (i,))
        got = [k[0] for k, _ in tree.scan_range(
            (10,), (20,), low_inclusive=False, high_inclusive=False)]
        assert got == list(range(11, 20))

    def test_scan_open_bounds(self):
        tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
        for i in range(30):
            tree.insert((i,), (i,))
        assert len(list(tree.scan_range(None, None))) == 30
        assert [k[0] for k, _ in tree.scan_range(None, (5,))] == list(range(6))
        assert [k[0] for k, _ in tree.scan_range((25,), None)] == list(range(25, 30))

    def test_bulk_load_matches_inserts(self):
        items = [((i,), (i, str(i))) for i in range(1000)]
        tree = BPlusTree.bulk_load(items, leaf_capacity=16)
        assert len(tree) == 1000
        assert tree.get((512,)) == (512, "512")
        assert [k for k, _ in tree.items()] == [k for k, _ in items]
        tree.check_invariants()

    def test_bulk_load_rejects_unsorted(self):
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([((2,), (2,)), ((1,), (1,))], leaf_capacity=4)

    @pytest.mark.parametrize("keys", [[1, 1], [1, 3, 2, 4]])
    def test_bulk_load_rejects_duplicates_and_late_disorder(self, keys):
        with pytest.raises(StorageError, match="sorted unique"):
            BPlusTree.bulk_load([((k,), (k,)) for k in keys], leaf_capacity=4)

    @pytest.mark.parametrize("leaves, refused", [
        ([[1, 2, 3, 4, 5]], "5 entries does not fit"),
        ([[1, 2], []], "0 entries does not fit"),
        ([[1, 2], [2, 3]], "sorted unique"),
        ([[1, 3], [2, 4]], "sorted unique"),
    ])
    def test_from_leaves_refuses_what_no_leaf_holds(self, leaves, refused):
        with pytest.raises(StorageError, match=refused):
            BPlusTree.from_leaves(
                [([(k,) for k in keys], Records.from_rows([(k,) for k in keys]))
                 for keys in leaves], leaf_capacity=4)

    def test_bulk_load_then_insert_delete(self):
        items = [((i,), (i,)) for i in range(0, 1000, 2)]
        tree = BPlusTree.bulk_load(items, leaf_capacity=8)
        for i in range(1, 1000, 2):
            tree.insert((i,), (i,))
        assert len(tree) == 1000
        for i in range(0, 1000, 3):
            tree.delete((i,))
        tree.check_invariants()

    def test_height_grows_logarithmically(self):
        tree = BPlusTree(leaf_capacity=8, internal_capacity=8)
        for i in range(5000):
            tree.insert((i,), (i,))
        assert 3 <= tree.height <= 8

    def test_leaf_count(self):
        tree = BPlusTree.bulk_load(
            [((i,), (i,)) for i in range(100)], leaf_capacity=10)
        assert tree.leaf_count >= 10

    def test_min_capacity_enforced(self):
        with pytest.raises(StorageError):
            BPlusTree(leaf_capacity=2)


class TestPrimaryBTreeIndex:
    def test_build_and_seek(self):
        schema = schema_two_ints()
        rows = [(i, (i, i % 7)) for i in range(200)]
        index = PrimaryBTreeIndex.build("pk", schema, ["a"], *by_rid(rows))
        got = list(iter_entries(index.seek_range((50,), (59,))))
        assert [row[0] for _, row in got] == list(range(50, 60))
        assert [key[-1] for key, _ in got] == list(range(50, 60))  # rids

    def test_nonunique_keys_allowed(self):
        schema = schema_two_ints()
        rows = [(i, (i % 5, i)) for i in range(100)]
        index = PrimaryBTreeIndex.build("pk", schema, ["a"], *by_rid(rows))
        hits = list(iter_entries(index.seek_range((3,), (3,))))
        assert len(hits) == 20
        assert all(row[0] == 3 for _, row in hits)

    def test_insert_delete_update(self):
        schema = schema_two_ints()
        index = PrimaryBTreeIndex("pk", schema, ["a"])
        index.insert(1, (10, 100))
        index.insert(2, (20, 200))
        index.update(1, (10, 100), (10, 111))
        assert [row for _, row in iter_entries(
            index.seek_range((10,), (10,)))] == [(10, 111)]
        index.update(2, (20, 200), (5, 200))  # key change
        assert [row for _, row in iter_entries(index.scan())] == [
            (5, 200), (10, 111)]
        index.delete(1, (10, 111))
        assert [row for _, row in iter_entries(index.scan())] == [(5, 200)]

    def test_null_key_rejected(self):
        schema = schema_two_ints()
        index = PrimaryBTreeIndex("pk", TableSchema("t", [
            Column("a", INT), Column("b", INT)]), ["a"])
        with pytest.raises(StorageError):
            index.insert(1, (None, 5))

    def test_cold_seek_charges_io(self):
        schema = schema_two_ints()
        rows = [(i, (i, i)) for i in range(5000)]
        index = PrimaryBTreeIndex.build("pk", schema, ["a"], *by_rid(rows))
        ctx = ExecutionContext(cold=True)
        list(index.seek_range((0,), (4999,), ctx))
        assert ctx.metrics.pages_read > 0
        assert ctx.metrics.elapsed_ms > 0

    def test_hot_seek_records_logical_read(self):
        schema = schema_two_ints()
        rows = [(i, (i, i)) for i in range(1000)]
        index = PrimaryBTreeIndex.build("pk", schema, ["a"], *by_rid(rows))
        ctx = ExecutionContext(cold=False)
        list(index.seek_range((0,), (999,), ctx))
        assert ctx.metrics.pages_read == 0
        assert ctx.metrics.data_read_mb > 0

    def test_size_bytes_scales_with_rows(self):
        schema = schema_two_ints()
        small = PrimaryBTreeIndex.build(
            "pk", schema, ["a"], *by_rid([(i, (i, i)) for i in range(100)]))
        big = PrimaryBTreeIndex.build(
            "pk", schema, ["a"], *by_rid([(i, (i, i)) for i in range(10000)]))
        assert big.size_bytes() > small.size_bytes() * 10


class TestSecondaryBTreeIndex:
    def schema(self):
        return TableSchema("t", [
            Column("a", INT, nullable=False),
            Column("b", INT),
            Column("c", varchar(8)),
        ])

    def test_covered_columns_order(self):
        index = SecondaryBTreeIndex("ix", self.schema(), ["b"], ["c"])
        assert index.covered_columns == ["b", "c"]

    def test_key_included_overlap_rejected(self):
        with pytest.raises(StorageError):
            SecondaryBTreeIndex("ix", self.schema(), ["b"], ["b"])

    def test_build_and_seek_returns_covered_values(self):
        rows = [(i, (i, i * 2, f"s{i}")) for i in range(50)]
        index = SecondaryBTreeIndex.build(
            "ix", self.schema(), ["b"], *by_rid(rows), included_columns=["c"])
        hits = list(iter_entries(index.seek_range((20,), (24,))))
        assert hits == [((20, 10), ("s10",)), ((22, 11), ("s11",)),
                        ((24, 12), ("s12",))]  # (key + rid, included)
        assert index.entry_rows(*zip(*hits)) == [
            (20, 10, "s10"), (22, 11, "s11"), (24, 12, "s12")]
        assert index.entry_ordinals(["c", "b", "a"]) == [2, 0, 3]

    def test_update_skips_uncovered_columns(self):
        rows = [(i, (i, i, f"s{i}")) for i in range(10)]
        index = SecondaryBTreeIndex.build("ix", self.schema(), ["b"], *by_rid(rows))
        before = list(iter_entries(index.scan()))
        # Change only column c, which the index neither keys nor includes.
        index.update(3, (3, 3, "s3"), (3, 3, "zzz"))
        assert list(iter_entries(index.scan())) == before

    def test_update_rewrites_on_key_change(self):
        rows = [(i, (i, i, f"s{i}")) for i in range(10)]
        index = SecondaryBTreeIndex.build("ix", self.schema(), ["b"], *by_rid(rows))
        index.update(3, (3, 3, "s3"), (3, 99, "s3"))
        assert [key[-1] for key, _ in iter_entries(
            index.seek_range((99,), (99,)))] == [3]

    def test_entry_width_smaller_than_row(self):
        schema = self.schema()
        index = SecondaryBTreeIndex("ix", schema, ["b"])
        assert index.entry_byte_width < schema.row_byte_width + 8


# ================================ the columnar leaf against a row model

#: A payload field: mostly ints, so typed int64 columns are common and
#: a NULL, float, str or bool arriving in one is an edit the leaf must
#: absorb (and its leaving one a column that stays object).
FIELD = (st.integers(-5, 5) | st.integers(-2 ** 63, 2 ** 63 - 1)
         | st.integers(0, 9) | st.floats(allow_nan=False) | st.none()
         | st.text(max_size=2) | st.booleans())
KEYS = st.integers(0, 60)


def lossless_dtype(values):
    """The dtype the lossless rule allows for these values."""
    kinds = {type(value) for value in values}
    return ("i" if kinds == {int} else "f" if kinds == {float} else "O")


class ColumnarLeafMachine(RuleBasedStateMachine):
    """A B+ tree whose leaves hold typed columns, edited by inserts,
    deletes, in-place and key-changing updates at leaf capacities 4-8
    (so splits, borrows and merges all fire), against a dict of row
    tuples. ``repr`` tells 1 from 1.0 and True, and -0.0 from 0.0."""

    @initialize(capacity=st.integers(4, 8), width=st.sampled_from([0, 1, 3]),
                bulk=st.lists(st.tuples(KEYS, st.lists(FIELD, min_size=3,
                                                       max_size=3)),
                              max_size=40))
    def build(self, capacity, width, bulk):
        self.width = width
        self.model = {(k,): tuple(row[:width]) for k, row in bulk}
        self.tree = BPlusTree.bulk_load(sorted(self.model.items()),
                                        leaf_capacity=capacity,
                                        internal_capacity=4)

    def row(self, fields):
        return tuple(fields[:self.width])

    @rule(key=KEYS, fields=st.lists(FIELD, min_size=3, max_size=3))
    def insert(self, key, fields):
        if (key,) in self.model:
            with pytest.raises(StorageError):
                self.tree.insert((key,), self.row(fields))
            return
        self.tree.insert((key,), self.row(fields))
        self.model[(key,)] = self.row(fields)

    @rule(key=KEYS)
    def delete(self, key):
        if (key,) not in self.model:
            with pytest.raises(StorageError):
                self.tree.delete((key,))
            return
        assert repr(self.tree.delete((key,))) == repr(self.model.pop((key,)))

    @rule(key=KEYS, fields=st.lists(FIELD, min_size=3, max_size=3))
    def update_in_place(self, key, fields):
        replaced = self.tree.replace((key,), self.row(fields))
        assert replaced == ((key,) in self.model)
        if replaced:
            self.model[(key,)] = self.row(fields)

    @rule(key=KEYS, new_key=KEYS, fields=st.lists(FIELD, min_size=3,
                                                 max_size=3))
    def update_key(self, key, new_key, fields):
        if (key,) not in self.model or (new_key,) in self.model:
            return
        self.tree.delete((key,))
        self.tree.insert((new_key,), self.row(fields))
        del self.model[(key,)]
        self.model[(new_key,)] = self.row(fields)

    @rule(low=st.none() | KEYS, high=st.none() | KEYS,
          low_inclusive=st.booleans(), high_inclusive=st.booleans(),
          probe=KEYS)
    def read(self, low, high, low_inclusive, high_inclusive, probe):
        low = None if low is None else (low,)
        high = None if high is None else (high,)
        expected = [(k, v) for k, v in sorted(self.model.items())
                    if (low is None or k > low or (k == low and low_inclusive))
                    and (high is None or k < high
                         or (k == high and high_inclusive))]
        chunks = list(self.tree.leaf_chunks(low, high, low_inclusive,
                                            high_inclusive))
        got = [pair for keys, values in chunks
               for pair in zip(keys, values)]
        assert repr(got) == repr(expected)
        for keys, values in chunks:
            assert len(keys) == len(values) > 0
            rows = list(values)
            for ordinal in range(self.width):
                # What a scan batches from the chunk is what pivoting
                # its rows gives: dtype, values and their Python types.
                built = batch_column([values.column(ordinal)])
                pivoted = _column_array([row[ordinal] for row in rows])
                assert built.dtype == pivoted.dtype
                assert repr(built.tolist()) == repr(pivoted.tolist())
        assert (repr(self.tree.get((probe,)))
                == repr(self.model.get((probe,))))

    @rule()
    def bulk_load_is_its_cut_adopted(self):
        """``from_columns`` builds the tree ``from_leaves`` builds over
        ``cut_leaves`` of the same entries — the cut of this tree's
        live leaves, however its splits and merges shaped them (what a
        snapshot writes) — to the leaf, the entry and the level."""
        def shape(tree):
            tree.check_invariants()
            return (tree.height, [(keys, repr(list(values)))
                                  for keys, values in tree.leaf_chunks()])

        capacity = self.tree.leaf_capacity
        entries = sorted(self.model.items())
        keys = [key for key, _ in entries]
        values = Records.from_rows([row for _, row in entries])
        bulk = BPlusTree.from_columns(keys, values, capacity, 4)
        assert shape(bulk) == shape(BPlusTree.from_leaves(
            cut_leaves([(keys, values)], capacity), capacity, 4))
        assert shape(bulk) == shape(BPlusTree.from_leaves(
            cut_leaves(self.tree.leaf_chunks(), capacity), capacity, 4))
        assert all(len(leaf_keys) == bulk.fill
                   for leaf_keys, _ in list(bulk.leaf_chunks())[:-1])

    @invariant()
    def matches_the_model(self):
        self.tree.check_invariants()
        assert repr(list(self.tree.items())) == repr(sorted(self.model.items()))
        leaf = self.tree._first_leaf
        while leaf is not None:
            if leaf.keys:       # one column per field, each lossless
                assert leaf.values.width == self.width
                for ordinal in range(self.width):
                    stored = [self.model[key][ordinal] for key in leaf.keys]
                    kind = leaf.values.column(ordinal).dtype.kind
                    assert kind == "O" or kind == lossless_dtype(stored)
            leaf = leaf.next


TestColumnarLeaves = ColumnarLeafMachine.TestCase
TestColumnarLeaves.settings = settings(examples(60), stateful_step_count=40)

"""Tests for Table (index maintenance across DML) and Database."""

import numpy as np
import pytest

from repro.core.errors import CatalogError, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, XML, varchar
from repro.engine.batch import concat_batches
from repro.engine.metrics import ExecutionContext
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.btree import iter_entries
from repro.storage.heap import HeapFile
from repro.storage.records import Records
from repro.storage.table import Table


def schema():
    return TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", INT),
        Column("s", varchar(8)),
    ])


def loaded_table(n=500):
    table = Table(schema())
    table.bulk_load([(i, i % 10, f"s{i % 3}") for i in range(n)])
    return table


class TestHeap:
    def test_insert_fetch_scan(self):
        heap = HeapFile("h", schema())
        heap.insert(1, (1, 2, "x"))
        heap.insert(2, (3, 4, "y"))
        assert heap.fetch(1) == (1, 2, "x")
        [(rids, values)] = heap.scan()
        assert rids == [1, 2]
        assert isinstance(values, Records)
        assert list(values) == [(1, 2, "x"), (3, 4, "y")]
        assert values.column(0).dtype == np.int64
        assert values.column(2).dtype == object
        assert [rid for rid, _ in iter_entries(heap.scan())] == [1, 2]
        assert len(heap) == 2

    def test_delete_and_update(self):
        heap = HeapFile("h", schema())
        heap.insert(1, (1, 2, "x"))
        heap.update(1, (1, 2, "x"), (1, 9, "x"))
        assert heap.fetch(1) == (1, 9, "x")
        heap.delete(1, (1, 9, "x"))
        with pytest.raises(StorageError):
            heap.fetch(1)

    def test_duplicate_rid_rejected(self):
        heap = HeapFile("h", schema())
        heap.insert(1, (1, 2, "x"))
        with pytest.raises(StorageError):
            heap.insert(1, (1, 2, "x"))

    def test_cold_fetch_charges_random_io(self):
        heap = HeapFile("h", schema())
        heap.insert(1, (1, 2, "x"))
        ctx = ExecutionContext(cold=True)
        heap.fetch(1, ctx)
        assert ctx.metrics.pages_read == 1


class TestTableBasics:
    def test_default_primary_is_heap(self):
        table = Table(schema())
        assert isinstance(table.primary, HeapFile)

    def test_bulk_load_and_row_access(self):
        table = loaded_table(100)
        assert table.row_count == 100
        assert table.get_row(5) == (5, 5, "s2")
        assert table.has_rid(99)
        assert not table.has_rid(100)

    def test_bulk_load_requires_empty_table(self):
        table = loaded_table(10)
        with pytest.raises(StorageError):
            table.bulk_load([(1, 1, "x")])

    def test_insert_assigns_increasing_rids(self):
        table = Table(schema())
        rid1 = table.insert_row((1, 2, "x"))
        rid2 = table.insert_row((3, 4, "y"))
        assert rid2 == rid1 + 1

    def test_insert_validates(self):
        table = Table(schema())
        from repro.core.errors import SchemaError
        with pytest.raises(SchemaError):
            table.insert_row((None, 2, "x"))  # a is not nullable


class TestPhysicalDesignChanges:
    def test_set_primary_btree_preserves_rows(self):
        table = loaded_table(200)
        table.set_primary_btree(["a"])
        rows = [row for _, row in iter_entries(table.primary.scan())]
        assert len(rows) == 200
        assert rows[0][0] == 0

    def test_set_primary_columnstore(self):
        table = loaded_table(200)
        table.set_primary_columnstore(rowgroup_size=64)
        assert isinstance(table.primary, ColumnstoreIndex)
        assert table.primary.is_primary

    def test_primary_csi_rejected_with_xml_column(self):
        table = Table(TableSchema("t", [Column("a", INT), Column("x", XML)]))
        with pytest.raises(CatalogError):
            table.set_primary_columnstore()

    def test_single_columnstore_per_table(self):
        table = loaded_table(100)
        table.create_secondary_columnstore("csi1")
        with pytest.raises(CatalogError):
            table.create_secondary_columnstore("csi2")

    def test_secondary_csi_after_primary_csi_rejected(self):
        table = loaded_table(100)
        table.set_primary_columnstore(rowgroup_size=64)
        with pytest.raises(CatalogError):
            table.create_secondary_columnstore("csi2")

    def test_duplicate_index_name_rejected(self):
        table = loaded_table(100)
        table.create_secondary_btree("ix", ["b"])
        with pytest.raises(CatalogError):
            table.create_secondary_btree("ix", ["a"])

    def test_primary_conversion_cannot_take_a_secondary_name(self):
        table = loaded_table(100)
        secondary = table.create_secondary_btree("ix", ["b"])
        with pytest.raises(CatalogError, match="already exists"):
            table.set_primary_btree(["a"], name="ix")
        with pytest.raises(CatalogError, match="already exists"):
            table.set_primary_columnstore(name="ix")
        assert isinstance(table.primary, HeapFile)
        assert table.index_by_name("ix") is secondary
        # A new primary may take the name of the one it replaces.
        table.set_primary_btree(["a"], name="pk")
        table.set_primary_btree(["b"], name="pk")
        assert table.index_by_name("pk") is table.primary
        table.drop_index("ix")
        assert table.secondary_indexes == {}

    def test_drop_index(self):
        table = loaded_table(100)
        table.create_secondary_btree("ix", ["b"])
        table.drop_index("ix")
        assert table.secondary_indexes == {}
        with pytest.raises(CatalogError):
            table.drop_index("ix")

    def test_index_by_name_finds_primary(self):
        table = loaded_table(10)
        table.set_primary_btree(["a"], name="my_pk")
        assert table.index_by_name("my_pk") is table.primary

    def test_columnstore_index_lookup(self):
        table = loaded_table(100)
        assert table.columnstore_index() is None
        csi = table.create_secondary_columnstore("csi")
        assert table.columnstore_index() is csi

    def test_set_primary_heap_back(self):
        table = loaded_table(50)
        table.set_primary_btree(["a"])
        table.set_primary_heap()
        assert isinstance(table.primary, HeapFile)
        assert len(table.primary) == 50


class TestDmlMaintainsAllIndexes:
    def make_hybrid_table(self):
        table = loaded_table(300)
        table.set_primary_btree(["a"])
        table.create_secondary_btree("ix_b", ["b"], included_columns=["s"])
        table.create_secondary_columnstore("csi", rowgroup_size=64)
        return table

    def all_a_values(self, table):
        csi = table.columnstore_index()
        merged = concat_batches(csi.scan(["a"]))
        return sorted(merged.column("a").tolist())

    def test_insert_reaches_every_index(self):
        table = self.make_hybrid_table()
        rid = table.insert_row((1000, 77, "new"))
        assert table.get_row(rid) == (1000, 77, "new")
        assert list(table.primary.seek_range((1000,), (1000,)))
        ix = table.secondary_indexes["ix_b"]
        assert any(key[-1] == rid for key, _ in iter_entries(
            ix.seek_range((77,), (77,))))
        assert 1000 in self.all_a_values(table)

    def test_delete_reaches_every_index(self):
        table = self.make_hybrid_table()
        table.delete_rid(5)
        assert not table.has_rid(5)
        assert 5 not in self.all_a_values(table)
        assert not list(table.primary.seek_range((5,), (5,)))

    def test_update_reaches_every_index(self):
        table = self.make_hybrid_table()
        table.update_rid(5, (5, 999, "upd"))
        assert table.get_row(5) == (5, 999, "upd")
        ix = table.secondary_indexes["ix_b"]
        hits = list(iter_entries(ix.seek_range((999,), (999,))))
        assert hits == [((999, 5), ("upd",))]

    def test_batch_delete(self):
        table = self.make_hybrid_table()
        deleted = table.delete_rids([1, 2, 3])
        assert deleted == 3
        assert table.row_count == 297
        values = self.all_a_values(table)
        assert 1 not in values and 3 not in values

    def test_batch_update(self):
        table = self.make_hybrid_table()
        table.update_rids([(1, (1, 500, "u1")), (2, (2, 501, "u2"))])
        assert table.get_row(1) == (1, 500, "u1")
        assert table.get_row(2) == (2, 501, "u2")

    def test_total_index_bytes_grows_with_indexes(self):
        plain = loaded_table(300)
        hybrid = self.make_hybrid_table()
        assert hybrid.total_index_bytes() > plain.total_index_bytes()

    def test_fetch_columns(self):
        table = loaded_table(10)
        ctx = ExecutionContext(cold=True)
        values = table.fetch_columns(3, [2, 0], ctx)
        assert values == ("s0", 3)
        assert ctx.metrics.pages_read == 1


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database("mydb")
        db.create_table(schema())
        assert db.has_table("t")
        assert "t" in db
        assert db.table("t").name == "t"
        assert db.table_names() == ["t"]

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(schema())
        with pytest.raises(CatalogError):
            db.create_table(schema())

    def test_unknown_table_raises(self):
        with pytest.raises(CatalogError):
            Database().table("missing")

    def test_drop_table(self):
        db = Database()
        db.create_table(schema())
        db.drop_table("t")
        assert not db.has_table("t")
        with pytest.raises(CatalogError):
            db.drop_table("t")

    def test_total_size_and_inventory(self):
        db = Database()
        table = db.create_table(schema())
        table.bulk_load([(i, i, "x") for i in range(100)])
        table.create_secondary_btree("ix", ["b"])
        assert db.total_size_bytes() > 0
        inventory = db.index_inventory()
        assert any("ix" in line for line in inventory)
        assert any("heap" in line for line in inventory)


class TestUpdateRidsDedup:
    def make_hybrid_table(self):
        table = loaded_table(300)
        table.set_primary_btree(["a"])
        table.create_secondary_btree("ix_b", ["b"], included_columns=["s"])
        table.create_secondary_columnstore("csi", rowgroup_size=64)
        return table

    def test_duplicate_rid_last_write_wins(self):
        table = self.make_hybrid_table()
        # Two updates to the same rid in one batch: before dedup the
        # second entry tripped "already deleted" in the secondary
        # columnstore; now the batch collapses to the last write.
        updated = table.update_rids([
            (5, (5, 111, "first")),
            (5, (5, 222, "last")),
        ])
        assert updated == 1
        assert table.get_row(5) == (5, 222, "last")
        ix = table.secondary_indexes["ix_b"]
        assert not list(ix.seek_range((111,), (111,)))
        hits = list(iter_entries(ix.seek_range((222,), (222,))))
        assert hits == [((222, 5), ("last",))]

    def test_duplicate_rid_batch_stays_consistent(self):
        from repro.storage.checker import check_table
        table = self.make_hybrid_table()
        table.update_rids([
            (7, (7, 300, "a")),
            (8, (8, 301, "b")),
            (7, (7, 302, "c")),
        ])
        assert table.get_row(7) == (7, 302, "c")
        result = check_table(table)
        assert result.ok, result.summary()


class TestBulkLoadGuard:
    def test_bulk_load_bumps_modification_counter(self):
        table = Table(schema())
        before = table.modification_counter
        table.bulk_load([(i, i, "x") for i in range(40)])
        assert table.modification_counter == before + 40

    def test_bulk_load_error_names_the_obstruction(self):
        table = loaded_table(10)
        table.create_secondary_btree("ix", ["b"])
        with pytest.raises(StorageError) as exc:
            table.bulk_load([(1000, 0, "x")])
        message = str(exc.value)
        assert "10 rows" in message and "1 secondary" in message


class TestFailedBulkLoad:
    """A bulk load whose 11th row fails validation stores nothing: every
    design stays empty and loadable, in memory and after a reopen."""

    ROWS = [(i, i % 10, f"s{i}") for i in range(20)]
    BAD = ROWS[:10] + [(10, "bad", "x")] + ROWS[11:]

    @staticmethod
    def make(design, directory=None):
        database = Database("d")
        if directory is not None:
            database.enable_durability(directory)
        table = database.create_table(schema())
        if design == "btree":
            table.set_primary_btree(["a"])
        elif design == "csi":
            table.set_primary_columnstore(rowgroup_size=64)
        return database, table

    @staticmethod
    def answer(database):
        from repro.engine.executor import Executor
        return Executor(database).execute(
            "SELECT count(*), sum(a) FROM t").rows

    @pytest.mark.parametrize("design", ["heap", "btree", "csi"])
    @pytest.mark.parametrize("durable", [False, True])
    def test_failed_load_leaves_the_table_untouched(self, design, durable,
                                                    tmp_path):
        from repro.core.errors import SchemaError
        from repro.storage.checker import check_database
        from repro.storage.recovery import state_digest
        directory = str(tmp_path) if durable else None
        database, table = self.make(design, directory)
        last_lsn = database.wal.last_lsn if durable else None
        with pytest.raises(SchemaError):
            table.bulk_load(self.BAD)
        assert len(table) == 0 and check_database(database).ok
        assert table._next_rid == 0 and table.modification_counter == 0
        assert self.answer(database) == [(0, None)]
        if durable:
            assert database.wal.last_lsn == last_lsn
            database.close()
            database = Database.open(directory)
            table = database.table("t")
            assert len(table) == 0
        assert table.bulk_load(self.ROWS) == list(range(20))
        assert self.answer(database) == [(20, 190.0)]
        assert check_database(database).ok
        if durable:
            digest = state_digest(database)
            database.close()
            reopened = Database.open(directory)
            assert state_digest(reopened) == digest
            assert self.answer(reopened) == [(20, 190.0)]
            reopened.close()

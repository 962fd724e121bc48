"""CHECKDB-style consistency checker: clean databases pass, and each
class of deliberately planted corruption is detected."""

import pytest

from repro.core.errors import StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.storage.checker import check_database, check_table
from repro.storage.database import Database


def schema(name="t"):
    return TableSchema(name, [
        Column("a", INT, nullable=False),
        Column("b", INT, nullable=False),
        Column("s", varchar(8), nullable=False),
    ])


def make_db():
    """Heap table + hybrid table (primary CSI, secondary B+ tree) +
    B+ tree table with a secondary columnstore carrying shadows."""
    db = Database()
    heap_t = db.create_table(schema("h"))
    heap_t.bulk_load([(i, i % 5, f"h{i}") for i in range(50)])
    heap_t.create_secondary_btree("ix_hb", ["b"])

    csi_t = db.create_table(schema("c"))
    csi_t.bulk_load([(i, i % 7, f"c{i}") for i in range(200)])
    csi_t.set_primary_columnstore(rowgroup_size=64)
    csi_t.create_secondary_btree("ix_cb", ["b"], included_columns=["s"])
    for i in range(10):
        csi_t.insert_row((500 + i, i, "d"))
    csi_t.delete_rids([3, 4])
    csi_t.update_rid(8, (8, 77, "u"))

    bt_t = db.create_table(schema("b"))
    bt_t.bulk_load([(i, i % 3, f"b{i}") for i in range(150)])
    bt_t.set_primary_btree(["a"])
    bt_t.create_secondary_columnstore("csi_b", rowgroup_size=64)
    bt_t.update_rids([(i, (i, 900 + i, "sh")) for i in range(3)])
    bt_t.delete_rids([10, 11])
    return db


def csi_of(table):
    for index in table.all_indexes:
        if index.kind == "csi":
            return index
    raise AssertionError("no columnstore on table")


class TestCleanDatabase:
    def test_clean_database_passes(self):
        result = check_database(make_db())
        assert result.ok, result.summary()
        assert result.checked_tables == 3
        assert result.checked_indexes == 6
        result.raise_if_failed()  # must not raise

    def test_clean_after_maintenance(self):
        db = make_db()
        csi_of(db.table("c")).reorganize()
        csi_of(db.table("b")).rebuild()
        result = check_database(db)
        assert result.ok, result.summary()

    def test_summary_format(self):
        result = check_database(make_db())
        assert "3 table(s)" in result.summary()
        assert "OK" in result.summary()


class TestCorruptionDetection:
    def test_tampered_heap_row(self):
        db = make_db()
        heap = db.table("h").primary
        heap.tree.replace(5, (5, -1, "XX"))
        result = check_table(db.table("h"))
        assert not result.ok
        assert any("row mismatch" in e for e in result.errors)

    def test_lost_and_orphan_heap_rows(self):
        db = make_db()
        heap = db.table("h").primary
        row = heap.tree.delete(7)
        heap.tree.insert(10_000, row)
        result = check_table(db.table("h"))
        assert any("rid 7 missing from heap" in e for e in result.errors)
        assert any("orphan rid 10000" in e for e in result.errors)

    def test_lost_btree_entry(self):
        db = make_db()
        table = db.table("h")
        row = table.get_row(7)
        ix = table.secondary_indexes["ix_hb"]
        ix.tree.delete((row[1], 7))
        result = check_table(table)
        assert not result.ok
        assert any("missing from index" in e for e in result.errors)

    def test_stale_secondary_key(self):
        db = make_db()
        table = db.table("h")
        # Mutate the primary's row without maintaining the index.
        table.primary.tree.replace(9, (9, 999, table.get_row(9)[2]))
        result = check_table(table)
        assert not result.ok
        assert any("stale key" in e for e in result.errors)

    def test_rid_key_map_disagreeing_with_the_leaves(self):
        db = make_db()
        table = db.table("b")
        index = table.primary
        index.rid_keys[20] = (999, 20)      # rid 20 is stored under (20, 20)
        index.rid_keys[10] = (10, 10)       # rid 10 was deleted
        result = check_table(table)
        assert not result.ok
        assert any("rid 20 maps to key (999, 20), stored under (20, 20)"
                   in e for e in result.errors)
        assert any("rid 10 maps to key (10, 10), which holds no row"
                   in e for e in result.errors)

    def test_wrong_delete_bitmap_counter(self):
        db = make_db()
        index = csi_of(db.table("c"))
        index._groups[0].n_deleted += 1
        result = check_table(db.table("c"))
        assert not result.ok
        assert any("bitmap popcount" in e for e in result.errors)

    def test_wrong_segment_min_metadata(self):
        db = make_db()
        index = csi_of(db.table("c"))
        segment = index._groups[0].group.column("a")
        segment.min_value = -12345
        result = check_table(db.table("c"))
        assert not result.ok
        assert any("min/max metadata" in e for e in result.errors)

    def test_orphan_delta_rid(self):
        db = make_db()
        index = csi_of(db.table("c"))
        index._delta.insert(99999, (99999, 0, "ghost"))
        result = check_table(db.table("c"))
        assert not result.ok
        assert any("orphan rid 99999" in e for e in result.errors)

    def test_disordered_delta_leaf(self):
        db = make_db()
        index = csi_of(db.table("c"))
        leaf = index._delta._first_leaf
        assert len(leaf.keys) >= 2
        leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]
        result = check_table(db.table("c"))
        assert not result.ok
        assert any("delta store tree invariant violated: key order"
                   in e for e in result.errors)

    def test_non_int_delta_key(self):
        db = make_db()
        index = csi_of(db.table("c"))
        rid = max(rid for rid, _ in index._delta.items())
        row = index._delta.delete(rid)
        index._delta.insert(float(rid), row)
        result = check_table(db.table("c"))
        assert not result.ok
        assert any(f"delta store key {float(rid)!r} is not an int rid"
                   in e for e in result.errors)

    def test_dropped_rid_locator(self):
        db = make_db()
        index = csi_of(db.table("c"))
        rid = next(iter(index._rid_location))
        del index._rid_location[rid]
        result = check_table(db.table("c"))
        assert not result.ok
        assert any("locator" in e for e in result.errors)

    def test_primary_columnstore_with_delete_buffer(self):
        db = make_db()
        index = csi_of(db.table("c"))
        rid = next(iter(index._rid_location))
        index._delete_buffer.add(rid)
        result = check_table(db.table("c"))
        assert not result.ok
        assert any("delete buffer" in e for e in result.errors)

    def test_unbuffered_shadow_is_flagged(self):
        db = make_db()
        index = csi_of(db.table("b"))
        # A delta version shadowing a compressed rid is only legal while
        # a buffered delete masks the compressed copy.
        shadowed = next(rid for rid, _ in index._delta.items()
                        if rid in index._delete_buffer)
        index._delete_buffer.discard(shadowed)
        result = check_table(db.table("b"))
        assert not result.ok
        assert any("both delta store" in e for e in result.errors)

    def test_raise_if_failed(self):
        db = make_db()
        db.table("h").primary.tree.replace(5, (5, -1, "XX"))
        with pytest.raises(StorageError, match="consistency check failed"):
            check_database(db).raise_if_failed()

    def test_database_merge_spans_tables(self):
        db = make_db()
        db.table("h").primary.tree.replace(5, (5, -1, "XX"))
        index = csi_of(db.table("c"))
        index._groups[0].n_deleted += 1
        result = check_database(db)
        assert len(result.errors) >= 2
        assert result.checked_tables == 3

"""A failed write statement leaves every structure as it found it.

Each case runs one SQL statement with a fault armed at one injection
point and hit, and compares ``state_digest`` — the snapshot bytes: every
row, every B+ entry, every columnstore row group with its delete bitmap,
delta store and delete buffer, and the table's counters — before the
statement and after it failed. The one allowed difference is the rid a
failed INSERT burns, which ``restore_counters`` puts back before the
comparison; ``modification_counter`` is compared as it stands.

The probe sweeps three 3 000-row designs (heap, clustered B+ tree and
primary columnstore, each with a secondary B+ tree on ``a``, the first
two also with a secondary columnstore) x four statements x the first and
the last hit of every point each statement's dry run reaches. Two more
cases cover an auto tuple move undone after a later structure fails, and
a paged-open clustered table whose first write materializes it.
"""

import pytest

from repro.core.errors import SchemaError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.executor import Executor
from repro.storage.checker import check_database
from repro.storage.database import Database
from repro.storage.faults import InjectedFault
from repro.storage.recovery import state_digest

ROWS = 3000
ROWGROUP = 1024

STATEMENTS = {
    "delete": "DELETE FROM t WHERE k < 40",
    "update_value": "UPDATE t SET a = a + 1 WHERE k < 40",
    "update_key": "UPDATE t SET k = k + 100000 WHERE k < 40",
    "insert": "INSERT INTO t (k, a, s) VALUES (90000, 7, 'x'), "
              "(90001, 8, 'y')",
}


def schema():
    return TableSchema("t", [
        Column("k", INT, nullable=False),
        Column("a", INT),
        Column("s", varchar(8)),
    ])


def build(design, rows=ROWS, rowgroup=ROWGROUP, csi_first=False):
    """A ``design`` table; its secondary columnstore (heap and B+ only)
    comes after the secondary B+ tree in apply order, or before it."""
    db = Database()
    table = db.create_table(schema())
    table.bulk_load([(i, i % 97, f"s{i % 5}") for i in range(rows)])
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=rowgroup)

    def secondary_csi():
        if design != "csi":
            table.create_secondary_columnstore("csi_t", rowgroup_size=rowgroup)

    if csi_first:
        secondary_csi()
    table.create_secondary_btree("ix_a", ["a"])
    if not csi_first:
        secondary_csi()
    return db


def failed_digest(db, sql, point, on_hit):
    """The digest after ``sql`` fails at hit ``on_hit`` of ``point``,
    with the rid counter put back."""
    table = db.table("t")
    next_rid = table._next_rid
    before = state_digest(db)
    db.fault_injector.arm(point, on_hit=on_hit)
    with pytest.raises(InjectedFault):
        Executor(db).execute(sql)
    db.fault_injector.disarm()
    table.restore_counters(next_rid, table.modification_counter)
    assert check_database(db).ok
    return before, state_digest(db)


def hit_profile(design, sql):
    db = build(design)
    db.fault_injector.reset()
    Executor(db).execute(sql)
    return {p: n for p, n in db.fault_injector.hits.items() if n}


def test_every_rolled_back_statement_restores_the_digest():
    cases, wrong = 0, []
    for design in ("heap", "btree", "csi"):
        for name, sql in STATEMENTS.items():
            for point, n_hits in sorted(hit_profile(design, sql).items()):
                for on_hit in sorted({1, n_hits}):
                    cases += 1
                    before, after = failed_digest(build(design), sql, point,
                                                  on_hit)
                    if after != before:
                        wrong.append((design, name, point, on_hit))
    assert cases > 80
    assert not wrong, f"{len(wrong)} of {cases} rolled back to a new state"


@pytest.mark.parametrize("design", ["heap", "btree"])
def test_auto_tuple_move_is_undone_when_a_later_index_fails(design):
    """The secondary columnstore's delta store is one row short of a row
    group, so the INSERT's first row moves it; the secondary B+ tree,
    applied after it, then fails on that row or the next."""
    def nearly_full():
        db = build(design, rows=200, rowgroup=64)
        table = db.table("t")
        for i in range(63):
            table.insert_row((5000 + i, i, "d"))
        assert table.secondary_indexes["csi_t"].delta_rows == 63
        return db

    for on_hit in (1, 2):
        db = nearly_full()
        groups = db.table("t").secondary_indexes["csi_t"].n_rowgroups
        before, after = failed_digest(
            db, STATEMENTS["insert"],
            "btree.insert" if design == "heap" else "table.secondary_apply",
            on_hit if design == "heap" else 2 * on_hit)
        assert after == before
        assert db.table("t").secondary_indexes["csi_t"].n_rowgroups == groups


def test_paged_clustered_table_materializes_and_rolls_back(tmp_path):
    db = build("btree", rows=2000)
    db.table("t").drop_index("csi_t")
    db.enable_durability(str(tmp_path))
    db.close()
    reference = Database.open(str(tmp_path), paging=True,
                              pool_bytes=256 * 1024)
    before = state_digest(reference)
    reference.close()
    # Each fault comes after the primary's first write, which
    # materialized it.
    for name, point, on_hit in (("update_key", "table.secondary_apply", 1),
                                ("delete", "table.secondary_apply", 1),
                                ("insert", "btree.insert", 2)):
        paged = Database.open(str(tmp_path), paging=True,
                              pool_bytes=256 * 1024)
        try:
            table = paged.table("t")
            assert table.primary.is_paged
            next_rid = table._next_rid
            paged.fault_injector.arm(point, on_hit=on_hit)
            with pytest.raises(InjectedFault):
                Executor(paged).execute(STATEMENTS[name])
            assert not table.primary.is_paged
            table.restore_counters(next_rid, table.modification_counter)
            assert check_database(paged).ok
            assert state_digest(paged) == before
        finally:
            paged.close()


def counter_schema():
    return TableSchema("t", [
        Column("k", INT, nullable=False),
        Column("s", varchar(4)),
    ])


@pytest.mark.parametrize("design", ["heap", "btree", "csi"])
def test_failed_multi_row_insert_leaves_counters(design):
    db = Database()
    table = db.create_table(counter_schema())
    table.bulk_load([(i, f"v{i % 9}") for i in range(100)])
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=64)
    table.create_secondary_btree("ix_s", ["s"])
    before = state_digest(db)
    with pytest.raises(SchemaError):
        Executor(db).execute(
            "INSERT INTO t (k, s) VALUES (500, 'a'), (501, 'toolongvalue')")
    assert table.modification_counter == 100
    assert [index.usage.user_updates for index in table.all_indexes] == \
        [0, 0]
    table.restore_counters(table._next_rid - 1, table.modification_counter)
    assert state_digest(db) == before
    # The same statement with valid rows counts both rows, and counts
    # once on each index.
    Executor(db).execute("INSERT INTO t (k, s) VALUES (500, 'a'), (501, 'b')")
    assert table.modification_counter == 102
    assert [index.usage.user_updates for index in table.all_indexes] == \
        [1, 1]


def test_rolled_back_insert_that_split_leaves_restores_the_digest():
    """Every row of the INSERT lands in one leaf of the clustered tree
    and one of the secondary B+ tree, a leaf's capacity of them, so both
    split; the statement fails on its last row. Rolling back deletes the
    rows (borrowing and merging as deletes do), which does not give back
    the leaves from before, but a snapshot cuts its pages where a bulk
    load cuts leaves, so the digest is the one from before."""
    db = build("btree")
    table = db.table("t")
    trees = [table.primary.tree, table.secondary_indexes["ix_a"].tree]
    n_rows = max(tree.leaf_capacity for tree in trees)
    pages = [tree._next_page_no for tree in trees]     # one more a split
    sql = ("INSERT INTO t (k, a, s) VALUES "
           + ", ".join(["(1500, 3, 'x')"] * n_rows))
    # A row is inserted into the clustered tree, then the secondary.
    before, after = failed_digest(db, sql, "btree.insert", 2 * n_rows)
    assert all(tree._next_page_no > count
               for tree, count in zip(trees, pages))
    assert after == before

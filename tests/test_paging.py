"""Demand paging: differential paged vs fully-loaded databases.

The tentpole contract under test: ``Database.open(..., paging=True)``
serves exactly the same database as the default fully-loaded open —
identical rows, identical modeled metrics, identical ``state_digest``,
identical checker verdicts — while B+ leaf pages and columnstore
segment pages stay on disk behind the buffer pool until first touch.
The eviction test proves a table ~4x the pool budget scans with peak
residency bounded by the budget.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal, varchar
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionContext
from repro.storage.btree import iter_entries
from repro.storage.checker import check_database
from repro.storage.database import Database
from repro.storage.pages import BTREE_ITEMS_PER_PAGE, Records
from repro.storage.recovery import recover, state_digest


#: Rows of ``n`` whose ``y`` is NULL: every fifth row of its third leaf
#: page, so that page decodes to lists and the others to columns.
NULL_Y = range(2 * BTREE_ITEMS_PER_PAGE, 3 * BTREE_ITEMS_PER_PAGE, 5)


def build_mixed_db():
    """Hybrid physical design: clustered B+ tree + secondary B+ tree on
    one table, primary columnstore on another, and an all-numeric
    clustered B+ tree (with a secondary) whose leaves fault in as
    columns, but for the one page where ``y`` has NULLs."""
    database = Database("paging")
    t = database.create_table(TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", varchar(16)),
        Column("c", INT),
    ]))
    t.bulk_load([(i, f"v{i % 7}", i * 3) for i in range(5000)])
    t.set_primary_btree(["a"])
    t.create_secondary_btree("ix_c", ["c"])
    u = database.create_table(TableSchema("u", [
        Column("a", INT, nullable=False),
        Column("b", INT),
    ]))
    u.bulk_load([(i, i * 2) for i in range(4096)])
    u.set_primary_columnstore(name="u_csi", rowgroup_size=1024)
    n = database.create_table(TableSchema("n", [
        Column("k", INT, nullable=False),
        Column("x", INT, nullable=False),
        Column("f", decimal(2)),
        Column("y", BIGINT),
    ]))
    n.bulk_load([(i, i * 7 % 1000, i / 4, None if i in NULL_Y else i << 34)
                 for i in range(5000)])
    n.set_primary_btree(["k"])
    n.create_secondary_btree("ix_x", ["x"], included_columns=["f"])
    return database


@pytest.fixture
def durable_dir(tmp_path):
    database = build_mixed_db()
    database.enable_durability(str(tmp_path))
    database.wal.close()
    return str(tmp_path)


def open_both(durable_dir, pool_bytes=1 << 20):
    full = Database.open(durable_dir)
    paged = Database.open(durable_dir, paging=True, pool_bytes=pool_bytes)
    return full, paged


def csi_rows(database):
    rows = []
    for batch in database.table("u").primary.scan(["a", "b"]):
        a, b = batch.column("a"), batch.column("b")
        a = a.materialize() if hasattr(a, "materialize") else a
        b = b.materialize() if hasattr(b, "materialize") else b
        rows.extend(zip(a.tolist(), b.tolist()))
    return rows


class TestPagedOpen:
    def test_open_is_lazy(self, durable_dir):
        paged = Database.open(durable_dir, paging=True, pool_bytes=1 << 20)
        assert paged.buffer_pool is not None
        # Nothing replayed, nothing faulted: the checker was deferred
        # and no deferred page is resident yet.
        assert paged.last_recovery.check_mode == "deferred"
        assert paged.last_recovery.check_ok
        assert paged.buffer_pool.bytes_resident == 0
        assert paged.table("t").primary.is_paged
        assert paged.table("t").secondary_indexes["ix_c"].is_paged
        assert all(s.group.is_paged
                   for s in paged.table("u").primary._groups)

    def test_default_open_has_no_pool(self, durable_dir):
        full = Database.open(durable_dir)
        assert full.buffer_pool is None
        assert full.last_recovery.check_mode == "full"

    def test_pool_bytes_requires_paging(self, durable_dir):
        from repro.core.errors import StorageError
        with pytest.raises(StorageError):
            Database.open(durable_dir, pool_bytes=1 << 20)


class TestDifferentialReads:
    def test_scans_and_seeks_identical(self, durable_dir):
        full, paged = open_both(durable_dir)
        # Chunk boundaries differ (leaf vs snapshot page); entries do not.
        def entries(chunks):
            return list(iter_entries(chunks))
        assert (entries(full.table("t").primary.scan())
                == entries(paged.table("t").primary.scan()))
        assert csi_rows(full) == csi_rows(paged)
        assert (entries(full.table("t").primary.seek_range((100,), (200,)))
                == entries(paged.table("t").primary.seek_range((100,), (200,))))
        ix_f = full.table("t").secondary_indexes["ix_c"]
        ix_p = paged.table("t").secondary_indexes["ix_c"]
        assert (entries(ix_f.seek_range((300,), (600,)))
                == entries(ix_p.seek_range((300,), (600,))))
        # Exclusive bounds and point lookups too.
        assert (entries(ix_f.seek_range((300,), (600,), low_inclusive=False,
                                        high_inclusive=False))
                == entries(ix_p.seek_range((300,), (600,), low_inclusive=False,
                                           high_inclusive=False)))
        rid, row = next(full.table("t").iter_rows())
        assert (full.table("t").primary.fetch(rid)
                == paged.table("t").primary.fetch(rid) == row)
        # The numeric table: every leaf page, whichever way it decoded.
        n_f, n_p = full.table("n").primary, paged.table("n").primary
        assert entries(n_f.scan()) == entries(n_p.scan())
        for low, high in ((0, 4999), (1000, 1030), (2040, 2060), (4321, 4321)):
            assert (entries(n_f.seek_range((low,), (high,)))
                    == entries(n_p.seek_range((low,), (high,))))
        ix_f = full.table("n").secondary_indexes["ix_x"]
        ix_p = paged.table("n").secondary_indexes["ix_x"]
        assert entries(ix_f.scan()) == entries(ix_p.scan())
        assert (entries(ix_f.seek_range((10,), (20,)))
                == entries(ix_p.seek_range((10,), (20,))))
        for rid, row in list(full.table("n").iter_rows())[::499]:
            assert (n_f.fetch(rid) == n_p.fetch(rid)
                    == row)
        assert n_p.is_paged      # a rid fetch reads one page, in place

    def test_numeric_leaves_fault_in_both_page_kinds(self, durable_dir):
        _, paged = open_both(durable_dir)
        source = paged.table("n").primary._paged
        # Both page kinds fault in as the one leaf representation: the
        # fixed-layout pages adopt their typed columns, and the page with
        # NULLs in ``y`` holds that column (only) as an object array.
        pages = [source.fetch(page_no)[1] for page_no in range(source.n_pages)]
        assert {type(values) for values in pages} == {Records}
        assert ([[column.dtype.kind for column in values.columns]
                 for values in pages]
                == [list("iifi")] * 2 + [list("iifO")] + [list("iifi")] * 2)

    def test_modeled_metrics_identical(self, durable_dir):
        """Paged reads charge exactly the modeled costs of the in-memory
        path: traversal from the simulated bulk-load height, range I/O
        from rows touched, segment reads from stored sizes."""
        full, paged = open_both(durable_dir)
        for cold in (False, True):
            ctx_f = ExecutionContext(cold=cold)
            ctx_p = ExecutionContext(cold=cold)
            list(full.table("t").primary.seek_range((50,), (950,), ctx=ctx_f))
            list(paged.table("t").primary.seek_range((50,), (950,),
                                                     ctx=ctx_p))
            for name, low, high in (("t", 50, 950), ("n", 1500, 3500),
                                    ("n", 2100, 2100)):
                list(full.table(name).primary.seek_range(
                    (low,), (high,), ctx=ctx_f))
                list(paged.table(name).primary.seek_range(
                    (low,), (high,), ctx=ctx_p))
            list(full.table("u").primary.scan(
                ["a", "b"], ctx=ctx_f,
                elimination_ranges={"a": (0, 1500)}))
            list(paged.table("u").primary.scan(
                ["a", "b"], ctx=ctx_p,
                elimination_ranges={"a": (0, 1500)}))
            assert (dataclasses.asdict(ctx_f.metrics)
                    == dataclasses.asdict(ctx_p.metrics))

    def test_state_digest_and_checker_identical(self, durable_dir):
        full, paged = open_both(durable_dir)
        # Faulted leaves of both kinds are what the checker then reads.
        Executor(paged).execute("SELECT count(y), max(f) FROM n")
        result = check_database(paged)
        assert result.ok, result.errors
        assert state_digest(paged) == state_digest(full)

    def test_sql_results_identical(self, durable_dir):
        full, paged = open_both(durable_dir)
        for sql in (
            "SELECT COUNT(*) FROM t WHERE c > 600",
            "SELECT a, b FROM t WHERE a BETWEEN 10 AND 40",
            "SELECT SUM(b) FROM u WHERE a < 2000",
            "SELECT k, f, y FROM n WHERE k BETWEEN 2000 AND 2100",
            "SELECT k, y FROM n WHERE k = 2050",
            "SELECT count(*), count(y), min(y), max(f) FROM n WHERE k > 1900",
            "SELECT x, f FROM n WHERE x BETWEEN 5 AND 9",
            "SELECT TOP 3 k, y FROM n WHERE k > 4000 ORDER BY k",
        ):
            rf = Executor(full).execute(sql)
            rp = Executor(paged).execute(sql)
            assert [tuple(r) for r in rf.rows] == [tuple(r) for r in rp.rows]

    def test_warm_scan_hits_pool(self, durable_dir):
        _, paged = open_both(durable_dir)
        csi_rows(paged)
        cold_misses = paged.buffer_pool.misses
        assert cold_misses > 0
        assert paged.buffer_pool.hits == 0
        csi_rows(paged)
        assert paged.buffer_pool.misses == cold_misses
        assert paged.buffer_pool.hits > 0


class TestDifferentialDml:
    def test_dml_and_recovery_identical(self, tmp_path):
        database = build_mixed_db()
        database.enable_durability(str(tmp_path))
        # Logged DML after the checkpoint: the paged reopen must redo it
        # (forcing residency of the touched structures) and converge to
        # the same digest as the fully-loaded reopen.
        t = database.table("t")
        t.delete_rids([10, 11, 12])
        t.insert_row((99999, "zz", 42))
        t.update_rids([(20, (20, "upd", -1))])
        database.wal.close()
        full, paged = open_both(str(tmp_path))
        assert paged.last_recovery.ops_replayed > 0
        # With redo work the consistency check is NOT deferred.
        assert paged.last_recovery.check_mode == "full"
        assert paged.last_recovery.check_ok
        assert state_digest(paged) == state_digest(full)

    def test_dml_on_paged_database(self, durable_dir):
        full, paged = open_both(durable_dir)
        for db in (full, paged):
            db.table("t").delete_rids([100, 101])
            db.table("t").insert_row((88888, "new", 7))
            db.table("u").primary.rebuild()
        assert state_digest(paged) == state_digest(full)
        result = check_database(paged)
        assert result.ok, result.errors

    def test_sql_dml_after_faults(self, durable_dir):
        """DML located through faulted leaves of both kinds, then the
        reads that follow it, answer as on the fully loaded database."""
        full, paged = open_both(durable_dir, pool_bytes=64 * 1024)
        statements = (
            "SELECT k, y FROM n WHERE k BETWEEN 2040 AND 2060",
            # located across a page of columns and a page of lists
            "DELETE FROM n WHERE k BETWEEN 1990 AND 2100",
            "UPDATE n SET y = 5 WHERE k BETWEEN 2145 AND 2155",
            "UPDATE n SET f = f + 1 WHERE x = 14",
            "INSERT INTO n VALUES (9000, 1, 0.5, NULL)",
            "SELECT count(*), sum(x), count(y) FROM n",
            "SELECT k, f, y FROM n WHERE k BETWEEN 1980 AND 2160",
            "SELECT x, f FROM n WHERE x = 14",
        )
        for sql in statements:
            rf, rp = Executor(full).execute(sql), Executor(paged).execute(sql)
            assert rf.rows == rp.rows, sql
            assert rf.metrics == rp.metrics, sql
        assert state_digest(paged) == state_digest(full)
        result = check_database(paged)
        assert result.ok, result.errors

    def test_checkpoint_of_paged_database(self, durable_dir, tmp_path):
        _, paged = open_both(durable_dir)
        paged.table("t").insert_row((77777, "ck", 1))
        path = paged.checkpoint()
        reopened = Database.open(durable_dir)
        assert reopened.last_recovery.check_ok
        assert 77777 in {row[0] for _, row in
                         reopened.table("t").iter_rows()}
        assert state_digest(reopened) == state_digest(paged)

    def test_write_free_checkpoint_keeps_trees_paged(self, tmp_path):
        """A checkpoint reads paged B+ leaves through the pool, within
        its budget: neither tree materializes, both still answer, and
        the snapshot it wrote is the database's."""
        database = Database("ck")
        table = database.create_table(TableSchema("t", [
            Column("k", INT, nullable=False), Column("v", INT)]))
        table.bulk_load([(i, i * 7 % 1000) for i in range(20000)])
        table.set_primary_btree(["k"])
        table.create_secondary_btree("ix_v", ["v"])
        digest = state_digest(database)
        database.enable_durability(str(tmp_path))
        database.close()
        paged = Database.open(str(tmp_path), paging=True,
                              pool_bytes=65536)
        try:
            primary = paged.table("t").primary
            secondary = paged.table("t").secondary_indexes["ix_v"]
            paged.checkpoint()
            pool = paged.buffer_pool
            assert pool.misses > 0
            assert primary.is_paged and secondary.is_paged
            assert pool.peak_bytes <= pool.budget_bytes
            assert (list(iter_entries(primary.seek_range((12345,), (12345,))))
                    == [((12345, 12345), (12345, 12345 * 7 % 1000))])
            assert ([key for key, _ in iter_entries(
                secondary.seek_range((5,), (5,)))]
                    == [(5, i) for i in range(20000) if i * 7 % 1000 == 5])
            assert sum(len(keys) for keys, _ in primary.scan()) == 20000
            assert sum(len(keys) for keys, _ in secondary.scan()) == 20000
            assert primary.is_paged and secondary.is_paged
            assert pool.peak_bytes <= pool.budget_bytes
        finally:
            paged.close()
        eager = Database.open(str(tmp_path))
        try:
            assert state_digest(eager) == digest
        finally:
            eager.close()

    def test_rebuild_invalidates_pool(self, durable_dir):
        _, paged = open_both(durable_dir)
        csi_rows(paged)
        oid = paged.table("u").primary.object_id
        pool = paged.buffer_pool
        assert any(page[0] == oid for page in pool._resident)
        paged.table("u").primary.rebuild()
        assert not any(page[0] == oid for page in pool._resident)
        assert pool.invalidations > 0
        # Rebuilt groups are in-memory: scans no longer fault.
        before = pool.misses
        csi_rows(paged)
        assert pool.misses == before


class TestEvictionBound:
    def test_peak_residency_bounded_by_budget(self, tmp_path):
        """Scan a table ~4x the pool budget, twice; peak residency never
        exceeds the budget and eviction (not growth) absorbs the excess."""
        rng = np.random.RandomState(0)
        database = Database("big")
        table = database.create_table(TableSchema("big", [
            Column("k", INT, nullable=False),
            Column("x", INT),
        ]))
        # Random payloads defeat RLE so segments stay ~raw-sized.
        table.bulk_load([(i, int(rng.randint(0, 2 ** 31)))
                         for i in range(64 * 1024)])
        table.set_primary_columnstore(name="big_csi", rowgroup_size=1024)
        total_bytes = database.table("big").primary.size_bytes()
        database.enable_durability(str(tmp_path))
        database.wal.close()

        budget = total_bytes // 4
        paged = Database.open(str(tmp_path), paging=True,
                              pool_bytes=budget)
        index = paged.table("big").primary
        pool = paged.buffer_pool
        assert pool.budget_bytes == budget
        for _ in range(2):
            n = 0
            for batch in index.scan(["k", "x"]):
                n += len(batch)
            assert n == 64 * 1024
        assert pool.evictions > 0
        assert pool.peak_bytes <= budget, (
            f"peak residency {pool.peak_bytes} exceeded budget {budget}")
        assert pool.bytes_resident <= budget
        # And the data really was larger than the pool.
        assert total_bytes >= 4 * budget


def frames(pool, owner):
    """The pool keys resident under one owner: a columnstore's object id
    or a paged B+ index's leaf source."""
    return set(pool._by_object.get(owner, ()))


def owner(index):
    return index.object_id if index.kind == "csi" else index._paged


def fault_in(index):
    """Read every page of ``index`` through the pool."""
    if index.kind == "csi":
        for _ in index.scan(index.columns):
            pass
    else:
        for _ in index.scan():
            pass


class TestRelease:
    """A structure's pool frames go exactly when no read can reach them
    again — the table drops or replaces it, or a rebuild moves its rows
    into memory — and only its own frames go."""

    def test_write_to_one_btree_keeps_the_others_leaves(self, durable_dir):
        _, paged = open_both(durable_dir)
        pool = paged.buffer_pool
        executor = Executor(paged)
        executor.execute("SELECT sum(a) FROM t")
        executor.execute("SELECT sum(k) FROM n")
        # Materializes n's indexes, which releases their leaf frames.
        executor.execute("INSERT INTO n VALUES (9000, 1, 0.5, NULL)")
        assert not paged.table("n").primary.is_paged
        misses = pool.misses
        executor.execute("SELECT sum(a) FROM t")
        assert pool.misses == misses        # t's leaves stayed resident
        pool.check_consistency()

    def test_drop_index_releases_paged_secondary_btree(self, durable_dir):
        _, paged = open_both(durable_dir)
        pool = paged.buffer_pool
        table = paged.table("t")
        index = table.secondary_indexes["ix_c"]
        fault_in(index)
        fault_in(table.primary)
        index_owner, kept = owner(index), frames(pool, owner(table.primary))
        assert frames(pool, index_owner) and kept
        table.drop_index("ix_c")
        assert not frames(pool, index_owner)
        assert frames(pool, owner(table.primary)) == kept
        pool.check_consistency()

    def test_drop_table_releases_every_structure(self, durable_dir):
        _, paged = open_both(durable_dir)
        pool = paged.buffer_pool
        for name in ("t", "u"):
            table = paged.table(name)
            structures = table.all_indexes
            for index in structures:
                fault_in(index)
            owners = [owner(index) for index in structures]
            assert all(frames(pool, o) for o in owners)
            paged.drop_table(name)
            assert not any(frames(pool, o) for o in owners)
            pool.check_consistency()
        assert frames(pool, owner(paged.table("n").primary)) == set()
        fault_in(paged.table("n").primary)
        assert frames(pool, owner(paged.table("n").primary))

    @pytest.mark.parametrize("table_name, convert", [
        ("t", lambda table: table.set_primary_heap()),
        ("n", lambda table: table.set_primary_columnstore()),
        ("u", lambda table: table.set_primary_btree(["a"])),
    ])
    def test_replaced_primary_is_released(self, durable_dir, table_name,
                                          convert):
        full, paged = open_both(durable_dir)
        pool = paged.buffer_pool
        table = paged.table(table_name)
        fault_in(table.primary)
        replaced = owner(table.primary)
        assert frames(pool, replaced)
        convert(table)
        convert(full.table(table_name))
        assert not frames(pool, replaced)
        pool.check_consistency()
        sql = f"SELECT * FROM {table_name}"
        assert (sorted(Executor(paged).execute(sql).rows)
                == sorted(Executor(full).execute(sql).rows))


def build_secondary_csi_dir(tmp_path):
    """A clustered B+ table with a secondary columnstore of 64-row
    groups, saved durable; returns the directory."""
    database = Database("secondary")
    w = database.create_table(TableSchema("w", [
        Column("k", INT, nullable=False),
        Column("v", INT, nullable=False),
    ]))
    w.bulk_load([(i, i % 13) for i in range(1000)])
    w.set_primary_btree(["k"])
    w.create_secondary_columnstore("w_csi", rowgroup_size=64)
    database.enable_durability(str(tmp_path))
    database.wal.close()
    return str(tmp_path)


def tuple_move(database):
    Executor(database).execute(
        "INSERT INTO w VALUES (1000, 1), (1001, 2), (1002, 3)")
    database.table("w").secondary_indexes["w_csi"].move_tuples()


def rolled_back_tuple_move(database):
    """A 65-row INSERT whose 64th row fills the delta store (an automatic
    tuple move) and whose 65th row fails: the move is undone."""
    csi = database.table("w").secondary_indexes["w_csi"]
    moves = []
    move = csi.move_tuples
    csi.move_tuples = lambda *args, **kwargs: (
        moves.append(1), move(*args, **kwargs))[1]
    values = ", ".join(f"({k}, 1)" for k in range(2000, 2064))
    with pytest.raises(ReproError):
        Executor(database).execute(
            f"INSERT INTO w VALUES {values}, (2064, NULL)")
    del csi.move_tuples
    assert moves


def compaction(database):
    Executor(database).execute("DELETE FROM w WHERE k < 100")
    csi = database.table("w").secondary_indexes["w_csi"]
    assert csi._delete_buffer
    csi.compact_delete_buffer()


class TestMaintenanceKeepsFrames:
    """A tuple move (committed or undone) and a delete-buffer compaction
    leave every existing row group as it was, so its segment frames stay
    resident, and the columnstore answers as its resident twin does."""

    @pytest.mark.parametrize("operation", [
        tuple_move, rolled_back_tuple_move, compaction])
    def test_segment_frames_survive(self, tmp_path, operation):
        data_dir = build_secondary_csi_dir(tmp_path)
        full, paged = open_both(data_dir)
        pool = paged.buffer_pool
        csi = paged.table("w").secondary_indexes["w_csi"]
        fault_in(csi)
        resident = frames(pool, csi.object_id)
        assert resident
        operation(full)
        operation(paged)
        assert frames(pool, csi.object_id) == resident
        pool.check_consistency()
        for sql in ("SELECT v, count(*) FROM w GROUP BY v",
                    "SELECT sum(k), count(*) FROM w WHERE v < 5"):
            rf, rp = Executor(full).execute(sql), Executor(paged).execute(sql)
            assert sorted(rf.rows) == sorted(rp.rows), sql
            assert rf.metrics == rp.metrics, sql
        twin = full.table("w").secondary_indexes["w_csi"]
        scanned = [[batch.column(c) for c in ("k", "v")]
                   for batch in csi.scan(["k", "v"], include_rids=True)]
        expected = [[batch.column(c) for c in ("k", "v")]
                    for batch in twin.scan(["k", "v"], include_rids=True)]
        assert len(scanned) == len(expected)
        for got, want in zip(scanned, expected):
            for a, b in zip(got, want):
                a = a.materialize() if hasattr(a, "materialize") else a
                b = b.materialize() if hasattr(b, "materialize") else b
                assert a.tolist() == b.tolist()
        assert state_digest(paged) == state_digest(full)

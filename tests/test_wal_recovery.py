"""Write-ahead logging and crash recovery.

Covers the durability contract at the WAL level: committed statements
survive recovery, aborted/uncommitted statements never do, recovery is
idempotent, DDL and explicit maintenance replay, checkpoints bound the
redo work, and — the property test — truncating the log at *every*
byte boundary still recovers to exactly some committed prefix of the
history.
"""

import os
import random
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import RecoveryError
from repro.storage.faults import InjectedFault
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal, varchar
from repro.engine.executor import Executor
from repro.storage.database import Database
from repro.storage.recovery import recover, state_digest
from repro.storage.wal import (
    REC_BEGIN,
    REC_CHECKPOINT,
    REC_COMMIT,
    REC_OP,
    WAL_FILENAME,
    WriteAheadLog,
    read_wal,
)
from tests.oracle import examples


def schema(name="t"):
    return TableSchema(name, [
        Column("a", INT, nullable=False),
        Column("b", INT),
        Column("s", varchar(8)),
    ])


def durable_db(tmp_path, design="hybrid", n_rows=200):
    database = Database("wal")
    table = database.create_table(schema())
    table.bulk_load([(i, i % 5, f"s{i % 3}") for i in range(n_rows)])
    if design in ("btree", "hybrid"):
        table.set_primary_btree(["a"])
    if design == "hybrid":
        table.create_secondary_columnstore("csi_t", rowgroup_size=64)
    if design == "csi":
        table.set_primary_columnstore(rowgroup_size=64)
    database.enable_durability(str(tmp_path))
    return database


class TestWalFile:
    def test_records_roundtrip(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.log_op(txn, {"op": "insert", "rid": 1, "row": (1, "x")})
        wal.commit(txn)
        wal.log_ops([{"op": "delete", "rids": [4]}])
        wal.close()
        scan = read_wal(path)
        assert not scan.torn
        assert [r.rec_type for r in scan.records] == [
            REC_BEGIN, REC_OP, REC_COMMIT, REC_BEGIN, REC_OP, REC_COMMIT]
        assert scan.records[1].payload == {
            "op": "insert", "rid": 1, "row": (1, "x")}
        assert [r.lsn for r in scan.records] == list(range(1, 7))
        assert scan.committed_txns() == {1, 2}

    def test_statement_scope_is_atomic(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        with wal.statement():
            wal.log_ops([{"op": "a"}])
            with wal.statement():  # nested scope joins the outer txn
                wal.log_ops([{"op": "b"}])
        scan = read_wal(path)
        assert {r.txn for r in scan.records} == {1}
        assert len([r for r in scan.records
                    if r.rec_type == REC_COMMIT]) == 1

    def test_failed_statement_aborts(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        with pytest.raises(RuntimeError):
            with wal.statement():
                wal.log_ops([{"op": "doomed"}])
                raise RuntimeError("statement failed")
        scan = read_wal(path)
        assert scan.committed_txns() == frozenset()
        assert scan.aborted_txns() == {1}
        # The buffered op was discarded, never written.
        assert not [r for r in scan.records if r.rec_type == REC_OP]

    def test_checkpoint_resets_log(self, tmp_path):
        path = str(tmp_path / WAL_FILENAME)
        wal = WriteAheadLog(path)
        for _ in range(5):
            wal.log_ops([{"op": "x"}])
        wal.checkpoint(wal.last_lsn)
        wal.close()
        scan = read_wal(path)
        assert len(scan.records) == 1
        assert scan.records[0].rec_type == REC_CHECKPOINT
        assert scan.checkpoint_lsn() == 15


class TestRecovery:
    def test_committed_statements_survive(self, tmp_path):
        database = durable_db(tmp_path)
        executor = Executor(database)
        executor.execute("INSERT INTO t (a, b, s) VALUES (900, 1, 'n')")
        executor.execute("DELETE FROM t WHERE a < 10")
        executor.execute("UPDATE t SET b = 77 WHERE a BETWEEN 50 AND 60")
        recovered, report = recover(str(tmp_path))
        assert report.check_ok
        assert report.txns_committed == 3
        assert state_digest(recovered) == state_digest(database)

    def test_aborted_statement_invisible(self, tmp_path):
        database = durable_db(tmp_path)
        executor = Executor(database)
        # An organic failure mid-statement: the engine rolls the
        # statement back in memory and the WAL scope writes an ABORT.
        database.fault_injector.arm("table.secondary_apply", on_hit=1)
        with pytest.raises(InjectedFault):
            executor.execute("INSERT INTO t (a, b, s) VALUES (901, 1, 'n')")
        executor.execute("INSERT INTO t (a, b, s) VALUES (902, 2, 'y')")
        recovered, report = recover(str(tmp_path))
        assert report.check_ok
        assert report.txns_aborted == 1
        values = {row[0] for _, row in recovered.table("t").iter_rows()}
        assert 901 not in values and 902 in values
        assert state_digest(recovered) == state_digest(database)

    def test_ddl_and_maintenance_replay(self, tmp_path):
        database = durable_db(tmp_path, design="btree")
        table = database.table("t")
        table.create_secondary_columnstore("csi_t", rowgroup_size=64)
        Executor(database).execute("DELETE FROM t WHERE a < 50")
        table.secondary_indexes["csi_t"].rebuild()
        table.create_secondary_btree("ix_b", ["b"])
        table.drop_index("ix_b")
        other = database.create_table(schema("t2"))
        for i in range(20):
            other.insert_row((i, i, "x"))
        database.drop_table("t2")
        recovered, report = recover(str(tmp_path))
        assert report.check_ok
        assert not recovered.has_table("t2")
        assert state_digest(recovered) == state_digest(database)

    def test_checkpoint_bounds_redo(self, tmp_path):
        database = durable_db(tmp_path)
        executor = Executor(database)
        executor.execute("INSERT INTO t (a, b, s) VALUES (900, 1, 'n')")
        database.checkpoint()
        executor.execute("INSERT INTO t (a, b, s) VALUES (901, 1, 'n')")
        recovered, report = recover(str(tmp_path))
        assert report.check_ok
        # Only the post-checkpoint statement replays.
        assert report.ops_replayed == 1
        assert state_digest(recovered) == state_digest(database)

    def test_recovery_idempotent(self, tmp_path):
        database = durable_db(tmp_path)
        executor = Executor(database)
        for i in range(10):
            executor.execute(
                f"INSERT INTO t (a, b, s) VALUES ({1000 + i}, 1, 'n')")
            if i == 4:
                database.checkpoint()
        first, _ = recover(str(tmp_path))
        second, _ = recover(str(tmp_path))
        assert state_digest(first) == state_digest(second)

    def test_reopen_continues_lsn_and_txn(self, tmp_path):
        database = durable_db(tmp_path)
        Executor(database).execute(
            "INSERT INTO t (a, b, s) VALUES (900, 1, 'n')")
        database.wal.close()
        reopened = Database.open(str(tmp_path))
        Executor(reopened).execute(
            "INSERT INTO t (a, b, s) VALUES (901, 1, 'n')")
        reopened.wal.close()
        scan = read_wal(str(tmp_path / WAL_FILENAME))
        lsns = [r.lsn for r in scan.records]
        assert lsns == sorted(lsns) and len(set(lsns)) == len(lsns)
        final = Database.open(str(tmp_path))
        values = {row[0] for _, row in final.table("t").iter_rows()}
        assert {900, 901} <= values
        assert final.last_recovery.check_ok

    def test_unrecoverable_snapshot_raises(self, tmp_path):
        database = durable_db(tmp_path)
        del database
        snapshot = str(tmp_path / "snapshot.db")
        blob = bytearray(open(snapshot, "rb").read())
        blob[len(blob) // 3] ^= 0xFF
        with open(snapshot, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(RecoveryError):
            recover(str(tmp_path))


# ------------------------------------------- multi-row ops as leaf columns

WIDE = TableSchema("w", [
    Column("k", INT, nullable=False),
    Column("g", INT, nullable=False),
    Column("b", BIGINT),
    Column("d", decimal(2)),
    Column("s", varchar(12)),
])
N_ROWS = 1400
N_UPDATED = 1100


def pool(values):
    """A few values of one nullable field, NULL among the choices."""
    return st.lists(st.none() | values, min_size=1, max_size=6)


#: Each example builds its rows from a few drawn values per field: int64's
#: ends (a BIGINT beyond them is refused at validation), -0.0, any text.
field_pools = st.tuples(
    pool(st.sampled_from([-2 ** 63, 2 ** 63 - 1, 0, -1])
         | st.integers(-2 ** 63, 2 ** 63 - 1)),
    pool(st.sampled_from([-0.0, 0.0, 0.5]) | st.floats(-1e6, 1e6)),
    pool(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)),
    st.integers(0, 2 ** 32))


def wide_history(data_dir, design, pools, checkpoint):
    """A durable database whose WAL holds a bulk load, an UPDATE of
    N_UPDATED rows in no rid order and a DELETE of a seventh of the rows,
    into a heap, clustered B+ or primary CSI table with a secondary B+
    index; ``checkpoint`` snapshots it between the load and the DML."""
    bigints, decimals, strings, seed = pools
    rng = random.Random(seed)

    def row(k):
        return (k, k % 7, rng.choice(bigints), rng.choice(decimals),
                rng.choice(strings))

    database = Database("rows")
    database.enable_durability(data_dir)
    table = database.create_table(WIDE)
    table.bulk_load([row(k) for k in range(N_ROWS)])
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=512)
    table.create_secondary_btree("ix_g", ["g"])
    if checkpoint:
        database.checkpoint()
    table.update_rids([(rid, row(rid))
                       for rid in rng.sample(range(N_ROWS), N_UPDATED)])
    Executor(database).execute("DELETE FROM w WHERE g = 3")
    return database


class TestRowOpsAsColumns:
    """``bulk_insert``, ``update`` and ``delete`` log their rows as one
    leaf page's columns; redo decodes them as a leaf page is decoded."""

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["all_redo", "dml_redo"])
    @pytest.mark.parametrize("design", ["heap", "btree", "csi"])
    @examples(3)
    @given(pools=field_pools)
    def test_recovery_reaches_the_original_state(self, design, checkpoint,
                                                 pools):
        with tempfile.TemporaryDirectory() as data_dir:
            database = wide_history(data_dir, design, pools, checkpoint)
            digest = state_digest(database)
            database.close()
            ops = [r.payload for r in read_wal(
                os.path.join(data_dir, WAL_FILENAME)).records
                if r.rec_type == REC_OP]
            rows = {op["op"]: op["rows"] for op in ops
                    if op["op"] in ("bulk_insert", "update", "delete")}
            assert set(rows) == ({"update", "delete"} if checkpoint
                                 else {"bulk_insert", "update", "delete"})
            for payload in rows.values():
                assert payload["keys"].dtype == np.int64
            assert len(rows["update"]["keys"]) == N_UPDATED
            assert rows["delete"]["values"] == []
            for paging in (False, True):
                reopened = Database.open(
                    data_dir, paging=paging,
                    pool_bytes=65536 if paging else None)
                try:
                    assert reopened.last_recovery.check_ok
                    assert state_digest(reopened) == digest
                finally:
                    reopened.close()

    @pytest.mark.parametrize("op", [
        {"op": "update", "table": "w", "updates": [(0, (0, 0, 1, 2.0, "x"))]},
        {"op": "update", "table": "w", "rows": [(0, 0, 1, 2.0, "x")]},
        {"op": "bulk_insert", "table": "w", "rids": [N_ROWS],
         "rows": [(N_ROWS, 0, 1, 2.0, "x")]},
        {"op": "delete", "table": "w", "rids": [0]},
        {"op": "delete", "table": "w",
         "rows": {"keys": np.array([0.0]), "values": []}},
    ], ids=["update_pairs", "update_tuples", "bulk_insert_tuples",
            "delete_list", "delete_float_rids"])
    def test_old_shaped_op_is_refused(self, tmp_path, op):
        database = Database("rows")
        table = database.create_table(WIDE)
        table.bulk_load([(k, k % 7, k, k / 4, "s") for k in range(10)])
        database.enable_durability(str(tmp_path))
        database.wal.log_ops([op])
        database.close()
        for paging in (False, True):
            with pytest.raises(RecoveryError, match=repr(op["op"])):
                Database.open(str(tmp_path), paging=paging)


class TestTruncationProperty:
    """Chop the WAL at every byte boundary: recovery must always land
    on exactly some committed prefix of the history, idempotently."""

    def test_every_truncation_recovers_a_prefix(self, tmp_path):
        source = tmp_path / "src"
        database = durable_db(source, n_rows=50)
        executor = Executor(database)
        # Digest after each committed statement = the allowed states.
        allowed = {state_digest(database)}
        statements = [
            "INSERT INTO t (a, b, s) VALUES (900, 1, 'n')",
            "UPDATE t SET b = 9 WHERE a < 5",
            "DELETE FROM t WHERE a = 20",
        ]
        for sql in statements:
            executor.execute(sql)
            allowed.add(state_digest(database))
        wal_path = str(source / WAL_FILENAME)
        wal_bytes = open(wal_path, "rb").read()

        work = tmp_path / "cut"
        for cut in range(len(wal_bytes) + 1):
            if work.exists():
                shutil.rmtree(str(work))
            os.makedirs(str(work))
            shutil.copy(str(source / "snapshot.db"),
                        str(work / "snapshot.db"))
            with open(str(work / WAL_FILENAME), "wb") as handle:
                handle.write(wal_bytes[:cut])
            recovered, report = recover(str(work))
            assert report.check_ok, (
                f"cut at byte {cut}: checker findings "
                f"{report.check_findings}")
            digest = state_digest(recovered)
            assert digest in allowed, (
                f"cut at byte {cut} recovered a state that matches no "
                f"committed prefix (torn={report.torn_tail}: "
                f"{report.torn_reason})")
            again, _ = recover(str(work))
            assert state_digest(again) == digest, (
                f"cut at byte {cut}: recovery not idempotent")

    def test_truncation_is_monotone(self, tmp_path):
        """More bytes can only ever mean more committed statements."""
        source = tmp_path / "src"
        database = durable_db(source, n_rows=30)
        executor = Executor(database)
        for i in range(4):
            executor.execute(
                f"INSERT INTO t (a, b, s) VALUES ({800 + i}, 1, 'n')")
        wal_path = str(source / WAL_FILENAME)
        wal_bytes = open(wal_path, "rb").read()
        work = tmp_path / "cut"
        previous = -1
        for cut in range(0, len(wal_bytes) + 1, 13):
            if work.exists():
                shutil.rmtree(str(work))
            os.makedirs(str(work))
            shutil.copy(str(source / "snapshot.db"),
                        str(work / "snapshot.db"))
            with open(str(work / WAL_FILENAME), "wb") as handle:
                handle.write(wal_bytes[:cut])
            _, report = recover(str(work))
            assert report.txns_committed >= previous
            previous = report.txns_committed

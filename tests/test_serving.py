"""Serving-layer tests: serial scans under a session, sessions,
admission, and the concurrent-session differential suite.

The differential suite is the acceptance gate for this layer: N session
threads replay the same statement mix and the engine must produce
byte-identical modeled metrics to the serial run (a), a consistent
database after interleaved DML (b), and DMV counters that match the
statement counts (c) — 50 iterations without a mismatch.
"""

import contextlib
import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.core.errors import ExecutionError, SqlError
from repro.engine.executor import Executor
from repro.server.frontend import MAX_STATEMENT_BYTES, ReproServer
from repro.server.scheduler import DatabaseLatch, MemoryGrantPool
from repro.server.session import SessionManager
from repro.storage.checker import check_database
from repro.storage.database import Database
from repro.workloads.synthetic import make_uniform_table, q1_scan
from tests.test_maintenance import mixed_null_db

DIFFERENTIAL_ITERATIONS = 50


def _micro_db(n_rows=40_000, rowgroup_size=4096, sorted_on=None,
              seed=5) -> Database:
    database = Database()
    make_uniform_table(database, "micro", n_rows, 2, seed=seed,
                       sorted_on=sorted_on)
    database.table("micro").set_primary_columnstore(
        rowgroup_size=rowgroup_size)
    return database


def _metrics_dict(metrics):
    return dataclasses.asdict(metrics)


def _assert_idle(manager):
    """No latch is held and no grant is reserved."""
    admission = manager.admission
    assert admission.latch._writer is None and not admission.latch._readers
    assert admission.grants.available_bytes == admission.grants.capacity_bytes


def _run_embedded_and_served(sql, dml=(), morsel_workers=4, **db_kwargs):
    """Run ``dml`` then ``sql`` on an embedded ``Executor`` and on a
    session of ``SessionManager(..., morsel_workers=...)`` (the call the
    e2e benchmark makes), each on a fresh database, and check that the
    manager builds no pool and starts no thread."""
    embedded_db = _micro_db(**db_kwargs)
    executor = Executor(embedded_db)
    for statement in dml:
        executor.execute(statement)
    embedded = executor.execute(sql, cold=True)
    served_db = _micro_db(**db_kwargs)
    threads_before = set(threading.enumerate())
    with SessionManager(served_db, morsel_workers=morsel_workers) as manager:
        assert manager.morsel_pool is None
        with manager.session(cold=True) as session:
            for statement in dml:
                session.execute(statement)
            served = session.execute(sql)
        # No thread started (one a previous test left may have ended).
        assert not set(threading.enumerate()) - threads_before
    return embedded_db, embedded, served_db, served


def _usage(database):
    usage = database.table("micro").primary.usage
    return usage.user_scans, usage.segments_scanned, usage.segments_skipped


class TestMorselScan:
    """``SessionManager`` still accepts the ``morsel_workers=`` argument
    the e2e benchmark passes, and ignores it: a served columnstore scan
    runs serially on its statement's thread and returns exactly what an
    embedded ``Executor`` returns."""

    def test_rows_and_metrics_identical(self):
        _, embedded, _, served = _run_embedded_and_served(q1_scan(10.0))
        assert served.metrics.segments_read > 0
        assert served.rows == embedded.rows
        assert served.metrics == embedded.metrics

    def test_usage_counters_match_serial(self):
        embedded_db, _, served_db, _ = _run_embedded_and_served(
            q1_scan(10.0))
        assert _usage(served_db)[0] == 1
        assert _usage(served_db) == _usage(embedded_db)

    def test_pool_disabled_is_serial_manager(self):
        _, _, off_db, off = _run_embedded_and_served(
            q1_scan(10.0), morsel_workers=0)
        _, _, on_db, on = _run_embedded_and_served(
            q1_scan(10.0), morsel_workers=4)
        assert off.rows == on.rows
        assert off.metrics == on.metrics
        assert _usage(off_db) == _usage(on_db)


class TestSerialScans:
    """Segment elimination and delta-store rows are served exactly as an
    embedded ``Executor`` scans them."""

    @pytest.mark.parametrize("sql, dml, db_kwargs", [
        (q1_scan(1.0), (), {"sorted_on": "col1"}),
        ("SELECT count(*) FROM micro",
         ("INSERT INTO micro (col1, col2) VALUES (1, 2)",
          "INSERT INTO micro (col1, col2) VALUES (3, 4)"), {}),
    ], ids=["segment-elimination", "delta-store"])
    def test_served_scan_equals_embedded(self, sql, dml, db_kwargs):
        embedded_db, embedded, served_db, served = _run_embedded_and_served(
            sql, dml, **db_kwargs)
        assert served.rows == embedded.rows
        assert served.metrics == embedded.metrics
        assert served.metrics.segments_read > 0
        assert _usage(served_db) == _usage(embedded_db)
        if db_kwargs:
            assert served.metrics.segments_skipped > 0
        if dml:
            assert served.scalar() == 40_002


class TestDifferentialSuite:
    """The ISSUE's concurrent-session differential acceptance suite."""

    READ_MIX = (
        q1_scan(0.4),
        q1_scan(30.0),
        "SELECT count(*) FROM micro",
        "SELECT sum(col2) FROM micro WHERE col2 < 1000000000",
    )
    SESSIONS = 4

    def test_concurrent_metrics_equal_serial_sum(self):
        """(a) each concurrent session's merged QueryMetrics equals the
        serial replay's, for 50 iterations."""
        database = _micro_db(n_rows=5000, rowgroup_size=1024)
        with SessionManager(database) as manager:
            with manager.session(cold=True) as session:
                baseline = [
                    _metrics_dict(session.execute(sql).metrics)
                    for sql in self.READ_MIX
                ]
            for iteration in range(DIFFERENTIAL_ITERATIONS):
                mismatches = []

                def client():
                    with manager.session(cold=True) as session:
                        for sql, expected in zip(self.READ_MIX, baseline):
                            got = _metrics_dict(session.execute(sql).metrics)
                            if got != expected:
                                mismatches.append((sql, expected, got))

                threads = [threading.Thread(target=client)
                           for _ in range(self.SESSIONS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert not mismatches, (
                    f"iteration {iteration}: {mismatches[0]}")

    def test_interleaved_dml_keeps_database_consistent(self):
        """(b) interleaved multi-session DML leaves a checkable database."""
        database = _micro_db(n_rows=4000, rowgroup_size=1024)
        database.table("micro").create_secondary_btree("ix_col2", ["col2"])
        errors = []
        with SessionManager(database) as manager:
            def writer(offset):
                try:
                    with manager.session() as session:
                        for i in range(DIFFERENTIAL_ITERATIONS):
                            value = offset * 1000 + i
                            session.execute(
                                f"INSERT INTO micro (col1, col2) "
                                f"VALUES ({value}, {value})")
                            session.execute(
                                f"UPDATE TOP (5) micro SET col2 += 1 "
                                f"WHERE col1 >= {offset}")
                            if i % 5 == 0:
                                session.execute(
                                    f"DELETE TOP (2) FROM micro "
                                    f"WHERE col1 = {value}")
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(n,))
                       for n in range(self.SESSIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]
        result = check_database(database)
        assert result.ok, result.summary()

    def test_dmv_counters_match_statement_counts(self):
        """(c) usage counters and the statement clock add up after a
        concurrent read+write mix."""
        database = _micro_db(n_rows=5000, rowgroup_size=1024)
        index = database.table("micro").primary
        before_clock = database.telemetry.clock.now
        scans_per_session = 6
        updates_per_session = 3
        with SessionManager(database) as manager:
            def client():
                with manager.session() as session:
                    for _ in range(scans_per_session):
                        session.execute("SELECT count(*) FROM micro")
                    for i in range(updates_per_session):
                        session.execute(
                            f"UPDATE TOP (2) micro SET col2 += 1 "
                            f"WHERE col1 >= {i}")

            threads = [threading.Thread(target=client)
                       for _ in range(self.SESSIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        statements = self.SESSIONS * (scans_per_session
                                      + updates_per_session)
        assert database.telemetry.clock.now - before_clock == statements
        # Every statement scans the primary once: SELECTs directly, and
        # each UPDATE's read side scans to find qualifying rows.
        assert index.usage.user_scans == statements
        # One user_updates bump per UPDATE statement — the stamp-dedup
        # race would overcount, the old single-stamp dedup undercounts.
        assert (index.usage.user_updates
                == self.SESSIONS * updates_per_session)


def statement_writes(sql, params=()):
    """The latch mode a session admits ``sql`` in: exclusive unless the
    prepared record is read-only."""
    return not Executor(Database()).prepare(sql, params).read_only


class TestSessionLayer:
    def test_statement_classification(self):
        assert not statement_writes("SELECT 1 FROM micro")
        assert not statement_writes("  select col1 from micro")
        assert statement_writes("UPDATE micro SET col1 = 1")
        assert statement_writes("DELETE FROM micro")
        assert statement_writes("INSERT INTO micro (col1) VALUES (1)")

    def test_statement_classification_is_not_lexical(self):
        """Leading comments/parens must not misclassify a SELECT as DML
        (classification uses the parsed statement type, not a prefix)."""
        assert not statement_writes("-- warm cache\nSELECT count(*) FROM micro")
        assert not statement_writes(
            "SELECT count(*) FROM micro WHERE col1 = ?", (1,))
        assert statement_writes("-- audited\nDELETE FROM micro WHERE col1 = 1")
        # Text that does not parse has no class: it raises instead of
        # queueing for the exclusive latch in order to fail (what a
        # session then holds is in tests/test_statement_pipeline.py).
        for text in ("???", "(SELECT count(*) FROM micro)"):
            with pytest.raises(SqlError):
                statement_writes(text)

    def test_transaction_blocks_other_sessions(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        order = []
        with SessionManager(database) as manager:
            ready = threading.Event()
            inside = threading.Event()

            def other():
                with manager.session() as session:
                    ready.set()
                    inside.wait()
                    session.execute("SELECT count(*) FROM micro")
                    order.append("other")

            thread = threading.Thread(target=other)
            thread.start()
            ready.wait()
            with manager.session() as session:
                with session.transaction():
                    assert session.in_transaction
                    inside.set()
                    session.execute(
                        "INSERT INTO micro (col1, col2) VALUES (1, 1)")
                    session.execute(
                        "UPDATE TOP (1) micro SET col2 += 1 WHERE col1 = 1")
                    order.append("txn")
                assert not session.in_transaction
            thread.join()
        assert order == ["txn", "other"]

    def test_transaction_owner_never_deadlocks_on_grant_pool(self):
        """Regression: statements queued on the latch behind an open
        transaction must not pin memory grants the transaction owner
        needs. With the broken grant-then-latch ordering and a pool of
        exactly one default grant, the owner's execute() would hang
        forever here."""
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        default = database.cost_model.default_memory_grant_bytes
        with SessionManager(database,
                            grant_capacity_bytes=default) as manager:
            in_txn = threading.Event()
            owner_done = threading.Event()
            finished = []

            def owner():
                with manager.session() as session:
                    with session.transaction():
                        in_txn.set()
                        # Give the readers time to queue on the latch.
                        time.sleep(0.2)
                        session.execute("SELECT count(*) FROM micro")
                        session.execute(
                            "INSERT INTO micro (col1, col2) VALUES (1, 1)")
                owner_done.set()

            def reader():
                in_txn.wait()
                with manager.session() as session:
                    session.execute("SELECT count(*) FROM micro")
                    finished.append(True)

            threads = [threading.Thread(target=owner, daemon=True)]
            threads += [threading.Thread(target=reader, daemon=True)
                        for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert owner_done.is_set(), (
                "transaction owner deadlocked waiting for a memory grant")
            assert len(finished) == 3
            assert not any(thread.is_alive() for thread in threads)

    def test_grant_pool_fifo_prevents_large_request_starvation(self):
        """A queued large request is served before later small requests
        even when the small ones would fit in the free bytes."""
        pool = MemoryGrantPool(capacity_bytes=1000)
        holding = threading.Event()
        release = threading.Event()
        order = []

        def holder():
            with pool.grant(800):
                holding.set()
                release.wait()

        def requester(amount, name):
            def run():
                with pool.grant(amount):
                    order.append(name)
            return threading.Thread(target=run, daemon=True)

        holder_thread = threading.Thread(target=holder, daemon=True)
        holder_thread.start()
        holding.wait()
        big = requester(900, "big")
        big.start()
        deadline = time.monotonic() + 5
        while len(pool._waiters) < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        small = requester(100, "small")
        small.start()
        while len(pool._waiters) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(pool._waiters) == 2
        # 200 bytes are free; a non-FIFO pool would admit `small` now.
        time.sleep(0.1)
        assert order == []
        release.set()
        for thread in (holder_thread, big, small):
            thread.join(timeout=10)
        assert order == ["big", "small"]

    def test_grant_pool_queues_when_exhausted(self):
        pool = MemoryGrantPool(capacity_bytes=1000)
        holding = threading.Event()
        release = threading.Event()

        def holder():
            with pool.grant(800):
                holding.set()
                release.wait()

        thread = threading.Thread(target=holder)
        thread.start()
        holding.wait()
        waited = []

        def waiter():
            with pool.grant(800):
                waited.append(True)

        blocked = threading.Thread(target=waiter)
        blocked.start()
        blocked.join(timeout=0.2)
        assert blocked.is_alive() and not waited
        release.set()
        blocked.join(timeout=5)
        assert waited == [True]
        assert pool.grant_waits >= 1
        thread.join()

    def test_grant_larger_than_pool_is_clamped(self):
        pool = MemoryGrantPool(capacity_bytes=100)
        with pool.grant(10_000) as granted:
            assert granted == 100

    def test_latch_upgrade_raises(self):
        latch = DatabaseLatch()
        with latch.shared("s1"):
            with pytest.raises(ExecutionError):
                with latch.exclusive("s1"):
                    pass

    def test_failed_statement_is_counted_and_holds_nothing(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        with SessionManager(database) as manager:
            session = manager.session()
            with pytest.raises(SqlError):
                session.execute("SELECT nope FROM micro")
            assert (session.stats.errors, session.stats.statements) == (1, 0)
            _assert_idle(manager)
            session.execute("SELECT count(*) FROM micro")
            assert (session.stats.errors, session.stats.statements) == (1, 1)

    def test_closed_session_rejects_statements(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        with SessionManager(database) as manager:
            session = manager.session()
            session.close()
            with pytest.raises(ExecutionError):
                session.execute("SELECT count(*) FROM micro")


@contextlib.contextmanager
def _served(manager):
    """``connect()`` -> ``(connection, reply reader, its server-side
    session)`` against a frontend over ``manager``, hello line consumed."""
    server = ReproServer(manager, host="127.0.0.1", port=0)
    server.serve_background()
    connections = []

    def connect():
        before = set(manager.active_sessions())
        conn = socket.create_connection(server.server_address, timeout=10)
        connections.append(conn)
        reader = conn.makefile("r", encoding="utf-8")
        hello = json.loads(reader.readline())
        (session,) = set(manager.active_sessions()) - before
        assert hello["ok"] and hello["session"] == session.session_id
        return conn, reader, session
    try:
        yield connect
    finally:
        for conn in connections:
            conn.close()
        server.shutdown()
        server.server_close()


class TestFrontend:
    def test_line_protocol_roundtrip(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        with SessionManager(database) as manager, _served(manager) as connect:
            conn, reader, session = connect()
            conn.sendall(b"SELECT count(*) FROM micro\n")
            reply = json.loads(reader.readline())
            assert reply["ok"]
            assert reply["rows"] == [[2000]]
            conn.sendall(b"SELECT broken FROM nowhere\n")
            failure = json.loads(reader.readline())
            assert not failure["ok"] and failure["error"]
            # Counted by the session, not a second time by the frontend.
            assert session.stats.errors == 1
            _assert_idle(manager)

    def test_division_by_zero_gets_a_typed_reply(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        with SessionManager(database) as manager, _served(manager) as connect:
            conn, reader, session = connect()
            conn.sendall(b"UPDATE micro SET col2 = col1 / (col2 - col2)\n")
            reply = json.loads(reader.readline())
            assert not reply["ok"] and "division by zero" in reply["error"]
            assert session.stats.errors == 1
            _assert_idle(manager)
            conn.sendall(b"SELECT count(*) FROM micro\n")
            assert json.loads(reader.readline())["rows"] == [[2000]]

    def test_json_lines_carry_parameters(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        sql = "SELECT count(*) FROM micro WHERE col1 < ?"
        (expected,) = Executor(database).execute(sql, (100,)).rows
        with SessionManager(database) as manager, _served(manager) as connect:
            conn, reader, session = connect()

            def ask(line: str) -> dict:
                conn.sendall(line.encode("utf-8") + b"\n")
                return json.loads(reader.readline())

            assert ask(json.dumps({"sql": sql, "params": [100]}))["rows"] \
                == [list(expected)]
            for bad in ('{"sql": "SELECT count(*) FROM', '{"sql": 5}',
                        json.dumps({"sql": sql, "params": 100}),
                        json.dumps({"sql": sql, "params": []}),
                        json.dumps({"sql": sql, "params": [1, 2]})):
                reply = ask(bad)
                assert not reply["ok"] and reply["error"], bad
            assert session.stats.errors == 5
            # The connection stays open; plain lines are what they were.
            assert ask("SELECT count(*) FROM micro")["rows"] == [[2000]]
            _assert_idle(manager)

    @pytest.mark.parametrize("is_primary", [True, False])
    def test_rebuilt_mixed_segments_reply_json_numbers(self, is_primary):
        database = mixed_null_db(is_primary)
        with SessionManager(database) as manager, _served(manager) as connect:
            conn, reader, session = connect()
            conn.sendall(b"SELECT a, b FROM t WHERE a < 64\n")
            rows = json.loads(reader.readline())["rows"]
            # A numpy scalar reached the reply as its str() ("0").
            assert sorted(map(tuple, rows)) == [
                (i, i % 5) for i in range(60)]
            _assert_idle(manager)

    def test_overlong_line_gets_a_typed_reply_and_a_closed_connection(self):
        database = _micro_db(n_rows=2000, rowgroup_size=1024)
        with SessionManager(database) as manager, _served(manager) as connect:
            conn, reader, session = connect()
            conn.sendall(b"x" * (MAX_STATEMENT_BYTES + 1))   # no newline
            reply = json.loads(reader.readline())
            assert not reply["ok"]
            assert str(MAX_STATEMENT_BYTES) in reply["error"]
            assert reader.readline() == ""      # the server hung up
            assert session.stats.errors == 1 and session.closed
            _assert_idle(manager)
            conn, reader, _ = connect()         # and still serves others
            conn.sendall(b"SELECT count(*) FROM micro\n")
            assert json.loads(reader.readline())["rows"] == [[2000]]
            _assert_idle(manager)

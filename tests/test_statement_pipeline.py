"""The statement pipeline: one lookup, one record, the same output.

Three groups. (a) A statement is looked up in the statement cache once,
embedded and served. (b) A failure at any stage ends in its typed error
with the pipeline's resources released. (c) Everything a statement
leaves behind -- events, history, DMVs, Query Store, metrics, spans --
equals ``tests/data/statement_pipeline_expected.json``, which was
recorded by running this file against the source tree of the commit
before the last one that changed what ``observe`` digests
(``PYTHONPATH=<that commit>/src:. python tests/test_statement_pipeline.py``
regenerates it; do that only when an output change is intended).
"""

import hashlib
import json
import os
import sys
import threading
from dataclasses import asdict, fields

import pytest

from repro.core.errors import ExecutionError, ReproError, SqlError
from repro.engine import dmv
from repro.engine.executor import Executor
from repro.engine.query_store import QueryStore
from repro.server.session import SessionManager
from repro.storage.database import Database
from repro.storage.faults import InjectedFault
from repro.storage.heap import HeapFile
from repro.workloads import customer
from repro.workloads.synthetic import make_uniform_table
from tests.sql_corpus import CUSTOMER, runnable_workloads

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "statement_pipeline_expected.json")

def _small_db() -> Database:
    database = Database()
    make_uniform_table(database, "micro", 500, 2, seed=5)
    return database


@pytest.fixture
def serving():
    """``(database, manager, session, records)``: one session over a
    small heap table, and every record its executor prepares."""
    database = _small_db()
    with SessionManager(database, query_store=QueryStore()) as manager:
        session = manager.session()
        records = _capture_records(session._executor)
        yield database, manager, session, records


def _capture_records(executor) -> list:
    records, prepare = [], executor.prepare

    def capturing(sql, params=()):
        records.append(prepare(sql, params))
        return records[-1]
    executor.prepare = capturing
    return records


# ------------------------------------------- (a) one lookup per statement
#: ``(sql, params, whether its first lookup parses)``.
LOOKUP_TEXTS = [
    ("SELECT col2 FROM micro WHERE col1 = 17", (), True),
    ("SELECT col2 FROM micro WHERE col1 = 18", (), False),  # same template
    ("SELECT col2 FROM micro WHERE col1 = ?", (17,), True),
    ("UPDATE micro SET col2 = ? WHERE col1 = ?", (1, 17), True),
    ("UPDATE micro SET col2 = 3 WHERE col1 = 17", (), True),
]


def test_one_cache_lookup_per_statement(serving):
    database, _, session, _ = serving
    cache = database.statement_cache
    executor = Executor(database)
    for sql, params, parses in LOOKUP_TEXTS:
        entry_points = [session.execute, executor.execute,
                        executor.explain_analyze]
        if sql.startswith("SELECT"):
            entry_points += [executor.plan, executor.explain, session.explain]
        for run in entry_points:
            hits, misses = cache.hits, cache.misses
            run(sql, params)
            assert (cache.hits - hits, cache.misses - misses) == (
                (0, 1) if parses else (1, 0)), (sql, run)
            parses = False      # every later lookup of the text is a hit


# ---------------------------------------------- (b) failure at every stage
def _idle(database, manager, record=None):
    """Nothing of the failed statement is still held."""
    admission = manager.admission
    assert admission.latch._writer is None and not admission.latch._readers
    assert admission.grants.available_bytes == admission.grants.capacity_bytes
    with database.waits.statement() as profile:     # no scope left open
        assert profile == {}
        assert record is None or profile is not record.waits
    assert len(manager.query_store) == 0
    if record is not None and record.ctx is not None:
        assert record.ctx.active_span is record.ctx.root_span


def _raising_scan(self, *args, **kwargs):
    raise ExecutionError("the scan failed")
    yield


def _fail_in_bind(database, monkeypatch):
    return "SELECT nope FROM micro", (), SqlError


def _fail_in_run(database, monkeypatch):
    monkeypatch.setattr(HeapFile, "scan", _raising_scan)
    return "SELECT col2 FROM micro WHERE col2 < ?", (100,), ExecutionError


def _fail_in_apply(database, monkeypatch):
    database.fault_injector.arm("heap.insert", on_hit=2)
    return ("INSERT INTO micro (col1, col2) VALUES (1, 2), (3, 4)", (),
            InjectedFault)


@pytest.mark.parametrize("embedded", [False, True], ids=["served", "embedded"])
@pytest.mark.parametrize(
    "fail", [_fail_in_bind, _fail_in_run, _fail_in_apply],
    ids=["bind", "run", "apply"])
def test_a_failing_stage_ends_in_one_statement_end(
        serving, monkeypatch, fail, embedded):
    database, manager, session, records = serving
    run = session.execute
    if embedded:
        executor = Executor(database, query_store=manager.query_store)
        records = _capture_records(executor)
        run = executor.execute
    rows_before = database.table("micro").row_count
    sql, params, error = fail(database, monkeypatch)
    with pytest.raises(error) as raised:
        run(sql, params)
    monkeypatch.undo()
    (record,) = records
    assert record.error is raised.value and record.result is None
    (begin,) = database.events.events("statement_begin")
    (end,) = database.events.events("statement_end")
    assert end.payload == {"sql": sql, "statement": begin.payload["statement"],
                           "error": error.__name__}
    assert database.table("micro").row_count == rows_before
    _idle(database, manager, record)
    assert session.stats.statements == 0
    # The pipeline is as usable as before the failure.
    assert run("SELECT count(*) FROM micro").scalar() == rows_before
    assert len(database.events.events("statement_end")) == 2


@pytest.mark.parametrize("sql, params", [
    ("???", ()),
    ("(SELECT count(*) FROM micro)", ()),
    ("SELECT col1 FROM micro WHERE col1 < ?", ()),     # too few values
])
def test_text_that_does_not_prepare_is_never_admitted(serving, sql, params):
    """It used to queue for the exclusive latch in order to fail."""
    database, manager, session, records = serving
    latch = manager.admission.latch
    for run in (session.execute, Executor(database).execute):
        with pytest.raises(SqlError):
            run(sql, params)
    assert records == []
    assert latch.exclusive_acquires == latch.shared_acquires == 0
    assert manager.admission.grants.grants_admitted == 0
    assert database.events.emitted == 0
    assert database.telemetry.clock.now == 0
    _idle(database, manager)


def test_a_grant_timeout_while_queued_never_begins(serving):
    """Admission fails inside the statement's wait scope and before the
    begin stage: the failure is the scheduler's ``grant_timeout`` event
    and the statement leaves no begin/end pair, as before the pipeline."""
    database, manager, session, records = serving
    grants = manager.admission.grants
    grants.default_timeout_s = 0.05
    holding, release = threading.Event(), threading.Event()

    def holder():
        with grants.grant(grants.capacity_bytes):
            holding.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert holding.wait(timeout=10)
        with pytest.raises(ExecutionError, match="timed out"):
            session.execute("SELECT count(*) FROM micro")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    (record,) = records
    assert record.stamp is None and record.error is None
    assert record.waits["RESOURCE_SEMAPHORE"][0] == 1     # charged to it
    assert [event.name for event in database.events.events()] == [
        "grant_timeout"]
    _idle(database, manager, record)
    assert session.execute("SELECT count(*) FROM micro").scalar() == 500


# ------------------------------------------------------------- (c) goldens
#: Run after the synthetic workload's own statements: DML of every kind
#: with and without ``?``, statements that fail in prepare, bind and
#: apply, and system views read back through SQL.
DML_AND_VIEWS = (
    ("INSERT INTO micro2 (col1, col2) VALUES (?, ?), (?, ?)", (7, 8, 9, 10)),
    ("INSERT INTO micro2 (col1, col2) VALUES (11, 12)", ()),
    ("UPDATE micro2 SET col2 = col2 + ? WHERE col1 < ?", (1, 1000)),
    ("UPDATE micro2 SET col2 = 0 WHERE col1 = 7", ()),
    ("SELECT count(*) FROM micro2 WHERE col2 = 0", ()),
    ("DELETE FROM micro2 WHERE col1 = ?", (7,)),
    ("DELETE TOP (2) FROM micro WHERE col1 > 100", ()),
    ("SELECT nope FROM micro", ()),
    ("DELETE FROM micro2 WHERE nope = 1", ()),
    ("INSERT INTO micro2 (col1, col2) VALUES (1, NULL)", ()),
    ("???", ()),
    ("SELECT col1 FROM micro WHERE col1 < ?", ()),
    ("SELECT event_name, session_id FROM dm_xe_ring_buffer", ()),
    ("SELECT wait_type, waiting_tasks_count FROM dm_os_wait_stats", ()),
    ("SELECT execution_count FROM dm_exec_query_stats", ()),
    ("SELECT count(*) FROM micro", ()),
)


def _sha(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def span_tree(span) -> dict:
    """A span and its subtree as plain data (the operator object left
    out: its label is already in the span)."""
    out = {f.name: getattr(span, f.name) for f in fields(span)
           if f.name not in ("children", "operator")}
    out["children"] = [span_tree(child) for child in span.children]
    return out


def _workload(name):
    """A fresh database and the ``(sql, params)`` list run against it."""
    if name == "customer":      # the corpus shares one customer database
        database = Database()
        texts = customer.generate_customer(database, CUSTOMER).queries
    else:
        _, build, texts = next(
            w for w in runnable_workloads() if w[0] == name)
        database = build()
    statements = [(sql, ()) for sql in texts]
    if name == "synthetic":
        statements += DML_AND_VIEWS
    return database, statements


def _snapshot(database, query_store) -> dict:
    """``dmv.snapshot`` without the statement cache's lookup counters: how
    often a served statement is looked up is what group (a) pins; and
    without the plan cache's row, whose counters
    ``tests/test_plan_reuse.py`` pins."""
    views = dmv.snapshot(database, query_store, database.buffer_pool)
    views["dm_os_memory_cache_counters"] = [
        row for row in views["dm_os_memory_cache_counters"]
        if row["cache_name"] != "plan_cache"]
    for row in views["dm_os_memory_cache_counters"]:
        if row["cache_name"] == "statement_cache":
            for column in ("hits", "misses", "hit_ratio"):
                row.pop(column, None)
    return views


def _query_store_rows(query_store) -> list:
    return [
        (stats.sql, stats.recorded, stats.count, stats.plan_fingerprints,
         {fingerprint: [asdict(node) for node in nodes]
          for fingerprint, nodes in stats.node_stats.items()},
         stats.wait_count)
        for stats in query_store.top_by_cpu(len(query_store))]


def observe(name: str, served: bool) -> dict:
    """Run one workload single-threaded and digest everything it left."""
    database, statements = _workload(name)
    query_store = QueryStore()
    manager = SessionManager(database, query_store=query_store)
    if served:
        session = manager.session()
        run = session.execute
    else:
        run = Executor(database, query_store=query_store).execute
    per_statement = []
    for sql, params in statements:
        try:
            result = run(sql, params)
        except ReproError as exc:
            per_statement.append(_sha([type(exc).__name__, str(exc)])[:12])
            continue
        per_statement.append(_sha({
            "columns": result.columns, "rows": result.rows,
            "rows_affected": result.rows_affected,
            "metrics": asdict(result.metrics),
            "spans": span_tree(result.root_span),
            "plan": result.plan.explain() if result.plan else None,
            "wait_profile": result.wait_profile,
        })[:12])
    if served:
        stats = session.stats.as_dict()
        # The recording's engine counted failures only in the frontend;
        # tests/test_serving.py pins the count now.
        del stats["errors"]
    manager.close()
    return {
        "events": _sha(database.events.to_jsonl()),
        "events_emitted": database.events.emitted,
        "history": database.history.digest(),
        "history_samples": len(database.history),
        "dmv": _sha(_snapshot(database, query_store)),
        "query_store": _sha(_query_store_rows(query_store)),
        "session_stats": stats if served else None,
        "statements": per_statement,
    }


WORKLOADS = [w[0] for w in runnable_workloads()]


@pytest.mark.parametrize("served", [False, True], ids=["embedded", "served"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_equal_the_parent_commits(name, served):
    with open(EXPECTED_PATH) as source:
        expected = json.load(source)[
            f"{name}/{'served' if served else 'embedded'}"]
    observed = observe(name, served)
    statements = observed.pop("statements")
    expected_statements = expected.pop("statements")
    assert len(statements) == len(expected_statements)
    differing = [i for i, (got, want) in
                 enumerate(zip(statements, expected_statements)) if got != want]
    assert not differing, f"first differing statement: #{differing[0]}"
    assert observed == expected


if __name__ == "__main__":     # regenerate the recording
    recording = {
        f"{name}/{'served' if served else 'embedded'}": observe(name, served)
        for name in WORKLOADS for served in (False, True)}
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w") as out:
        json.dump(recording, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)

"""Plan reuse is invisible. An equality-only SELECT that takes its
template's cached plan, skipping bind and optimize, must return what
planning it afresh returns. That covers the plan text, rows, modeled
metrics, span rows, Query Store fingerprints, events and missing-index
reports. It must hold on every physical design, hot and cold, under two
memory grants, for values in and out of the column's range, NULL, int
and float. And a cached plan is dropped exactly when the catalog would
plan differently.

The reference for an execution is ``Executor.plan()`` (never reused),
and a second executor over an identical database whose statement cache
is replaced before each of its statements, so it binds and optimizes
every one. Hits are counted and asserted, so the suite cannot silently
stop covering reuse.
"""

import random
import sys
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, strategies as st

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.dmv import missing_index_rows, usage_rows
from repro.engine.executor import Executor
from repro.engine.query_store import QueryStore, plan_fingerprint
from repro.server.session import SessionManager
from repro.sql.cache import StatementCache
from repro.storage.database import Database
from tests.oracle import examples, sqlite_mirror

N_ROWS = 2400
DESIGNS = ("heap", "btree", "btree+cov", "heap+ix", "pri_csi", "sorted_csi")
#: (cold, memory_grant_bytes) of every run in the matrix.
OPTIONS = ((False, None), (True, None), (False, 20_000), (True, 20_000))


def make_database(design: str) -> Database:
    """``t(k, g, c, s, n)``: ``k`` unique (loaded shuffled), ``g`` two
    values, ``c`` forty, ``s`` three strings, ``n`` nullable; ``dim(dk,
    dv)`` clustered on ``dk``; ``fact(fk, x, y)``, 100 rows per ``fk``.
    ``design`` lays out ``t`` and ``fact`` alike."""
    database = Database()
    keys = list(range(N_ROWS))
    random.Random(7).shuffle(keys)
    t = database.create_table(TableSchema("t", [
        Column("k", INT, nullable=False), Column("g", INT, nullable=False),
        Column("c", INT, nullable=False), Column("s", varchar(4)),
        Column("n", INT)]))
    t.bulk_load([(k, k % 2, k % 40, f"s{k % 3}",
                  None if k % 9 == 0 else k % 11) for k in keys])
    dim = database.create_table(TableSchema("dim", [
        Column("dk", INT, nullable=False), Column("dv", INT)]))
    dim.bulk_load([(i, i % 2) for i in range(50)])
    dim.set_primary_btree(["dk"])
    fact = database.create_table(TableSchema("fact", [
        Column("fk", INT, nullable=False), Column("x", INT, nullable=False),
        Column("y", INT, nullable=False)]))
    fact.bulk_load([(i % 50, i % 3, i) for i in range(5000)])
    if design == "btree":
        t.set_primary_btree(["k"])
        fact.set_primary_btree(["fk"])
    elif design == "btree+cov":
        t.set_primary_btree(["k"])
        t.create_secondary_btree("ix_c", ["c"], included_columns=["k", "s"])
        fact.set_primary_btree(["y"])
        fact.create_secondary_btree("ix_fk", ["fk"], included_columns=["x"])
    elif design == "heap+ix":
        t.create_secondary_btree("ix_c", ["c"])
        fact.create_secondary_btree("ix_fk", ["fk"])
    elif design == "pri_csi":
        t.set_primary_columnstore(rowgroup_size=256)
        fact.set_primary_columnstore(rowgroup_size=256)
    elif design == "sorted_csi":
        t.create_secondary_columnstore("csi_g", sorted_on="g",
                                       rowgroup_size=256)
        fact.create_secondary_columnstore("csi_fk", sorted_on="fk",
                                          rowgroup_size=256)
    return database


#: Templates and the values run through them, in order: in and out of
#: the column's range, NULL, float for an INT column, repeats.
STATEMENTS = (
    ("SELECT g, s FROM t WHERE k = ?",
     [(17,), (18,), (5000,), (-3,), (None,), (17.0,), (2399,), (9999,),
      (None,)]),
    ("SELECT k, s FROM t WHERE c = ?",
     [(3,), (39,), (40,), (None,), (3.0,), (2.5,), (4,), (41,)]),
    ("SELECT count(*), max(c) FROM t WHERE g = ?",
     [(0,), (1,), (7,), (1.0,), (0,), (-1,)]),
    ("SELECT count(*), min(k) FROM t WHERE s = ?",
     [("s1",), ("s0",), ("zz",), (None,), ("s2",)]),
    ("SELECT k FROM t WHERE ? = c AND n = ? ORDER BY k",
     [(5, 3), (5, None), (50, 3), (6, 4), (7, 10)]),
    ("SELECT count(*), sum(k) FROM t WHERE g = ? AND s = ?",
     [(1, "s1"), (0, "s2"), (2, "s0"), (1, "s0")]),
    ("SELECT d.dv, f.y FROM dim d JOIN fact f ON d.dk = f.fk "
     "WHERE d.dk = ? AND f.x = ?",
     [(3, 2), (4, 1), (60, 2), (3, 0), (49, 2), (5, None)]),
    ("SELECT count(*), sum(f.y) FROM dim d JOIN fact f ON d.dk = f.fk "
     "WHERE d.dv = ?",
     [(1,), (0,), (9,), (1,)]),
)
#: Literal texts of one template (the statement cache parses it once).
LITERALS = ("SELECT s, n FROM t WHERE k = {} AND g = {}",
            [(17, 1), (18, 0), (99999, 1), (20, 0), (21.5, 1)])


def executions():
    for sql, values in STATEMENTS:
        for params in values:
            yield sql, params
    sql, values = LITERALS
    for params in values:
        yield sql.format(*params), ()


def plan_hits(database) -> int:
    return getattr(database.statement_cache, "plan_hits", 0)


def plan_misses(database) -> int:
    return getattr(database.statement_cache, "plan_misses", 0)


def span_rows(span) -> list:
    return [(span.label, span.rows_out)] + [
        row for child in span.children for row in span_rows(child)]


def observed(result) -> tuple:
    """What a client and the sensors see of one execution."""
    return (result.columns, result.rows, asdict(result.metrics),
            result.plan.explain(), span_rows(result.root_span),
            plan_fingerprint(result.plan), result.wait_profile)


def replanned(reference: Executor, sql, params=(), **options):
    """``reference`` running ``sql`` through bind and optimize."""
    reference.database.statement_cache = StatementCache()
    return reference.execute(sql, params, **options)


def fingerprints(store: QueryStore) -> dict:
    return {stats.sql: (stats.recorded, stats.plan_fingerprints)
            for stats in store.top_by_cpu(len(store))}


def sqlite_rows(mirror, sql, params):
    rows = mirror.execute(sql, params).fetchall()
    return rows if "ORDER BY" in sql else sorted(rows, key=repr)


# ------------------------------------------------------------- the matrix
@pytest.mark.parametrize("design", DESIGNS)
def test_a_reused_plan_is_the_plan_planning_makes(design):
    database, reference_database = make_database(design), make_database(design)
    store, reference_store = QueryStore(), QueryStore()
    executor = Executor(database, query_store=store)
    reference = Executor(reference_database, query_store=reference_store)
    mirror = sqlite_mirror(database.tables())
    hit_plans = []
    for cold, grant in OPTIONS:
        options = {"cold": cold, "memory_grant_bytes": grant}
        for sql, params in executions():
            before = plan_hits(database)
            result = executor.execute(sql, params, **options)
            if plan_hits(database) > before:
                hit_plans.append(result.plan.explain())
            expected = replanned(reference, sql, params, **options)
            assert observed(result) == observed(expected), (sql, params)
            # (Planning reports missing indexes too: plan on both sides.)
            assert result.plan.explain() == executor.plan(
                sql, params, **options).explain() == reference.plan(
                sql, params, **options).explain(), (sql, params)
            rows = result.rows if "ORDER BY" in sql else sorted(
                result.rows, key=repr)
            assert rows == sqlite_rows(mirror, sql, params), (sql, params)
    assert hit_plans, design
    # Everything the sensors kept is what replanning every statement
    # leaves: events, history, Query Store, index usage, missing indexes.
    assert database.events.to_jsonl() == reference_database.events.to_jsonl()
    assert database.history.digest() == reference_database.history.digest()
    assert fingerprints(store) == fingerprints(reference_store)
    assert usage_rows(database) == usage_rows(reference_database)
    assert missing_index_rows(database) == missing_index_rows(
        reference_database)
    if design in ("btree", "btree+cov"):
        assert any("INL JOIN" in plan for plan in hit_plans), design
    if design in ("pri_csi", "sorted_csi"):
        assert any("columnstore g:[" in plan for plan in hit_plans), design


def test_the_matrix_reaches_what_it_claims():
    """Hits on seeks, scans, joins and aggregates; a plan reported as a
    missing index runs a kept tree, and is optimized and counted every
    time."""
    database = make_database("heap")
    executor = Executor(database)
    sql = "SELECT g, s FROM t WHERE k = ?"      # a heap scan: missing index
    for n, key in enumerate((1, 2, 3)):
        before = plan_hits(database)
        executor.execute(sql, (key,))
        assert plan_hits(database) == before + (n > 0)
    (row,) = missing_index_rows(database)
    assert row[:2] == ("t", "k") and row[4] == 3       # statement_count
    for design in ("btree", "pri_csi"):
        database = make_database(design)
        executor = Executor(database)
        executor.execute(sql, (1,))
        before = plan_hits(database)
        executor.execute(sql, (2,))
        assert plan_hits(database) == before + 1


def test_an_out_of_range_value_has_its_own_access_path():
    """``c`` has forty values: one of them is a heap scan's worth of
    rows, a value outside ``[0, 39]`` is estimated at one row and seeks
    the secondary index; each class reuses its own plan."""
    database = make_database("heap+ix")
    executor = Executor(database)
    sql = "SELECT k, s FROM t WHERE c = ?"
    expected = {3: "SCAN t via t_heap", 45: "SEEK t via ix_c",
                4: "SCAN t via t_heap", 46: "SEEK t via ix_c",
                -2: "SEEK t via ix_c"}
    hits = []
    for value, access in expected.items():
        before = plan_hits(database)
        result = executor.execute(sql, (value,))
        hits.append(plan_hits(database) - before)
        assert access in result.plan.explain(), value
        assert result.plan.explain() == executor.plan(sql, (value,)).explain()
        assert sorted(result.rows) == sorted(
            (k, f"s{k % 3}") for k in range(N_ROWS) if k % 40 == value)
    assert hits == [0, 0, 1, 1, 1]


# ----------------------------------------------------------- invalidation
def _runs(executor, sql, params):
    """``(result, whether it reused a plan)``."""
    before = plan_hits(executor.database)
    result = executor.execute(sql, params)
    return result, plan_hits(executor.database) > before


def test_a_new_index_is_seen_after_refresh_and_not_before():
    database = make_database("heap+ix")
    executor = Executor(database)
    sql = "SELECT k, s FROM t WHERE c = ?"
    executor.execute(sql, (3,))
    assert _runs(executor, sql, (4,))[1]
    database.table("t").create_secondary_btree(
        "ix_c_cov", ["c"], included_columns=["k", "s"])
    # Not refreshed: the uncached optimizer does not see it either.
    result, hit = _runs(executor, sql, (5,))
    assert hit and "ix_c_cov" not in result.plan.explain()
    assert result.plan.explain() == executor.plan(sql, (5,)).explain()
    executor.refresh()
    result, hit = _runs(executor, sql, (6,))
    assert not hit and "SEEK t via ix_c_cov" in result.plan.explain()
    assert observed(result) == observed(Executor(database).execute(sql, (6,)))
    assert _runs(executor, sql, (7,))[1]


def test_a_replaced_primary_is_read_without_refresh():
    """A kept tree's clustered seek was built over the table's primary.
    Rebuilding the primary without ``refresh()`` leaves the catalog's
    descriptors as they were, and the statement reads the new primary,
    as a freshly built seek does."""
    database = make_database("btree")
    executor = Executor(database)
    sql = "SELECT g, s FROM t WHERE k = ?"
    executor.execute(sql, (1,))
    database.table("t").set_primary_btree(["k"])
    executor.execute("UPDATE t SET s = 'zz' WHERE k = 2")
    result, hit = _runs(executor, sql, (2,))
    assert not hit and result.rows == [(0, "zz")]
    result, hit = _runs(executor, sql, (3,))
    assert hit and result.rows == [(1, "s0")]


def test_dml_past_the_auto_stats_threshold_replans():
    database = make_database("heap+ix")
    executor = Executor(database)
    sql = "SELECT k, s FROM t WHERE c = ?"
    executor.execute(sql, (45,))
    result, hit = _runs(executor, sql, (46,))
    assert hit and "SEEK t via ix_c" in result.plan.explain()
    # Below the threshold the statistics stand, and so does the plan;
    # the rows are the table's current ones.
    executor.execute("INSERT INTO t (k, g, c, s, n) VALUES "
                     "(90000, 0, 46, 's0', 1)")
    result, hit = _runs(executor, sql, (46,))
    assert hit and result.rows == [(90000, "s0")]
    assert result.plan.explain() == executor.plan(sql, (46,)).explain()
    # 25 % more rows, with c in 40..49: 46 is inside [min, max] now.
    values = ", ".join(f"({100000 + i}, 1, {40 + i % 10}, 's1', 2)"
                       for i in range(N_ROWS // 4))
    executor.execute(f"INSERT INTO t (k, g, c, s, n) VALUES {values}")
    result, hit = _runs(executor, sql, (46,))
    assert not hit and "SCAN t via t_heap" in result.plan.explain()
    assert observed(result) == observed(
        Executor(database).execute(sql, (46,)))
    assert _runs(executor, sql, (47,))[1]


def test_a_system_view_is_planned_against_its_fresh_snapshot():
    database = make_database("btree")
    executor = Executor(database)
    view = ("SELECT user_seeks FROM dm_db_index_usage_stats "
            "WHERE index_name = ?")
    (seeks,), = executor.execute(view, ("t_pk_btree",)).rows
    executor.execute("SELECT g FROM t WHERE k = ?", (1,))
    result, hit = _runs(executor, view, ("t_pk_btree",))
    assert not hit and result.rows == [(seeks + 1,)]


def test_ddl_on_another_table_keeps_the_plan():
    database = make_database("btree")
    executor = Executor(database)
    sql = "SELECT g, s FROM t WHERE k = ?"
    executor.execute(sql, (1,))
    database.create_table(TableSchema("other", [Column("o", INT)]))
    database.drop_table("fact")
    result, hit = _runs(executor, sql, (2,))
    assert hit and result.rows == [(0, "s2")]


def test_a_dropped_and_recreated_table_is_rebound():
    database = make_database("btree")
    executor = Executor(database)
    sql = "SELECT g FROM t WHERE k = ?"
    executor.execute(sql, (1,))
    database.drop_table("t")
    database.create_table(TableSchema("t", [
        Column("k", INT, nullable=False), Column("g", varchar(4))])
    ).bulk_load([(1, "one"), (2, "two")])
    executor.refresh()
    result, hit = _runs(executor, sql, (2,))
    assert not hit and result.rows == [("two",)]
    result, hit = _runs(executor, sql, (1,))
    assert hit and result.rows == [("one",)]


# ---------------------------------------------------- concurrent sessions
def test_sessions_share_plans_under_contention():
    """Eight sessions look keys up through three templates at once, with
    the interpreter switching threads as often as it can: every answer
    is right, and every execution is counted once, as a hit or a miss."""
    database = make_database("btree")
    texts = ("SELECT g, s FROM t WHERE k = ?",
             "SELECT d.dv, f.y FROM dim d JOIN fact f ON d.dk = f.fk "
             "WHERE d.dk = ? AND f.x = ?",
             "SELECT s, n FROM t WHERE k = {} AND g = {}")
    errors, per_thread = [], 60

    def client(seed):
        try:
            rng = random.Random(seed)
            session = manager.session()
            for i in range(per_thread):
                k = rng.randrange(N_ROWS)
                if i % 3 == 0:
                    result = session.execute(texts[0], (k,))
                    assert result.rows == [(k % 2, f"s{k % 3}")], k
                elif i % 3 == 1:
                    dk, x = k % 50, k % 3
                    result = session.execute(texts[1], (dk, x))
                    assert sorted(result.rows) == [
                        (dk % 2, y) for y in range(5000)
                        if y % 50 == dk and y % 3 == x], (dk, x)
                else:
                    result = session.execute(texts[2].format(k, k % 2))
                    assert result.rows == [
                        (f"s{k % 3}", None if k % 9 == 0 else k % 11)], k
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SessionManager(database) as manager:
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert plan_hits(database) + plan_misses(database) == 8 * per_thread
    # Three templates; a race may optimize one twice, never lose a count.
    assert plan_hits(database) >= 8 * per_thread - 3 * 8


# ------------------------------------------------------- random values
#: Ints and halves in and beyond the columns' ranges, and NULL.
_VALUES = st.one_of(st.integers(-5, 45), st.none(),
                    st.integers(-10, 90).map(lambda twice: twice / 2))


@pytest.fixture(scope="module")
def flip_databases():
    database = make_database("heap+ix")
    return (database, make_database("heap+ix"),
            sqlite_mirror([database.table("t")]))


@examples(60)
@given(c=_VALUES, n=_VALUES, g=st.integers(-1, 2))
def test_random_values_through_a_reused_plan(flip_databases, c, n, g):
    database, reference_database, mirror = flip_databases
    executor = Executor(database)
    sql = "SELECT k, n FROM t WHERE c = ? AND n = ? AND g = ?"
    earlier = missing_index_rows(database)
    first = executor.execute(sql, (c, n, g))
    reports = missing_index_rows(database)
    result, hit = _runs(executor, sql, (c, n, g))
    # Reused; a plan that reports a missing index (no B+ tree on g) is
    # optimized again, and reports it again.
    assert hit
    assert (missing_index_rows(database) != reports) == (reports != earlier)
    assert observed(result) == observed(first)
    reference = Executor(reference_database)
    assert observed(result) == observed(replanned(reference, sql, (c, n, g)))
    assert sorted(result.rows, key=repr) == sqlite_rows(
        mirror, sql, (c, n, g))


# ------------------------------------------------------ range templates
#: Range templates: one bound, two bounds from opposite sides, BETWEEN,
#: a range with an equality, a join, and composite-key prefixes (``g``
#: then ``k`` on the ``composite`` design).
RANGE_TEMPLATES = (
    "SELECT count(*), sum(c) FROM t WHERE k < ?",
    "SELECT k, s FROM t WHERE ? <= k AND k < ? ORDER BY k",
    "SELECT count(*), max(k) FROM t WHERE c BETWEEN ? AND ?",
    "SELECT g, count(*) FROM t WHERE k >= ? AND c <= ? GROUP BY g",
    "SELECT count(*), sum(f.y) FROM dim d JOIN fact f ON d.dk = f.fk "
    "WHERE f.fk < ? AND d.dv = ?",
    "SELECT count(*), sum(k) FROM t WHERE g = ? AND k BETWEEN ? AND ?",
    "SELECT count(*), sum(c) FROM t WHERE g BETWEEN ? AND ? AND k < ?",
)
RANGE_DESIGNS = DESIGNS + ("composite",)
#: In and beyond ``[min, max]`` of every column, both signs of 2**70,
#: NULL, a bool, floats and numpy integers.
_RANGE_VALUES = st.one_of(
    st.integers(-3, 2500), st.integers(-3, 3),
    st.sampled_from([None, True, False, 2 ** 70, -2 ** 70, 0.5, 17.5,
                     1200.25]),
    st.integers(-3, 2500).map(__import__("numpy").int64))


def make_range_database(design: str) -> Database:
    """:func:`make_database`, or for ``composite`` a heap design with
    ``t`` clustered on ``(g, k)``."""
    if design != "composite":
        return make_database(design)
    database = make_database("heap")
    database.table("t").set_primary_btree(["g", "k"])
    return database


@pytest.fixture(scope="module")
def range_databases():
    return {design: (make_range_database(design),
                     make_range_database(design))
            for design in RANGE_DESIGNS}


def _kept(executor, sql, plan) -> bool:
    """Whether ``sql``'s template keeps a tree for ``plan``'s decisions."""
    plans = executor.database.statement_cache.lookup(sql)[0].plans
    return bool(plans) and (executor.catalog, plan.decisions()) in \
        plans.entries


def _sqlite_values(values) -> bool:
    return all(value is None or type(value) in (int, float)
               and abs(value) < 2 ** 63 for value in values)


@examples(80)
@given(data=st.data(), design=st.sampled_from(RANGE_DESIGNS),
       sql=st.sampled_from(RANGE_TEMPLATES))
def test_a_range_hit_with_other_values_is_a_fresh_execution(
        range_databases, data, design, sql):
    """Warm a range template with one set of values, then run it with
    another: rows, every metric, span rows, the plan text and its Query
    Store fingerprint are what a fresh executor's execution gives. It
    hits exactly when its plan decides as the warm-up's did, unless a
    composite-key seek continued past a point made of two slots."""
    database, reference_database = range_databases[design]
    slots = sql.count("?")
    values = st.tuples(*[_RANGE_VALUES] * slots)
    warm, other = data.draw(values), data.draw(values)
    executor = Executor(database)
    warmed = executor.execute(sql, warm)
    kept = _kept(executor, sql, warmed.plan)
    result, hit = _runs(executor, sql, other)
    assert hit == (kept and result.plan.decisions()
                   == warmed.plan.decisions()), (warm, other)
    expected = replanned(Executor(reference_database), sql, other)
    assert observed(result) == observed(expected), (warm, other)
    if _sqlite_values(other):
        mirror = sqlite_mirror(reference_database.tables())
        rows = result.rows if "ORDER BY" in sql else sorted(
            result.rows, key=repr)
        assert rows == sqlite_rows(mirror, sql, other), other


@pytest.mark.parametrize("design", RANGE_DESIGNS)
def test_range_values_that_matter_hit_and_match(design):
    """The values the property must reach, run in order through each
    template after a warm-up, each compared with a fresh executor:
    low > high, BETWEEN with equal bounds (a point, which a composite
    key's seek continues past), values outside ``[min, max]``, 2**70,
    NULL, a bool, a float on an INT column and numpy integers."""
    import numpy as np

    database, reference_database = (make_range_database(design),
                                    make_range_database(design))
    executor = Executor(database)
    cases = (
        ("SELECT count(*), sum(c) FROM t WHERE k < ?",
         [(17,), (30,), (-5,), (9999,), (2 ** 70,), (-2 ** 70,), (None,),
          (True,), (40.5,), (np.int64(60),), (2399,)]),
        ("SELECT count(*), max(k) FROM t WHERE c BETWEEN ? AND ?",
         [(3, 9), (10, 20), (20, 10), (7, 7), (8, 8), (-9, 100),
          (None, 5), (2.5, np.int64(30)), (True, 3)]),
        ("SELECT count(*), sum(k) FROM t WHERE g = ? AND k BETWEEN ? AND ?",
         [(1, 10, 90), (0, 100, 300), (1, 50, 50), (0, 60, 60),
          (1, 90, 10), (5, 1, 2), (np.int64(1), 3, 9)]),
        ("SELECT count(*), sum(c) FROM t WHERE g BETWEEN ? AND ? AND k < ?",
         [(0, 1, 500), (0, 1, 900), (1, 1, 500), (1, 1, 700), (0, 0, 50),
          (1, 0, 50), (None, 1, 5)]),
    )
    hits = 0
    for sql, runs in cases:
        for values in runs:
            result, hit = _runs(executor, sql, values)
            hits += hit
            expected = replanned(Executor(reference_database), sql, values)
            assert observed(result) == observed(expected), (sql, values)
    assert hits >= 8, hits


def test_a_string_for_a_number_column_fails_every_time():
    """The binder refuses a string compared with an INT column. Value
    types whose bind succeeded are not bound again; a string's never
    did, so every execution binds and fails."""
    from repro.core.errors import SqlError

    executor = Executor(make_database("btree"))
    sql = "SELECT count(*) FROM t WHERE k < ?"
    executor.execute(sql, (5,))
    for _ in range(3):
        with pytest.raises(SqlError, match="cannot compare int column 'k'"):
            executor.execute(sql, ("3",))
        assert executor.execute(sql, (4,)).rows == [(4,)]


def test_a_missing_index_plan_is_kept_and_reported_every_time():
    """``c3 = ?`` on a heap reports a missing index each time it is
    optimized. Its plan is kept like a range plan's: every execution is
    optimized again and reported, and every one after the first hits."""
    database = make_database("heap")
    executor = Executor(database)
    counters = ("SELECT hits, misses FROM dm_os_memory_cache_counters "
                "WHERE cache_name = 'plan_cache'")
    (hits, misses), = executor.execute(counters).rows
    for key in range(1, 6):
        assert executor.execute("SELECT g, s FROM t WHERE k = ?",
                                (key,)).rows == [(key % 2, f"s{key % 3}")]
    (row,) = missing_index_rows(database)
    assert row[:2] == ("t", "k") and row[4] == 5        # statement_count
    # Misses: the first lookup, and the first read of the counters.
    assert executor.execute(counters).rows == [(hits + 4, misses + 2)]


def test_a_figure_1_sweep_through_one_text_flips_where_literals_do():
    """Figure 1 through one ``col1 < ?`` text on a heap with a secondary
    B+ tree and a columnstore: every execution plans as the literal text
    does on a fresh executor, so the access path changes at the same
    thresholds, and so does dop, at ``parallel_row_threshold`` rows."""
    rows = 100_000
    database, reference_database = Database(), Database()
    for db in (database, reference_database):
        table = db.create_table(TableSchema("r", [
            Column("col1", INT, nullable=False), Column("col2", INT)]))
        keys = list(range(rows))
        random.Random(3).shuffle(keys)
        table.bulk_load([(k, k % 97) for k in keys])
        table.create_secondary_btree("ix_col1", ["col1"],
                                     included_columns=["col2"])
        table.create_secondary_columnstore("csi_r", rowgroup_size=8192)
    executor = Executor(database)
    threshold = database.cost_model.parallel_row_threshold
    sql = "SELECT sum(col2) FROM r WHERE col1 < ?"
    sweep = sorted({int(rows * 10 ** (e / 16)) for e in range(-72, 1)})
    shapes, seeks, hits = [], [], 0
    for value in sweep:
        result, hit = _runs(executor, sql, (value,))
        hits += hit
        literal = replanned(Executor(reference_database),
                            f"SELECT sum(col2) FROM r WHERE col1 < {value}")
        assert observed(result) == observed(literal), value
        leaf, = result.plan.root.leaves()
        shapes.append((leaf.descriptor.name, leaf.access, leaf.dop))
        if leaf.access == "seek":
            seeks.append((leaf.est_rows, leaf.dop))
    # Seek, columnstore scan, a parallel seek, a scan again.
    changes = [n for n in range(1, len(shapes))
               if shapes[n][:2] != shapes[n - 1][:2]]
    assert len(changes) >= 3, shapes
    assert {dop for _, dop in seeks} == {1, database.cost_model.max_dop}
    assert all((dop > 1) == (rows_scanned >= threshold)
               for rows_scanned, dop in seeks)
    # Each distinct plan is built once; every other execution hits.
    assert hits == len(sweep) - len(set(shapes)), (hits, shapes)


# ------------------------------------------------------- what a hit does
#: ``(design, template, warm-up values, value of the spied execution)``:
#: a lookup by equality that keeps its plan on each design (a selective
#: ``k = ?`` on a heap or a columnstore reports a missing index, so
#: those look up the two-valued ``g``).
SPIED_LOOKUPS = (
    ("heap", "SELECT count(*) FROM t WHERE g = ?", [(0,), (1,)], (0,)),
    ("btree", "SELECT g, s FROM t WHERE k = ?", [(17,), (18,)], (2301,)),
    ("heap+ix", "SELECT k, s FROM t WHERE c = ?", [(45,), (46,)], (47,)),
    ("pri_csi", "SELECT count(*) FROM t WHERE g = ?", [(0,), (1,)], (1,)),
    ("paged", "SELECT g, s FROM t WHERE k = ?", [(17,), (18,)], (2301,)),
)


#: Range templates, spied alike: a hit with values other than the
#: warm-up's that the optimizer plans as it planned them.
SPIED_RANGES = (
    ("btree", "SELECT count(*), sum(c) FROM t WHERE k < ?", [(17,)], (30,)),
    ("heap+ix", "SELECT k, s FROM t WHERE c BETWEEN ? AND ?", [(45, 50)],
     (41, 47)),
    ("sorted_csi", "SELECT count(*) FROM t WHERE g >= ? AND k < ?",
     [(1, 900)], (0, 2000)),
    ("paged", "SELECT g, s FROM t WHERE ? <= k AND k <= ?", [(17, 30)],
     (100, 110)),
)
SPIED = ([case + (0,) for case in SPIED_LOOKUPS]
         + [case + (1,) for case in SPIED_RANGES])


@pytest.mark.parametrize(
    "design, sql, warm, values, optimizations", SPIED,
    ids=[case[0] for case in SPIED_LOOKUPS]
    + [f"{case[0]}-range" for case in SPIED_RANGES])
def test_a_hit_binds_plans_and_builds_nothing(tmp_path, design, sql, warm,
                                              values, optimizations):
    """A hit runs the kept operator tree with its values: no bind, no
    materialization, no plan copied, no statement instantiated from the
    template and no operator constructed. An equality lookup is not
    optimized either; a range template is optimized once, on its own
    values."""
    from collections import Counter
    from unittest import mock

    from repro.engine.operators.base import PhysicalOperator
    from repro.optimizer.materializer import Materializer
    from repro.optimizer.optimizer import Optimizer
    from repro.sql.binder import Binder

    if design == "paged":
        durable = make_database("btree")
        durable.enable_durability(str(tmp_path))
        durable.close()
        database = Database.open(str(tmp_path), paging=True,
                                 pool_bytes=256 * 1024)
    else:
        database = make_database(design)
    executor = Executor(database)
    for params in warm:
        executor.execute(sql, params)
    expected = Executor(make_database(
        "btree" if design == "paged" else design)).execute(sql, values)

    calls = Counter()

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return mock.patch.object(owner, name, counted)

    import repro.engine.executor as executor_module
    import repro.optimizer.reuse as reuse_module
    import repro.sql.parser as parser_module
    spies = [spy(Binder, "bind"), spy(Optimizer, "optimize"),
             spy(Materializer, "materialize"),
             spy(PhysicalOperator, "__init__"),
             spy(reuse_module, "_parametrize")]
    spies += [spy(module, "instantiate") for module in (
        executor_module, reuse_module, parser_module)]
    before = plan_hits(database)
    for patch in spies:
        patch.start()
    try:
        result = executor.execute(sql, values)
    finally:
        for patch in spies:
            patch.stop()
    assert plan_hits(database) == before + 1, design
    assert calls == Counter({"optimize": optimizations}), dict(calls)
    assert observed(result) == observed(expected)
    database.close()


def test_explain_analyze_of_a_hit_shows_its_values():
    """The kept tree holds parameters; EXPLAIN ANALYZE shows this
    execution's values, on operators that ran (span labels) and on one
    that never did (under ``LIMIT 0``)."""
    executor = Executor(make_database("btree"))
    for sql, warm, values in (
            ("SELECT g FROM t WHERE k = ? LIMIT 0", (6,), (3,)),
            ("SELECT d.dv, f.y FROM dim d JOIN fact f ON d.dk = f.fk "
             "WHERE d.dk = ? AND f.x = ?", (4, 1), (3, 2))):
        executor.execute(sql, warm)
        before = plan_hits(executor.database)
        analyzed = executor.explain_analyze(sql, values)
        assert plan_hits(executor.database) == before + 1
        fresh = Executor(make_database("btree")).explain_analyze(sql, values)
        assert analyzed.format() == fresh.format()
        assert "@" not in analyzed.format()

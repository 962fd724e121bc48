"""The statement cache is invisible: text -> template -> statement.

``parse(sql, params)`` is the uncached reference throughout. The corpus
is every workload statement plus the SQL of ``tests/test_sql.py``
(:mod:`tests.sql_corpus`); Hypothesis adds statements drawn from the
grammar.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.sql.cache as cache_module
from repro.core.errors import SqlError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT
from repro.engine.executor import Executor
from repro.engine.expressions import Arithmetic, Literal
from repro.server.session import SessionManager
from repro.sql.ast import SelectStmt
from repro.sql.cache import StatementCache
from repro.sql.lexer import tokenize
from repro.sql.parser import UNBOUND, normalise, parse, parse_template
from repro.storage.database import Database
from tests.sql_corpus import (
    parameterise,
    runnable_workloads,
    sql_literal,
    statement_corpus,
    strings_of_test_sql,
    with_other_literals,
)


def same(left, right) -> bool:
    """Dataclass-equal and, because ``Literal(1) == Literal(1.0)``,
    equal in the types of their values too."""
    return left == right and repr(left) == repr(right)


def error_of(fn, *args):
    with pytest.raises(SqlError) as info:
        fn(*args)
    return type(info.value), str(info.value)


# ----------------------------------------------- statements from the grammar
_COLUMNS = st.sampled_from(["a", "b", "c", "t.a", "t.b", "u.k"])
_STRINGS = st.text(alphabet="ab '%x", max_size=5)
_NUMBERS = st.one_of(
    st.integers(0, 10**6),
    st.integers(0, 10**6).map(lambda n: n / 100.0))


@st.composite
def statements(draw):
    """``(sql, params)`` drawn from the grammar: literals of every kind
    mixed with ``?`` markers, in every clause that takes them."""
    params = []

    def constant() -> str:
        kind = draw(st.sampled_from(
            ["number", "string", "null", "param", "negative", "date"]))
        if kind == "null":
            return "NULL"
        if kind == "date":
            return "DATE '2020-%02d-%02d'" % (
                draw(st.integers(1, 12)), draw(st.integers(1, 28)))
        value = draw(_STRINGS if kind == "string" else _NUMBERS)
        sign = "-" * draw(st.integers(1, 2)) if kind == "negative" else ""
        sign = " ".join(sign) + " " if sign else ""
        if kind == "param" or draw(st.booleans()) and kind == "negative":
            params.append(draw(st.one_of(_NUMBERS, _STRINGS, st.none())))
            return sign + "?"
        return sign + sql_literal(value)

    def scalar(depth: int) -> str:
        choice = draw(st.integers(0, 5 if depth else 2))
        if choice == 0:
            return draw(_COLUMNS)
        if choice <= 2:
            return constant()
        if choice == 3:
            return f"({scalar(depth - 1)} {draw(st.sampled_from('+-*/'))} " \
                   f"{scalar(depth - 1)})"
        if choice == 4:
            return f"DATEADD(day, {scalar(depth - 1)}, {scalar(depth - 1)})"
        return f"- {scalar(depth - 1)}"

    def in_member() -> str:
        if draw(st.booleans()):
            params.append(draw(st.one_of(_NUMBERS, _STRINGS)))
            return "?"
        return draw(st.one_of(
            _NUMBERS.map(repr), _STRINGS.map(sql_literal), st.just("NULL")))

    def predicate(depth: int) -> str:
        choice = draw(st.integers(0, 5 if depth else 2))
        if choice == 0:
            op = draw(st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">="]))
            return f"{scalar(1)} {op} {scalar(1)}"
        if choice == 1:
            return f"{draw(_COLUMNS)} BETWEEN {scalar(1)} AND {scalar(1)}"
        if choice == 2:
            members = [in_member() for _ in range(draw(st.integers(1, 4)))]
            return f"{draw(_COLUMNS)} IN ({', '.join(members)})"
        if choice == 3:
            return f"NOT {predicate(depth - 1)}"
        joiner = " AND " if choice == 4 else " OR "
        return "(" + joiner.join(
            predicate(depth - 1) for _ in range(draw(st.integers(2, 3)))) + ")"

    def top() -> str:
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return ""
        count = draw(st.integers(0, 50))
        if choice == 1:
            text = str(count)
        else:
            params.append(count)
            text = "?"
        return f"TOP ({text}) " if draw(st.booleans()) else f"TOP {text} "

    def where() -> str:
        return f" WHERE {predicate(2)}" if draw(st.booleans()) else ""

    kind = draw(st.sampled_from(["select", "select", "update", "delete",
                                 "insert"]))
    if kind == "select":
        sql = "SELECT " + ("DISTINCT " if draw(st.booleans()) else "") + top()
        sql += draw(st.sampled_from(
            ["*", "a, b", "t.a x, sum(b + 1) s", "count(*), max(c)"]))
        sql += " FROM t"
        if draw(st.booleans()):
            sql += f" JOIN u ON t.a = u.k AND {predicate(1)}"
        sql += where()
        if draw(st.booleans()):
            sql += " GROUP BY a ORDER BY a DESC"
        if draw(st.booleans()):
            sql += f" LIMIT {draw(st.integers(0, 50))}"
    elif kind == "update":
        sql = f"UPDATE {top()}t SET a = {scalar(2)}, b += {scalar(1)}"
        sql += where()
    elif kind == "delete":
        sql = f"DELETE {top()}FROM t" + where()
    else:
        rows = ["(" + ", ".join(
            constant() for _ in range(draw(st.integers(1, 3)))) + ")"
            for _ in range(draw(st.integers(1, 3)))]
        sql = "INSERT INTO t (a, b) VALUES " + ", ".join(rows)
    return sql, tuple(params)


# ------------------------------------------- (a) literals and ? are one thing
def check_parameterised_twin(sql, params):
    reference = parse(sql, params)
    twin_sql, values = parameterise(sql, params)
    assert same(parse(twin_sql, values), reference), (sql, twin_sql, values)


def test_corpus_literals_and_parameters_parse_alike():
    corpus = statement_corpus()
    assert len(corpus) > 1500
    for sql, params in corpus:
        check_parameterised_twin(sql, params)


@settings(max_examples=300, deadline=None)
@given(statements())
def test_generated_literals_and_parameters_parse_alike(statement):
    check_parameterised_twin(*statement)


@pytest.mark.parametrize("sql, params, check", [
    ("SELECT a FROM t WHERE a = -?", (5,),
     lambda s: s.where.right == Literal(-5)),
    ("SELECT a FROM t WHERE a = - - ?", (5,),
     lambda s: s.where.right == Literal(5)),
    ("SELECT a FROM t WHERE a = -(?)", (2.5,),
     lambda s: s.where.right == Literal(-2.5)),
    ("SELECT a FROM t WHERE a = -?", ("x",),
     lambda s: s.where.right == Arithmetic("-", Literal(0), Literal("x"))),
    ("SELECT TOP ? a FROM t", (7,), lambda s: s.top == 7),
    ("SELECT TOP (?) a FROM t LIMIT 3", (7,), lambda s: s.top == 3),
    ("SELECT TOP (?) a FROM t LIMIT 30", (7,), lambda s: s.top == 7),
    ("SELECT a FROM t WHERE a IN (?, 2, NULL, 'x')", (1,),
     lambda s: s.where.values == (1, 2, None, "x")),
    ("UPDATE TOP (?) t SET a = ? WHERE b = DATE '2020-02-03'", (4, None),
     lambda s: s.top == 4 and s.assignments[0].value == Literal(None)),
])
def test_parameter_forms(sql, params, check):
    for statement in (parse(sql, params),
                      StatementCache().statement(sql, params)):
        assert check(statement)


def test_template_shares_every_slot_free_subtree():
    sql = "SELECT a, sum(b) FROM t JOIN u ON t.a = u.k WHERE b < ? GROUP BY a"
    template = parse_template(tokenize(sql))
    one = StatementCache().statement(sql, (1,))
    first, second = (template._build((value,)) for value in (1, 2))
    assert same(first, one) and first.where != second.where
    assert first.items is second.items is template.statement.items
    assert first.joins is template.statement.joins
    slot_free = parse_template(tokenize("SELECT count(*) FROM t"))
    assert slot_free._build is None


def test_normalise_agrees_with_the_parser_on_what_is_a_slot():
    for sql, _ in statement_corpus():
        tokens = tokenize(sql)
        key, values = normalise(tokens)
        assert parse_template(tokens, slot_literals=True).n_slots \
            == len(values), sql
        assert hash(key) is not None


# --------------------------------------- (b) cache.statement == parse, always
class CountingLexer:
    """Stands in for the cache module's ``tokenize`` and counts calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(cache_module, "tokenize", self)

    def __call__(self, sql):
        self.calls += 1
        return tokenize(sql)


def check_cache_against_parse(cache, lexer, sql, params):
    reference = parse(sql, params)
    before = (lexer.calls, cache.hits, cache.misses)
    assert same(cache.statement(sql, params), reference), sql
    first_lookup_missed_text = lexer.calls == before[0] + 1
    # The same text again never reaches the lexer.
    calls, hits, misses = lexer.calls, cache.hits, cache.misses
    assert same(cache.statement(sql, params), reference), sql
    assert (lexer.calls, cache.hits, cache.misses) == (calls, hits + 1, misses)
    assert cache.lookup(sql)[0].read_only == isinstance(reference, SelectStmt)
    # A text of the same shape is tokenized once and not parsed.
    other = with_other_literals(sql)
    if other is not None and other != sql and first_lookup_missed_text:
        calls, misses = lexer.calls, cache.misses
        assert same(cache.statement(other, params), parse(other, params)), other
        assert (lexer.calls, cache.misses) == (calls + 1, misses)


def test_corpus_through_the_cache_equals_parse(monkeypatch):
    cache = StatementCache()
    lexer = CountingLexer(monkeypatch)
    corpus = statement_corpus()
    for sql, params in corpus:
        check_cache_against_parse(cache, lexer, sql, params)
    assert cache.hits > cache.misses > 0
    # The generated TPC-C statements alone are 2 000 texts of few shapes.
    assert cache.misses < len(corpus) / 10


@settings(max_examples=300, deadline=None)
@given(statements())
def test_generated_through_the_cache_equals_parse(statement):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_cache_against_parse(
            StatementCache(), CountingLexer(monkeypatch), *statement)


def test_errors_are_those_of_parse_and_cache_nothing():
    cache = StatementCache()
    bad = list(strings_of_test_sql()[1]) + [
        ("SELECT a FROM t WHERE a = 5 5", ()),
        ("SELECT a FROM t LIMIT ?", (1,)),
        ("SELECT a FROM t WHERE d = DATE ?", ("2020-01-01",)),
        ("SELECT a FROM t WHERE d = DATE '2020-13-01'", ()),
        ("SELECT TOP 'x' a FROM t", ()),
        ("SELECT a FROM t WHERE a = 'oops", ()),
        ("SELECT @ FROM t", ()),
        ("", ()),
    ]
    for sql, params in bad:
        assert error_of(cache.statement, sql, params) \
            == error_of(parse, sql, params), sql
        assert error_of(cache.lookup, sql) == error_of(
            lambda text: parse_template(tokenize(text)), sql), sql
    assert len(cache) == 0 and cache.hits == cache.misses == 0
    assert cache.bytes_cached == 0
    # A cached DATE shape does not let a bad date of the same shape in.
    cache.statement("SELECT a FROM t WHERE d = DATE '2020-01-01'")
    bad_date = "SELECT a FROM t WHERE d = DATE '2020-13-01'"
    assert error_of(cache.statement, bad_date) == error_of(parse, bad_date)


def test_too_few_parameters_raise_as_parse_does():
    cache = StatementCache()
    for sql, params in [
        ("SELECT a FROM t WHERE a = ? AND b = ?", (1,)),
        ("SELECT a FROM t WHERE a = ? AND b = 2 AND c = ?", (1,)),
        ("SELECT TOP ? a FROM t WHERE a IN (?, ?)", ()),
    ]:
        for _ in range(2):      # miss, then hit
            assert error_of(cache.statement, sql, params) \
                == error_of(parse, sql, params)
        enough = tuple(range(sql.count("?")))
        assert same(cache.statement(sql, enough), parse(sql, enough))
        # One value too many is an error too, as in sqlite3.
        assert error_of(cache.statement, sql, enough + (9,)) \
            == error_of(parse, sql, enough + (9,))


def _id_x_executor() -> Executor:
    database = Database()
    database.create_table(TableSchema("t", [
        Column("id", INT, nullable=False), Column("x", INT)])).bulk_load(
        [(5, 50), (7, 70)])
    return Executor(database)


def test_values_for_a_text_without_markers_raise():
    """As in ``sqlite3`` ("Incorrect number of bindings"); the value was
    silently ignored. The statement fails in prepare: it never begins."""
    executor = _id_x_executor()
    with pytest.raises(SqlError, match="more parameters"):
        executor.execute("SELECT x FROM t WHERE id = 5", (7,))
    assert executor.database.telemetry.clock.now == 0


def test_more_values_than_markers_raise():
    executor = _id_x_executor()
    with pytest.raises(SqlError, match="more parameters"):
        executor.execute("SELECT x FROM t WHERE id = ?", (7, 8))
    assert executor.execute("SELECT x FROM t WHERE id = ?", (7,)).rows == [
        (70,)]


def test_plans_are_capped_per_template_and_leave_with_it(monkeypatch):
    executor = _id_x_executor()
    cache = executor.database.statement_cache
    sql = "SELECT x FROM t WHERE id = ?"
    for grant in range(StatementCache.PLANS_PER_TEMPLATE + 1):
        executor.execute(sql, (5,), memory_grant_bytes=10_000 + grant)
    assert cache.plans_cached == StatementCache.PLANS_PER_TEMPLATE
    assert (cache.plan_misses, cache.plan_evictions) == (
        StatementCache.PLANS_PER_TEMPLATE + 1, 1)
    executor.execute(sql, (7,), memory_grant_bytes=10_000 + 1)
    assert cache.plan_hits == 1
    # Four other templates, which keep no plan (a slot in IN), push the
    # text and its template out.
    monkeypatch.setattr(StatementCache, "CAPACITY", 4)
    for column in ("id", "x", "id, x", "x, id"):
        executor.execute(f"SELECT {column} FROM t WHERE x IN (60, 70)")
    assert sql not in cache._entries and cache.plans_cached == 0
    assert cache.plan_evictions == 1 + StatementCache.PLANS_PER_TEMPLATE


def test_statements_of_one_template_do_not_alias():
    cache = StatementCache()
    sql = "SELECT a FROM t WHERE a = ? AND b IN (?, 3)"
    one, two = cache.statement(sql, (1, 2)), cache.statement(sql, (4, 5))
    assert same(one, parse(sql, (1, 2))) and same(two, parse(sql, (4, 5)))
    literal = "SELECT a FROM t WHERE a = 'PARAM' AND b = ?"
    assert same(cache.statement(literal, (1,)), parse(literal, (1,)))


# ------------------------------------------------ (c) through Session.execute
class Uncached(StatementCache):
    """The pre-cache pipeline: every lookup parses, as ``parse`` does (so
    no template, and no plan, is ever seen twice)."""

    def lookup(self, sql):
        template = parse_template(tokenize(sql))
        return template, (UNBOUND,) * template.n_slots


def observe(session, sql):
    """Everything a client can see of one execution."""
    database = session.manager.database
    seen = []
    unsubscribe = database.events.subscribe(seen.append)
    try:
        result = session.execute(sql)
    finally:
        unsubscribe()
    payloads = [
        (event.name, {key: value for key, value in event.payload.items()
                      if key != "statement"})
        for event in seen]
    return (result.columns, result.rows, asdict(result.metrics),
            result.plan.explain(), result.rows_affected, payloads)


@pytest.mark.parametrize("workload", [w[0] for w in runnable_workloads()])
def test_miss_hit_and_uncached_executions_agree(workload):
    _, build, statements = next(
        w for w in runnable_workloads() if w[0] == workload)
    database = build()
    cache = database.statement_cache
    selects = [sql for sql in dict.fromkeys(statements)
               if cache.lookup(sql)[0].read_only]
    assert selects
    database.statement_cache = cache = StatementCache()
    uncached_cache = Uncached()
    with SessionManager(database) as manager:
        session = manager.session()
        for sql in selects:
            database.statement_cache = uncached_cache
            uncached = observe(session, sql)
            database.statement_cache = cache
            misses = cache.misses + cache.hits
            first = observe(session, sql)
            second = observe(session, sql)
            assert first == uncached, sql
            assert second == uncached, sql
            # one lookup per execution; the second is a text hit
            assert cache.hits + cache.misses == misses + 2
    assert cache.hits > 0


# ------------------------------------------------------------ (d) the cap
def test_distinct_texts_stop_at_the_cap():
    cache = StatementCache()
    hot = "SELECT a FROM t WHERE a = ?"
    cache.statement(hot, (1,))
    for i in range(10_000):
        sql = f"SELECT a FROM t WHERE a = {i} AND b = 'v{i}'"
        assert cache.statement(sql).where.operands[0].right == Literal(i)
    assert len(cache) == StatementCache.CAPACITY
    assert cache.misses == 2            # two shapes, 10 001 texts
    assert cache.hits == 10_001 - 2
    assert cache.evictions == 10_001 + 2 - StatementCache.CAPACITY
    # Used on every lookup, the shared template outlives 10 000 texts;
    # the once-used ?-text and the early literal texts are gone.
    key, _ = normalise(tokenize("SELECT a FROM t WHERE a = 0 AND b = 'v'"))
    assert key in cache._entries and hot not in cache._entries
    retained = [k for k in cache._entries if isinstance(k, str)]
    assert cache.bytes_cached == sum(len(k.encode()) for k in retained)
    assert retained[-1].endswith("'v9999'")


def test_long_texts_are_parsed_but_not_retained():
    cache = StatementCache()
    rows = ", ".join(f"({i}, 'r{i}')" for i in range(1000))
    sql = f"INSERT INTO t (a, b) VALUES {rows}"
    assert len(sql) > StatementCache.MAX_TEXT_CHARS
    assert same(cache.statement(sql), parse(sql))
    assert len(cache) == 0 and cache.bytes_cached == 0
    assert (cache.hits, cache.misses) == (0, 1)


def test_executor_and_dmv_see_the_cache():
    _, build, _ = next(w for w in runnable_workloads() if w[0] == "synthetic")
    database = build()
    executor = Executor(database)
    for threshold in (10, 20, 10):
        executor.execute(f"SELECT sum(col1) FROM micro WHERE col1 < {threshold}")
    cache = database.statement_cache
    assert (cache.hits, cache.misses, len(cache)) == (2, 1, 3)
    row = executor.execute(
        "SELECT entries, hits, misses, evictions, hit_ratio, bytes_cached, "
        "budget_bytes FROM dm_os_memory_cache_counters "
        "WHERE cache_name = 'statement_cache'").rows
    texts = [k for k in cache._entries if isinstance(k, str)]
    assert row == [(5, 2, 2, 0, 0.5, sum(len(t.encode()) for t in texts), 0)]
    assert executor.explain("SELECT sum(col1) FROM micro WHERE col1 < 10")
    assert cache.hits == 3


def test_long_operator_chains_nest_no_deeper_than_before():
    """A flat chain of 600 terms parses and binds at the parent commit
    (the binder recurses once per term); templates must not be what
    runs out of stack first."""
    chain = " + ".join(["1"] * 599)
    for sql, params in ((f"SELECT a FROM t WHERE a = {chain} + 1", ()),
                        (f"SELECT a FROM t WHERE a = {chain} + ?", (1,))):
        node = StatementCache().statement(sql, params).where.right
        assert node.right == Literal(1)
        depth = 0
        while isinstance(node, Arithmetic):     # == would recurse too
            depth, node = depth + 1, node.left
        assert depth == 599 and node == Literal(1)

"""Tests for the SQL lexer, parser, and binder."""

import pytest

from repro.core.errors import SqlError
from repro.core.schema import Column, TableSchema
from repro.core.types import DATE, INT, date_to_int, decimal, varchar
from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Or,
)
from repro.sql.ast import AggregateCall, SelectStmt, UpdateStmt
from repro.sql.binder import Binder, BoundSelect, BoundUpdate
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from repro.storage.database import Database

import datetime


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt FROM where")
        assert [t.value for t in tokens[:-1]] == ["select", "from", "where"]

    def test_numbers(self):
        tokens = tokenize("1 2.5 0.01")
        assert [t.value for t in tokens[:-1]] == [1, 2.5, 0.01]

    def test_string_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("'oops")

    def test_operators(self):
        tokens = tokenize("<= >= != <> = < >")
        assert [t.value for t in tokens[:-1]] == [
            "<=", ">=", "!=", "!=", "=", "<", ">"]

    def test_qualified_name_dot(self):
        types = [t.type for t in tokenize("t.col")]
        assert types[:3] == ["IDENT", "DOT", "IDENT"]

    def test_comment_skipped(self):
        tokens = tokenize("select -- comment here\n 1")
        assert [t.value for t in tokens[:-1]] == ["select", 1]

    def test_unknown_character(self):
        with pytest.raises(SqlError):
            tokenize("select @x")


class TestParser:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert isinstance(stmt, SelectStmt)
        assert len(stmt.items) == 2
        assert stmt.from_table.table == "t"

    def test_select_star(self):
        stmt = parse("SELECT * FROM t")
        from repro.sql.ast import Star
        assert isinstance(stmt.items[0].expr, Star)

    def test_aggregates(self):
        stmt = parse("SELECT sum(a), count(*), avg(b) FROM t")
        funcs = [item.expr.func for item in stmt.items]
        assert funcs == ["sum", "count", "avg"]
        assert stmt.items[1].expr.argument is None

    def test_sum_star_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT sum(*) FROM t")

    def test_where_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a < 1 OR b > 2 AND c = 3")
        assert isinstance(stmt.where, Or)
        assert isinstance(stmt.where.operands[1], And)

    def test_between_and_in(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2)")
        conj = stmt.where.operands
        assert isinstance(conj[0], Between)
        assert isinstance(conj[1], InList)
        assert conj[1].values == (1, 2)

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT sum(a + b * 2) FROM t")
        expr = stmt.items[0].expr.argument
        assert isinstance(expr, Arithmetic) and expr.op == "+"
        assert isinstance(expr.right, Arithmetic) and expr.right.op == "*"

    def test_parenthesized(self):
        stmt = parse("SELECT sum(e * (1 - d)) FROM t")
        expr = stmt.items[0].expr.argument
        assert expr.op == "*"
        assert expr.right.op == "-"

    def test_unary_minus_folds(self):
        stmt = parse("SELECT a FROM t WHERE a > -5")
        assert stmt.where.right == Literal(-5)

    def test_group_order_limit(self):
        stmt = parse("SELECT a, sum(b) FROM t GROUP BY a "
                     "ORDER BY a DESC LIMIT 10")
        assert len(stmt.group_by) == 1
        assert stmt.order_by[0].descending
        assert stmt.top == 10

    def test_top(self):
        stmt = parse("SELECT TOP (5) a FROM t")
        assert stmt.top == 5
        stmt2 = parse("SELECT TOP 5 a FROM t")
        assert stmt2.top == 5

    def test_joins(self):
        stmt = parse("SELECT a FROM t1 x JOIN t2 y ON x.a = y.b "
                     "INNER JOIN t3 z ON y.c = z.d")
        assert len(stmt.joins) == 2
        assert stmt.joins[0].table.alias == "y"

    def test_alias_forms(self):
        stmt = parse("SELECT a AS x, b y FROM t AS q")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_table.alias == "q"

    def test_date_literal(self):
        stmt = parse("SELECT a FROM t WHERE d = DATE '1995-06-17'")
        expected = date_to_int(datetime.date(1995, 6, 17))
        assert stmt.where.right == Literal(expected)

    def test_dateadd(self):
        stmt = parse("SELECT a FROM t WHERE d < DATEADD(day, 7, DATE '1995-01-01')")
        expr = stmt.where.right
        assert isinstance(expr, Arithmetic) and expr.op == "+"

    def test_update_compound_assignment(self):
        stmt = parse("UPDATE t SET a += 1 WHERE b = 2")
        assert isinstance(stmt, UpdateStmt)
        value = stmt.assignments[0].value
        assert isinstance(value, Arithmetic) and value.op == "+"

    def test_update_top(self):
        stmt = parse("UPDATE TOP (10) t SET a = 1")
        assert stmt.top == 10

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert stmt.table.table == "t"

    def test_insert(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_params(self):
        stmt = parse("SELECT a FROM t WHERE a < ? AND b IN (?, ?)",
                     [10, 1, 2])
        conj = stmt.where.operands
        assert conj[0].right == Literal(10)
        assert conj[1].values == (1, 2)

    def test_missing_params_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE a < ?")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t garbage extra tokens ,")

    def test_empty_statement_rejected(self):
        with pytest.raises(SqlError):
            parse("")


def make_db():
    db = Database()
    lineitem = db.create_table(TableSchema("lineitem", [
        Column("l_orderkey", INT, nullable=False),
        Column("l_quantity", decimal(2)),
        Column("l_shipdate", DATE),
        Column("l_comment", varchar(44)),
    ]))
    lineitem.bulk_load([
        (i, float(i % 50), 9000 + (i % 100), f"c{i}") for i in range(100)
    ])
    orders = db.create_table(TableSchema("orders", [
        Column("o_orderkey", INT, nullable=False),
        Column("o_custkey", INT),
    ]))
    orders.bulk_load([(i, i % 10) for i in range(50)])
    return db


class TestBinder:
    def bind(self, sql, params=()):
        db = make_db()
        return Binder(db).bind(parse(sql, params)), db

    def test_qualifies_bare_columns(self):
        bound, _ = self.bind("SELECT l_quantity FROM lineitem "
                             "WHERE l_orderkey < 10")
        assert bound.outputs[0].source == "lineitem.l_quantity"
        assert "lineitem.l_orderkey" in str(bound.where)

    def test_ambiguous_column_rejected(self):
        db = make_db()
        with pytest.raises(SqlError):
            # both tables joined; fabricate ambiguity via same column name
            Binder(db).bind(parse(
                "SELECT l_quantity FROM lineitem JOIN orders "
                "ON l_orderkey = o_orderkey WHERE zzz = 1"))

    def test_unknown_table_rejected(self):
        db = make_db()
        with pytest.raises(Exception):
            Binder(db).bind(parse("SELECT a FROM missing"))

    def test_unknown_column_rejected(self):
        db = make_db()
        with pytest.raises(SqlError):
            Binder(db).bind(parse("SELECT nope FROM lineitem"))

    def test_star_expansion(self):
        bound, _ = self.bind("SELECT * FROM orders")
        assert [o.name for o in bound.outputs] == ["o_orderkey", "o_custkey"]

    def test_duplicate_output_names_rejected(self):
        # Results are keyed by output name: both statements used to
        # return b.id's values under both columns.
        db = Database()
        for name in "ab":
            db.create_table(TableSchema(name, [
                Column("id", INT, nullable=False), Column("k", INT)]))
        for sql in ("SELECT a.id, b.id FROM a JOIN b ON a.k = b.k",
                    "SELECT * FROM a JOIN b ON a.k = b.k",
                    "SELECT a.k id, count(*) id FROM a GROUP BY a.k"):
            with pytest.raises(SqlError, match="duplicate output column 'id'; "
                                               "alias one of them"):
                Binder(db).bind(parse(sql))
        bound = Binder(db).bind(parse(
            "SELECT a.id aid, b.id bid FROM a JOIN b ON a.k = b.k"))
        assert [out.name for out in bound.outputs] == ["aid", "bid"]

    def test_join_edges_extracted(self):
        bound, _ = self.bind(
            "SELECT l_quantity FROM lineitem l JOIN orders o "
            "ON l.l_orderkey = o.o_orderkey")
        assert len(bound.join_edges) == 1
        edge = bound.join_edges[0]
        assert {edge.left_qualified, edge.right_qualified} == {
            "l.l_orderkey", "o.o_orderkey"}

    def test_where_join_condition_becomes_edge(self):
        bound, _ = self.bind(
            "SELECT l_quantity FROM lineitem l JOIN orders o "
            "ON l.l_orderkey = o.o_orderkey "
            "WHERE l.l_orderkey = o.o_orderkey")
        assert len(bound.join_edges) == 2  # one from ON, one from WHERE

    def test_date_string_coerced(self):
        bound, _ = self.bind(
            "SELECT l_quantity FROM lineitem WHERE l_shipdate = '1994-09-01'")
        expected = date_to_int(datetime.date(1994, 9, 1))
        assert f"{expected}" in str(bound.where)

    def test_dateadd_folded_to_literal(self):
        bound, _ = self.bind(
            "SELECT sum(l_quantity) FROM lineitem WHERE l_shipdate "
            "BETWEEN '1994-09-01' AND DATEADD(day, 1, '1994-09-01')")
        from repro.engine.expressions import extract_column_ranges
        ranges = extract_column_ranges(bound.where)
        r = ranges["lineitem.l_shipdate"]
        assert r.high - r.low == 1

    def test_aggregate_classification(self):
        bound, _ = self.bind(
            "SELECT o_custkey, count(*) c FROM orders GROUP BY o_custkey")
        assert bound.is_aggregate
        assert bound.group_by == ["orders.o_custkey"]
        assert bound.aggregates[0].func == "count"
        assert bound.outputs[1].name == "c"

    def test_non_grouped_column_rejected(self):
        db = make_db()
        with pytest.raises(SqlError):
            Binder(db).bind(parse(
                "SELECT o_orderkey, count(*) FROM orders GROUP BY o_custkey"))

    def test_order_by_alias_resolves(self):
        bound, _ = self.bind(
            "SELECT o_custkey, count(*) AS c FROM orders "
            "GROUP BY o_custkey ORDER BY o_custkey")
        assert bound.order_by[0][0] == "orders.o_custkey"

    def test_referenced_columns(self):
        bound, _ = self.bind(
            "SELECT sum(l_quantity) FROM lineitem WHERE l_shipdate > "
            "'1994-01-01'")
        refs = bound.referenced_columns("lineitem")
        assert refs == ["l_quantity", "l_shipdate"]

    def test_bind_update(self):
        bound, _ = self.bind(
            "UPDATE TOP (5) lineitem SET l_quantity += 1 "
            "WHERE l_shipdate = '1994-09-01'")
        assert isinstance(bound, BoundUpdate)
        assert bound.top == 5
        assert bound.assignments[0][0] == "l_quantity"

    def test_bind_insert_with_date(self):
        bound, _ = self.bind(
            "INSERT INTO lineitem VALUES (999, 1.0, '1996-01-01', 'x')")
        from repro.sql.binder import BoundInsert
        assert isinstance(bound, BoundInsert)
        expected = date_to_int(datetime.date(1996, 1, 1))
        assert bound.rows[0][2] == expected

    def test_insert_arity_mismatch(self):
        db = make_db()
        with pytest.raises(SqlError):
            Binder(db).bind(parse("INSERT INTO orders (o_orderkey) "
                                  "VALUES (1, 2)"))

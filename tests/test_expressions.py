"""Tests for expression evaluation (row + batch) and sargable analysis."""

import numpy as np
import pytest

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch
from repro.engine.expressions import (
    And,
    Arithmetic,
    Between,
    ColumnRange,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    conjuncts,
    drop_folded_conjuncts,
    elimination_ranges,
    eval_batch,
    extract_column_ranges,
    make_and,
)
from tests.reference_eval import compile_row_predicate, eval_row


def col(name):
    return ColumnRef(name)


def lit(value):
    return Literal(value)


POS = {"a": 0, "b": 1, "s": 2}
ROW = (10, 4, "hello")


def batch():
    return Batch({
        "a": np.array([1, 10, 20, 30]),
        "b": np.array([5, 4, 3, 2]),
        "s": np.array(["x", "hello", None, "z"], dtype=object),
    })


class TestRowEval:
    def test_column_and_literal(self):
        assert eval_row(col("a"), ROW, POS) == 10
        assert eval_row(lit(7), ROW, POS) == 7

    def test_arithmetic(self):
        expr = Arithmetic("+", col("a"), Arithmetic("*", col("b"), lit(2)))
        assert eval_row(expr, ROW, POS) == 18

    def test_division(self):
        assert eval_row(Arithmetic("/", col("a"), lit(4)), ROW, POS) == 2.5

    def test_arithmetic_null_propagates(self):
        expr = Arithmetic("+", col("a"), lit(None))
        assert eval_row(expr, ROW, POS) is None

    def test_comparisons(self):
        assert eval_row(Comparison("<", col("a"), lit(11)), ROW, POS)
        assert not eval_row(Comparison("=", col("b"), lit(5)), ROW, POS)
        assert eval_row(Comparison("!=", col("s"), lit("bye")), ROW, POS)

    def test_comparison_with_null_is_false(self):
        assert eval_row(Comparison("=", col("a"), lit(None)), ROW, POS) is False

    def test_between(self):
        assert eval_row(Between(col("a"), lit(5), lit(15)), ROW, POS)
        assert not eval_row(Between(col("a"), lit(11), lit(15)), ROW, POS)

    def test_in_list(self):
        assert eval_row(InList(col("b"), (1, 4, 9)), ROW, POS)
        assert not eval_row(InList(col("b"), (1, 9)), ROW, POS)

    def test_and_or_not(self):
        t = Comparison(">", col("a"), lit(0))
        f = Comparison("<", col("a"), lit(0))
        assert eval_row(And((t, t)), ROW, POS)
        assert not eval_row(And((t, f)), ROW, POS)
        assert eval_row(Or((f, t)), ROW, POS)
        assert eval_row(Not(f), ROW, POS)

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError):
            eval_row(col("zzz"), ROW, POS)

    def test_bad_operator_rejected(self):
        with pytest.raises(ExecutionError):
            Comparison("<>", col("a"), lit(1))
        with pytest.raises(ExecutionError):
            Arithmetic("%", col("a"), lit(1))

    def test_compiled_predicate(self):
        pred = compile_row_predicate(Comparison(">", col("a"), lit(5)), POS)
        assert pred(ROW) is True
        always = compile_row_predicate(None, POS)
        assert always(ROW) is True


class TestBatchEval:
    def test_comparison_mask(self):
        mask = eval_batch(Comparison("<", col("a"), lit(15)), batch())
        assert mask.tolist() == [True, True, False, False]

    def test_between_mask(self):
        mask = eval_batch(Between(col("a"), lit(10), lit(20)), batch())
        assert mask.tolist() == [False, True, True, False]

    def test_arithmetic_array(self):
        values = eval_batch(Arithmetic("+", col("a"), col("b")), batch())
        assert values.tolist() == [6, 14, 23, 32]

    def test_in_list_numeric(self):
        mask = eval_batch(InList(col("a"), (10, 30)), batch())
        assert mask.tolist() == [False, True, False, True]

    def test_in_list_object(self):
        mask = eval_batch(InList(col("s"), ("x", "z")), batch())
        assert mask.tolist() == [True, False, False, True]

    def test_null_comparison_not_true(self):
        mask = eval_batch(Comparison("=", col("s"), lit("hello")), batch())
        assert mask.tolist() == [False, True, False, False]

    def test_in_list_null_is_not_true(self):
        mask = eval_batch(InList(col("s"), ("x", None)), batch())
        assert mask.tolist() == [True, False, False, False]

    def test_null_masks_match_eval_row(self):
        """Arithmetic propagates NULL, comparisons over it are not-true —
        column against column, literal on either side, a NULL literal."""
        nullable = Batch({
            "a": np.array([1, None, 3, None], dtype=object),
            "b": np.array([2, 5, None, None], dtype=object),
            "s": np.array([7, 8, 9, 10]),
        })
        rows = list(zip(*(nullable.column(c).tolist() for c in "abs")))
        total = Arithmetic("+", col("a"), col("b"))
        for expr in (
                Comparison("<", col("a"), col("b")),
                Comparison(">=", lit(3), col("a")),
                Comparison("!=", col("a"), lit(None)),
                Comparison(">", total, lit(2)),
                Comparison("<", Arithmetic("*", col("a"), col("s")), col("s")),
                Between(col("s"), col("a"), Arithmetic("/", col("s"), lit(1))),
                Not(Comparison("=", total, lit(3)))):
            want = [bool(eval_row(expr, row, POS)) for row in rows]
            assert eval_batch(expr, nullable).tolist() == want, str(expr)
        assert eval_batch(total, nullable).tolist() == [3, None, None, None]

    def test_and_or(self):
        expr = And((Comparison(">", col("a"), lit(5)),
                    Comparison("<", col("b"), lit(4))))
        assert eval_batch(expr, batch()).tolist() == [False, False, True, True]
        expr = Or((Comparison("=", col("a"), lit(1)),
                   Comparison("=", col("a"), lit(30))))
        assert eval_batch(expr, batch()).tolist() == [True, False, False, True]

    def test_not(self):
        mask = eval_batch(Not(Comparison("<", col("a"), lit(15))), batch())
        assert mask.tolist() == [False, False, True, True]


class TestAnalysis:
    def test_make_and_flattens(self):
        a = Comparison(">", col("a"), lit(1))
        b = Comparison("<", col("a"), lit(9))
        c = Comparison("=", col("b"), lit(2))
        combined = make_and([And((a, b)), c, None])
        assert isinstance(combined, And)
        assert len(combined.operands) == 3

    def test_make_and_trivial_cases(self):
        assert make_and([]) is None
        single = Comparison("=", col("a"), lit(1))
        assert make_and([single]) is single

    def test_conjuncts(self):
        a = Comparison(">", col("a"), lit(1))
        b = Comparison("<", col("b"), lit(9))
        assert conjuncts(make_and([a, b])) == [a, b]
        assert conjuncts(None) == []
        assert conjuncts(a) == [a]

    def test_range_from_inequalities(self):
        expr = make_and([
            Comparison(">=", col("a"), lit(5)),
            Comparison("<", col("a"), lit(10)),
        ])
        ranges = extract_column_ranges(expr)
        r = ranges["a"]
        assert (r.low, r.high) == (5, 10)
        assert r.low_inclusive and not r.high_inclusive

    def test_range_tightens(self):
        expr = make_and([
            Comparison(">", col("a"), lit(1)),
            Comparison(">", col("a"), lit(5)),
            Comparison("<=", col("a"), lit(100)),
            Comparison("<", col("a"), lit(50)),
        ])
        r = extract_column_ranges(expr)["a"]
        assert (r.low, r.high) == (5, 50)
        assert not r.low_inclusive and not r.high_inclusive

    def test_equality_gives_point(self):
        r = extract_column_ranges(Comparison("=", col("a"), lit(7)))["a"]
        assert r.is_point
        assert r.as_bounds() == (7, 7)

    def test_flipped_literal_comparison(self):
        r = extract_column_ranges(Comparison(">", lit(10), col("a")))["a"]
        assert r.high == 10 and not r.high_inclusive

    def test_between_contributes(self):
        r = extract_column_ranges(Between(col("a"), lit(2), lit(8)))["a"]
        assert r.as_bounds() == (2, 8)

    def test_or_not_sargable(self):
        expr = Or((Comparison("=", col("a"), lit(1)),
                   Comparison("=", col("a"), lit(2))))
        assert extract_column_ranges(expr) == {}

    def test_not_equal_not_sargable(self):
        assert extract_column_ranges(
            Comparison("!=", col("a"), lit(1))) == {}

    def test_elimination_ranges(self):
        expr = make_and([
            Comparison(">=", col("a"), lit(5)),
            Comparison("=", col("b"), lit(3)),
        ])
        assert elimination_ranges(expr) == {"a": (5, None), "b": (3, 3)}

    def test_ranges_remember_the_conjuncts_folded_into_them(self):
        low = Comparison(">=", col("a"), lit(3))
        between = Between(col("a"), lit(0), lit(9))
        flipped = Comparison("<", lit(1), col("b"))
        not_folded = [Comparison("!=", col("a"), lit(4)),
                      Comparison("<", col("a"), lit(None)),
                      Between(col("b"), lit(None), lit(5)),
                      Or((low, flipped))]
        ranges = extract_column_ranges(
            make_and([low, between, flipped] + not_folded))
        assert ranges["a"].sources == (low, between)
        assert ranges["b"].sources == (flipped,)
        assert ranges["a"] == ColumnRange(low=3, high=9)  # sources not compared

    def test_drop_folded_conjuncts(self):
        keep = Comparison("!=", col("a"), lit(4))
        flipped = Comparison("<", lit(1), col("b"))
        expr = make_and([
            Comparison(">=", col("a"), lit(3)), Between(col("a"), lit(0), lit(9)),
            keep, flipped])
        ranges = extract_column_ranges(expr)
        assert drop_folded_conjuncts(expr, [ranges["a"]]) == make_and(
            [keep, flipped])
        assert drop_folded_conjuncts(expr, ranges.values()) == keep
        assert drop_folded_conjuncts(expr, []) is expr
        assert drop_folded_conjuncts(None, ranges.values()) is None
        point = Comparison("=", col("a"), lit(5))
        assert drop_folded_conjuncts(
            point, extract_column_ranges(point).values()) is None
        # by identity: an equal range built by hand enforces nothing known
        assert drop_folded_conjuncts(expr, [ColumnRange(low=3, high=9)]) is expr

    def test_columns_collection(self):
        expr = make_and([
            Comparison(">", col("a"), lit(1)),
            Between(col("b"), lit(0), col("c")),
        ])
        assert sorted(set(expr.columns())) == ["a", "b", "c"]

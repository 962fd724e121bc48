"""``MergeJoin`` and ``IndexNestedLoopJoin`` against the bodies they
replaced (``tests/reference_joins.py``), on the same inputs.

Everything a consumer or the cost model can observe must be equal: the
rows in order, where the output batches close and the dtype of every
column of every batch, ``QueryMetrics`` (floats bit for bit: the charges
and the order they are added in), the index usage counters and the
operator spans. The nested-loop join's inner side is a seek operator
now; with a residual it must also equal ``eval_batch`` applied to what
the reference returns without one.

NULL merge keys are the one place the reference is wrong (it raises out
of ``None < None``); they are pinned against ``sqlite3`` instead.
"""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ExecutionError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.engine.batch import batch_to_rows
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    eval_batch,
)
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import BTreeSeek, IndexNestedLoopJoin, MergeJoin
from repro.storage.database import Database
from tests.oracle import examples, sqlite_answer
from tests.reference_joins import (
    ReferenceIndexNestedLoopJoin,
    ReferenceMergeJoin,
)
from tests.test_hash_join import Rows

KEY_KINDS = {
    "int": (INT, lambda i: i),
    "float": (decimal(8), lambda i: i * 0.5),
    "str": (varchar(4), lambda i: f"k{i}"),
}
INNER_COLUMNS = ["id", "k", "g", "a", "s", "f"]
INNER_DESIGNS = ("primary", "covering", "lookup")


class Sorted(Rows):
    """``Rows`` that declares the ordering a merge join checks for."""

    def __init__(self, names, rows, ordering, **options):
        super().__init__(names, rows, **options)
        self.ordering = list(ordering)

    @property
    def output_ordering(self):
        return self.ordering


def observe(op, indexes=(), cold=False):
    """Everything observable about one execution of ``op``."""
    usage = [index.usage for index in indexes]
    before = [(u.user_seeks, u.user_scans, u.user_lookups) for u in usage]
    ctx = ExecutionContext(cold=cold)
    batches = list(op.execute(ctx))
    return {
        "batches": [[(name, column.dtype.str, column.tolist())
                     for name, column in batch.columns.items()]
                    for batch in batches],
        "metrics": dataclasses.asdict(ctx.metrics),
        "usage": [(u.user_seeks - seeks, u.user_scans - scans,
                   u.user_lookups - lookups)
                  for u, (seeks, scans, lookups) in zip(usage, before)],
        "spans": [(span.label, span.rows_out, span.batches_out)
                  for span in ctx.root_span.walk()],
    }, batches


def assert_same(got, want):
    for aspect in want:
        assert got[aspect] == want[aspect], aspect


# ============================================== the nested-loop join

def inner_table(kind, design, two_key_columns, rows):
    """``i(id, k, g, a, s, f)``: ``k`` (of ``kind``) and ``g`` are NOT
    NULL, as index keys must be; ``a``, ``s``, ``f`` are nullable."""
    key_type, _ = KEY_KINDS[kind]
    table = Database().create_table(TableSchema("i", [
        Column("id", INT, nullable=False),
        Column("k", key_type, nullable=False),
        Column("g", INT, nullable=False),
        Column("a", INT), Column("s", varchar(4)), Column("f", decimal(8))]))
    table.bulk_load(rows)
    key_columns = ["k", "g"] if two_key_columns else ["k"]
    if design == "primary":
        table.set_primary_btree(key_columns)
        return table, table.primary
    table.set_primary_btree(["id"])
    included = [c for c in ("a", "s", "f") if design == "covering"]
    return table, table.create_secondary_btree(
        "ix", key_columns, included_columns=included)


#: (inner rows, outer rows, key domain): empty sides, sparse and dense
#: matches, and two shapes that fan out past the 4 096-row output batch.
INL_SHAPES = [(0, 6, 2), (9, 0, 2), (12, 10, 8), (40, 25, 4), (60, 40, 2),
              (500, 60, 2), (700, 120, 3)]


@st.composite
def inl_cases(draw):
    kind = draw(st.sampled_from(sorted(KEY_KINDS)))
    key_of = KEY_KINDS[kind][1]
    design = draw(st.sampled_from(INNER_DESIGNS))
    two_key_columns = draw(st.booleans())
    n_inner, n_outer, domain = draw(st.sampled_from(INL_SHAPES))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    inner_rows = [
        (i, key_of(rng.randint(0, domain)), rng.randint(0, 2),
         rng.choice([None, 0, 1, 2, 3]), rng.choice([None, "s0", "s1"]),
         rng.choice([None, 0.5, 1.0, 2.25]))
        for i in range(n_inner)]
    # Keys outside the inner domain miss; NULLs in either key column.
    outer_rows = [
        (rng.choice([None, *map(key_of, range(-1, domain + 2))]),
         rng.choice([None, 0, 0, 1, 1, 2, 3]), i)
        for i in range(n_outer)]
    columns = draw(st.lists(st.sampled_from(INNER_COLUMNS), min_size=1,
                            max_size=len(INNER_COLUMNS), unique=True))
    if design == "covering":    # id is behind a lookup there; keep it covered
        columns = [c for c in columns if c != "id"] or ["k"]
    outer_key_count = draw(st.integers(1, 2 if two_key_columns else 1))
    residual = draw(st.sampled_from([None] + [
        predicate for predicate in RESIDUALS
        if set(name[2:] for name in predicate.columns()) <= set(columns)]))
    return dict(
        kind=kind, design=design, two_key_columns=two_key_columns,
        inner_rows=inner_rows, columns=columns, outer_rows=outer_rows,
        outer_keys=["o.k", "o.g"][:outer_key_count], residual=residual,
        outer_batch=draw(st.sampled_from([1, 3, 7, 4096])),
        cold=draw(st.booleans()))


RESIDUALS = [
    Comparison("<", ColumnRef("i.a"), Literal(2)),
    Comparison("!=", ColumnRef("i.g"), Literal(1)),
    InList(ColumnRef("i.s"), ("s1", None)),
    Between(ColumnRef("i.f"), Literal(0.5), Literal(1.0)),
    And((Comparison(">=", ColumnRef("i.id"), Literal(3)),
         Comparison("=", ColumnRef("i.a"), ColumnRef("i.g")))),
    Comparison("=", Literal(1), Literal(2)),
]


def nested_loops(case, cls, residual):
    table, index = inner_table(case["kind"], case["design"],
                               case["two_key_columns"], case["inner_rows"])
    outer = Rows(["o.k", "o.g", "o.v"], case["outer_rows"],
                 batch_rows=case["outer_batch"])
    return cls(outer, table, index, case["outer_keys"], case["columns"],
               inner_prefix="i.", residual=residual), [index, table.primary]


def rows_of(batches, op):
    return [row for batch in batches
            for row in batch_to_rows(batch, op.output_columns)]


def check_nested_loops(case):
    residual = case["residual"]
    got, batches = observe(
        *nested_loops(case, IndexNestedLoopJoin, residual), case["cold"])
    want, _ = observe(
        *nested_loops(case, ReferenceIndexNestedLoopJoin, residual),
        case["cold"])
    assert_same(got, want)
    if residual is not None:
        op, _ = nested_loops(case, ReferenceIndexNestedLoopJoin, None)
        _, unfiltered = observe(op, cold=case["cold"])
        assert rows_of(batches, op) == rows_of(
            [batch.filter(eval_batch(residual, batch))
             for batch in unfiltered], op)


@examples(100)
@given(inl_cases())
def test_nested_loop_join_equals_its_reference(case):
    check_nested_loops(case)


def test_nested_loop_output_crosses_a_real_batch_mid_outer_batch():
    """60 matches per outer row: the 4 096th falls inside the first
    outer batch, and the pending count carries into the second."""
    case = dict(
        kind="int", design="lookup", two_key_columns=False,
        inner_rows=[(i, i % 10, i % 3, i % 4, f"s{i % 2}", i * 0.25)
                    for i in range(600)],
        columns=["k", "s", "id", "f"], outer_keys=["o.k"],
        outer_rows=[(i % 11 if i % 13 else None, 0, i) for i in range(160)],
        residual=None, outer_batch=100, cold=True)
    check_nested_loops(case)
    op, _ = nested_loops(case, IndexNestedLoopJoin, None)
    sizes = [len(batch) for batch in op.execute(ExecutionContext())]
    assert sizes == [4140, 3900]    # 900 of the second from outer batch one


def test_residual_is_named_where_it_is_applied():
    case = dict(kind="int", design="primary", two_key_columns=False,
                inner_rows=[], columns=["k", "a"], outer_keys=["o.k"],
                outer_rows=[], outer_batch=1)
    bare, _ = nested_loops(case, IndexNestedLoopJoin, None)
    assert bare.describe() == (
        "IndexNestedLoopJoin(outer ['o.k'] -> i.i_pk_btree) [row, dop=1]")
    filtered, _ = nested_loops(case, IndexNestedLoopJoin, RESIDUALS[0])
    assert filtered.describe() == (
        "IndexNestedLoopJoin(outer ['o.k'] -> i.i_pk_btree "
        "where (i.a < 2)) [row, dop=1]")


# ===================================================== the merge join

#: (left rows, right rows, key domain), as ``INL_SHAPES``.
MERGE_SHAPES = [(0, 4, 2), (5, 0, 2), (10, 10, 9), (20, 20, 5), (40, 40, 3),
                (150, 150, 2), (300, 200, 4)]


@st.composite
def merge_cases(draw):
    """Two inputs sorted on one or two key columns of one kind (or ints
    against floats), with duplicates and gaps on both sides."""
    kinds = draw(st.sampled_from([("int", "int"), ("float", "float"),
                                  ("str", "str"), ("int", "float")]))
    n_keys = draw(st.integers(1, 2))
    n_left, n_right, domain = draw(st.sampled_from(MERGE_SHAPES))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def side(n_rows, kind, payloads):
        key_of = float if kinds == ("int", "float") and kind == "float" \
            else KEY_KINDS[kind][1]
        return sorted(
            ((key_of(rng.randint(0, domain)), rng.randint(0, 2),
              rng.choice(payloads)) for _ in range(n_rows)),
            key=lambda row: row[:n_keys])
    return dict(
        n_keys=n_keys,
        left=side(n_left, kinds[0], [None, "p", "q"]),
        right=side(n_right, kinds[1], [None, 1, 2.5]),
        encode=draw(st.sampled_from([(), ("l.p",), ("l.k", "l.p")])),
        left_batch=draw(st.sampled_from([1, 4, 4096])),
        right_batch=draw(st.sampled_from([2, 9, 4096])))


def merge(case, cls):
    keys = ["k", "g"][:case["n_keys"]]
    left = Sorted(["l.k", "l.g", "l.p"], case["left"],
                  [f"l.{key}" for key in keys],
                  batch_rows=case["left_batch"], encode=case.get("encode", ()))
    right = Sorted(["r.k", "r.g", "r.p"], case["right"],
                   [f"r.{key}" for key in keys],
                   batch_rows=case["right_batch"])
    return cls(left, right, left.ordering, right.ordering)


def check_merge(case):
    got, _ = observe(merge(case, MergeJoin))
    want, _ = observe(merge(case, ReferenceMergeJoin))
    assert_same(got, want)


@examples(100)
@given(merge_cases())
def test_merge_join_equals_its_reference(case):
    check_merge(case)


def test_merge_output_closes_a_real_batch_after_a_key_group():
    """Key groups of 30 x 25 = 750 rows: the first batch closes after
    the sixth group (4 500 rows), not at 4 096."""
    case = dict(n_keys=1,
                left=sorted((i % 8, 0, "p") for i in range(240)),
                right=sorted((i % 10, 0, i) for i in range(250)),
                left_batch=100, right_batch=64)
    check_merge(case)
    sizes = [len(batch)
             for batch in merge(case, MergeJoin).execute(ExecutionContext())]
    assert sizes == [4500, 1500]


def test_merge_join_over_real_seeks_equals_its_reference():
    database = Database()
    for name, rows in (("l", [(i // 3, i) for i in range(300)]),
                       ("r", [(i // 2, -i) for i in range(100, 260)])):
        table = database.create_table(TableSchema(name, [
            Column("k", INT, nullable=False), Column("v", INT)]))
        table.bulk_load(rows)
        table.set_primary_btree(["k"])

    def build(cls):
        return cls(BTreeSeek(database.table("l"), ["k", "v"], prefix="l."),
                   BTreeSeek(database.table("r"), ["v", "k"], prefix="r."),
                   ["l.k"], ["r.k"])
    for cold in (False, True):
        got, batches = observe(build(MergeJoin), cold=cold)
        want, _ = observe(build(ReferenceMergeJoin), cold=cold)
        assert_same(got, want)
    assert sorted(rows_of(batches, build(MergeJoin))) == sqlite_answer(
        database, "SELECT l.k, l.v, r.v, r.k FROM l JOIN r ON l.k = r.k")


def test_null_merge_keys_match_nothing():
    """The two-pointer loop raised ``TypeError: '<' not supported…``
    here; NULL equals nothing, as in the other joins and ``sqlite3``."""
    case = dict(n_keys=2,
                left=[(None, 0, "a"), (None, None, "b"), (1, None, "c"),
                      (1, 0, "d"), (2, 1, "e")],
                right=[(None, 0, 1), (1, None, 2), (1, 0, 3), (1, 0, 4),
                       (2, 1, None)],
                left_batch=2, right_batch=3)
    _, batches = observe(merge(case, MergeJoin))
    rows = rows_of(batches, merge(case, MergeJoin))
    assert rows == [(1, 0, "d", 1, 0, 3), (1, 0, "d", 1, 0, 4),
                    (2, 1, "e", 2, 1, None)]
    database = Database()
    for name, side in (("l", case["left"]), ("r", case["right"])):
        database.create_table(TableSchema(name, [
            Column("k", INT), Column("g", INT), Column("p", varchar(4))
        ])).bulk_load([(k, g, p if p is None else str(p))
                       for k, g, p in side])
    assert sorted((*row[:5], row[5] if row[5] is None else str(row[5]))
                  for row in rows) == sqlite_answer(
        database, "SELECT l.k, l.g, l.p, r.k, r.g, r.p FROM l JOIN r "
                  "ON l.k = r.k AND l.g = r.g")
    with pytest.raises(TypeError, match="not supported"):
        observe(merge(case, ReferenceMergeJoin))


def test_merge_join_still_refuses_inputs_not_sorted_on_the_keys():
    left = Sorted(["l.k", "l.g"], [(1, 1)], ["l.g"])
    right = Sorted(["r.k"], [(1,)], ["r.k"])
    with pytest.raises(ExecutionError, match=r"must be sorted by \['l.k'\]"):
        MergeJoin(left, right, ["l.k"], ["r.k"])
    with pytest.raises(ExecutionError, match=r"must be sorted by \['r.k'\]"):
        MergeJoin(Sorted(["l.k"], [(1,)], ["l.k"]),
                  Sorted(["r.k"], [(1,)], []), ["l.k"], ["r.k"])

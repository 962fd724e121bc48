"""TOP-N selection and hash-aggregate grouping against the code they
replaced, and ORDER BY ... DESC at the ends of the integer range.

* ``Sort`` with a limit selects its prefix by partition for one encoded
  or integer key; the rows and their order must be the full stable
  sort's (``np.lexsort`` of the whole input), ties and extremes included.
* ``_factorize`` and ``HashAggregate`` number groups by dense codes and
  find slots a domain at a time; they must give what the old grouping in
  ``tests/reference_grouping.py`` gives: the same groups, rows, slot
  order, ``acquire_memory`` sequence and spill flag.
* ``ORDER BY x DESC`` once negated the keys, so ``-2**63`` overflowed and
  sorted first; the answer is checked against ``sqlite3``.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import BIGINT, Database, Executor, SchemaBuilder
from repro.engine.batch import Batch
from repro.engine.encoded import EncodedColumn
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import HashAggregate, Sort, SortKey, aggregates
from repro.storage.compression import Dictionary
from tests.oracle import examples, sqlite_mirror
from tests.reference_grouping import ReferenceHashAggregate, reference_factorize
from tests.test_aggregate_fold import (
    Batches,
    bits,
    make_columns,
    object_array,
    specs_for,
)

INT64 = np.iinfo(np.int64)
UINT64 = np.iinfo(np.uint64)

# ----------------------------------------------------------------- TOP-N


def sort_order(keys, descending, limit):
    """Row positions ``Sort`` puts first, reading them from a row-id
    column, and the code-path hits it counted."""
    batch = Batch({"k": keys, "rid": np.arange(len(keys))})
    op = Sort(Batches([batch]), [SortKey("k", descending)], limit=limit)
    ctx = ExecutionContext()
    rids = [b.column("rid") for b in op.execute(ctx)][0]
    return rids[:limit].tolist(), ctx.metrics.code_path_hits


@st.composite
def sort_keys(draw):
    """A key column: plain int64 / uint64 with heavy ties and both ends
    of the range, or dictionary codes over nullable integers."""
    kind = draw(st.sampled_from(["int64", "uint64", "encoded"]))
    n = draw(st.integers(1, 60))
    if kind == "uint64":
        pool = st.sampled_from([0, 1, 2 ** 63 - 1, 2 ** 63, UINT64.max])
        return np.array(draw(st.lists(pool, min_size=n, max_size=n)),
                        dtype=np.uint64)
    pool = st.sampled_from([INT64.min, INT64.min + 1, -1, 0, 1,
                            INT64.max]) | st.integers(-3, 3)
    values = draw(st.lists(pool, min_size=n, max_size=n))
    if kind == "int64":
        return np.array(values, dtype=np.int64)
    nullable = object_array([None if v == 0 else v for v in values])
    dictionary = Dictionary.build(nullable)
    return EncodedColumn(dictionary.encode(nullable), dictionary)


@examples(300)
@given(keys=sort_keys(), descending=st.booleans(), data=st.data())
def test_top_n_is_the_full_stable_sorts_prefix(keys, descending, data):
    n = len(keys)
    limit = data.draw(st.sampled_from([1, max(1, n // 2), n - 1, n, n + 3]))
    top, _ = sort_order(keys, descending, limit)
    full, _ = sort_order(keys, descending, None)
    assert top == full[:limit]
    if not descending:
        plain = keys.codes if isinstance(keys, EncodedColumn) else keys
        assert top == np.lexsort([plain])[:limit].tolist()


def test_top_n_on_a_plain_integer_key_skips_the_full_sort():
    keys = np.array([5, 3, 3, 9, 3, 1], dtype=np.int64)
    with mock.patch.object(np, "lexsort", side_effect=AssertionError):
        top, hits = sort_order(keys, False, 3)
    assert top == [5, 1, 2] and hits == 0


# ------------------------------------------------------ ORDER BY ... DESC

EXTREMES = [(-2 ** 63, 1), (0, 2), (5, 3), (2 ** 63 - 1, 4), (-7, 5),
            (2 ** 62, 6)]


@pytest.mark.parametrize("design", ["heap", "btree", "csi"])
@pytest.mark.parametrize("select, limit", [
    ("SELECT x FROM t ORDER BY x DESC", None),
    ("SELECT y, x FROM t ORDER BY x DESC", None),
    ("SELECT x FROM t ORDER BY x", None),
    ("SELECT x FROM t ORDER BY x DESC", 1),
    ("SELECT y FROM t ORDER BY x DESC", 3),
    ("SELECT x FROM t ORDER BY x", 2),
])
def test_order_by_at_the_ends_of_bigint(design, select, limit):
    database = Database()
    table = database.create_table(
        SchemaBuilder("t").add("x", BIGINT, nullable=False)
        .add("y", BIGINT).build())
    table.bulk_load(EXTREMES)
    if design == "btree":
        table.set_primary_btree(["x"])
    elif design == "csi":
        table.set_primary_columnstore()
    sql = select if limit is None else select.replace(
        "SELECT", f"SELECT TOP {limit}", 1)
    mirrored = select if limit is None else f"{select} LIMIT {limit}"
    got = Executor(database).execute(sql).rows
    assert got == sqlite_mirror([table]).execute(mirrored).fetchall()


def test_descending_uint64_above_two_to_the_63():
    keys = np.array([2 ** 63 + 5, 3, UINT64.max, 2 ** 63], dtype=np.uint64)
    want = sorted(range(4), key=lambda i: int(keys[i]), reverse=True)
    assert sort_order(keys, True, None)[0] == want
    assert sort_order(keys, True, 2)[0] == want[:2]


# -------------------------------------------------------------- grouping

#: How a batch hands out a group column: plain arrays; dictionary codes
#: with one dictionary per batch, or one shared by every batch (slices
#: of one segment); or alternating plain numpy and Python-object arrays.
REPRESENTATIONS = ("plain", "batch_dictionary", "shared_dictionary",
                   "objects")


def grouping_columns(rng, n_rows, n_groups):
    columns = make_columns(rng, n_rows, n_groups)
    columns["few_g"] = columns["g"] % 5
    # The same integers as int in one row and float in another: one group.
    columns["num"] = object_array([v if i % 2 else float(v) for i, v in
                                   enumerate((columns["g"] % 7).tolist())])
    return columns


def cut_batches(columns, group_by, size, representation):
    n_rows = len(columns["g"])
    shared = {name: Dictionary.build(columns[name]) for name in group_by}
    batches = []
    for number, start in enumerate(range(0, n_rows, size)):
        batch = {name: values[start:start + size]
                 for name, values in columns.items()}
        for name in group_by:
            values = batch[name]
            if representation == "batch_dictionary":
                dictionary = Dictionary.build(values)
            elif representation == "shared_dictionary":
                dictionary = shared[name]
            else:
                if representation == "objects" and number % 2:
                    batch[name] = object_array(values.tolist())
                continue
            batch[name] = EncodedColumn(dictionary.encode(values), dictionary)
        batches.append(Batch(batch))
    return batches


GROUP_BYS = [("g",), ("h",), ("ni",), ("num",), ("g", "h"),
             ("h", "few_g", "ns"), ("few_f", "g")]


@examples(60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 1), (40, 7), (300, 50), (3000, 900)]),
       size=st.sampled_from([1, 7, 512]),
       group_by=st.sampled_from(GROUP_BYS),
       representation=st.sampled_from(REPRESENTATIONS))
def test_factorize_equals_the_reference(seed, shape, size, group_by,
                                        representation):
    n_rows, n_groups = shape
    columns = grouping_columns(np.random.default_rng(seed), n_rows, n_groups)
    for batch in cut_batches(columns, group_by, size, representation):
        got_ctx, want_ctx = ExecutionContext(), ExecutionContext()
        groups, keys = aggregates._factorize(batch, group_by, got_ctx)
        want_groups, want_keys = reference_factorize(batch, group_by, want_ctx)
        assert groups.tolist() == want_groups.tolist()
        got_keys = list(zip(*(key.values[key.parts].tolist() for key in keys)))
        assert bits(got_keys) == bits(want_keys)
        assert [list(map(type, k)) for k in got_keys] \
            == [list(map(type, k)) for k in want_keys]
        assert got_ctx.metrics == want_ctx.metrics


def run_grouped(operator, batches, group_by, grant, specs=None):
    """``operator``'s rows, key of every slot in slot order, grant
    requests (bytes, granted), spill flag and metrics."""
    tables = []

    class Recording(aggregates._SlotTable):
        def __init__(self, n_columns):
            super().__init__(n_columns)
            tables.append(self)

    op = operator(Batches(batches), list(group_by), specs or specs_for())
    ctx = ExecutionContext(memory_grant_bytes=grant)
    requests, acquire = [], ctx.acquire_memory

    def recording(nbytes):
        granted = acquire(nbytes)
        requests.append((nbytes, granted))
        return granted

    ctx.acquire_memory = recording
    with mock.patch.object(aggregates, "_SlotTable", Recording):
        rows = [row for batch in op.execute(ctx)
                for row in zip(*(batch.column(name).tolist()
                                 for name in op.output_columns))]
    if tables:
        table = tables[0]
        slot_keys = (list(zip(*table.values)) if group_by
                     else [()] * table.size)
    else:
        slot_keys = op.slot_keys
    return (bits(rows), slot_keys, requests, op.spill_of(ctx) is not None,
            dataclasses.asdict(ctx.metrics), ctx.memory_in_use)


@examples(60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 1), (40, 7), (300, 50), (3000, 900)]),
       size=st.sampled_from([1, 7, 512]),
       group_by=st.sampled_from([()] + GROUP_BYS),
       representation=st.sampled_from(REPRESENTATIONS),
       grant=st.sampled_from([None, 2_000]))
def test_hash_aggregate_groups_as_the_reference(seed, shape, size, group_by,
                                                representation, grant):
    n_rows, n_groups = shape
    if size == 1:
        n_rows = min(n_rows, 300)
    columns = grouping_columns(np.random.default_rng(seed), n_rows, n_groups)
    batches = cut_batches(columns, group_by, size, representation)
    got = run_grouped(HashAggregate, batches, group_by, grant)
    want = run_grouped(ReferenceHashAggregate, batches, group_by, grant)
    assert got[0] == want[0]                     # rows, floats by bits
    assert bits(got[1]) == bits(want[1])         # slot order
    assert got[2:] == want[2:]    # grant requests, spilled, metrics, in use


def test_keys_of_different_kinds_meet_as_python_values():
    """Where a float64 or uint64 cast would merge keys Python tells
    apart (2**53 + 1 and 2.0**53), they stay two groups."""
    pieces = [np.array([2 ** 53 + 1, -1], dtype=np.int64),
              np.array([2.0 ** 53, 2.0 ** 53 + 2], dtype=np.float64),
              np.array([2 ** 53 + 2, 2 ** 63 + 1], dtype=np.uint64),
              np.array([-1, 2 ** 63 - 1], dtype=np.int64)]
    batches = [Batch({"k": k}) for k in pieces]
    count = specs_for()[:1]
    got = run_grouped(HashAggregate, batches, ("k",), None, count)
    assert got == run_grouped(ReferenceHashAggregate, batches, ("k",), None,
                              count)
    assert len(got[1]) == 6


def test_scalar_hash_aggregate_over_no_input_answers_one_row():
    op = HashAggregate(Batches([]), [], specs_for()[:1])
    ctx = ExecutionContext(memory_grant_bytes=2_000)
    assert [b.column("n").tolist() for b in op.execute(ctx)] == [[0]]
    assert ctx.memory_in_use == 0

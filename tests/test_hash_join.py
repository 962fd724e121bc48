"""The columnar hash join: build, probe and output stay in column arrays.

(a) a fixed corpus on the CH database reproduces the rows (in order),
    ``QueryMetrics``, ``explain()`` and per-span ``rows_out``/batches
    recorded from the row-at-a-time join this implementation replaced
    (``tests/data/hash_join_expected.json``), with encoded execution on
    and off and with a grant the build side overflows;
(b) small random inputs give ``sqlite3``'s inner join, in "probe order,
    then build arrival order";
(c) NULL join keys never match, under every physical design and plan;
(d) the build-side grant is returned on every exit path;
(e) output dtypes are what ``rows_to_batch`` gives the same rows;
(f) many key columns combine without overflowing int64.

Regenerate the expected file (only when modeled costs change on purpose)
with ``PYTHONPATH=src python tests/test_hash_join.py``.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import sqlite3
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import ExecutionError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT
from repro.engine.batch import Batch, batch_to_rows, rows_to_batch
from repro.engine.encoded import EncodedColumn
from repro.engine.executor import Executor
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import BTreeSeek, HashJoin, joins
from repro.engine.operators.base import PhysicalOperator
from repro.server.bench import build_ch_database
from repro.storage.compression import Dictionary
from repro.storage.database import Database
from repro.workloads.ch import ch_analytic_queries
from tests.oracle import examples, sqlite_answer

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "hash_join_expected.json")

# ================================================ (a) the recorded corpus

CORPUS_SQL = [
    *[(name, sql) for name, sql in ch_analytic_queries()
      if name in ("Q3", "Q5", "Q7", "Q14", "Q19")],
    ("two_column_key",
     "SELECT c.c_id, o.o_id FROM customer c JOIN orders o "
     "ON c.c_id = o.o_c_id AND c.c_d_id = o.o_d_id"),
    ("string_key",
     "SELECT c.c_id, w.w_name FROM customer c JOIN warehouse w "
     "ON c.c_state = w.w_state"),
    # 92 982 rows out of one 3 000-row probe batch: 22 cuts inside it.
    ("string_key_fan_out",
     "SELECT a.c_id, b.c_id other FROM customer a JOIN customer b "
     "ON a.c_last = b.c_last"),
    ("string_in_two_column_key",
     "SELECT a.c_id, b.c_id other FROM customer a JOIN customer b "
     "ON a.c_last = b.c_last AND a.c_d_id = b.c_d_id"),
    ("fan_out",
     "SELECT o.o_id, c.c_last FROM orders o JOIN customer c "
     "ON o.o_c_id = c.c_id"),
    ("top_above_join",
     "SELECT TOP 5 o.o_id, c.c_last FROM orders o JOIN customer c "
     "ON o.o_c_id = c.c_id"),
    ("no_match",
     "SELECT o.o_id, i.i_name FROM orders o JOIN item i "
     "ON o.o_id = i.i_id WHERE i.i_id > 1000"),
    ("empty_build",
     "SELECT o.o_id, c.c_last FROM orders o JOIN customer c "
     "ON o.o_c_id = c.c_id WHERE c.c_id > 100000"),
]

MODES = [(encoded, grant) for encoded in (True, False)
         for grant in (None, 20_000)]


def operator_corpus(database):
    """A probe side the optimizer would not pick: the order_line B+ tree
    arrives in 4 096-row chunks, so the pending output count carries
    across eight probe batches."""
    new_order = database.table("new_order")
    order_line = database.table("order_line")

    def rowstore_probe(build_columns, build_keys, probe_keys,
                       build_table=new_order, prefix="no."):
        return HashJoin(
            BTreeSeek(build_table, build_columns, prefix=prefix),
            BTreeSeek(order_line, ["ol_o_id", "ol_d_id", "ol_i_id",
                                   "ol_amount"], prefix="ol."),
            build_keys, probe_keys)
    return [
        ("spilling_rowstore_probe", rowstore_probe(
            ["s_i_id", "s_quantity"], ["s.s_i_id"], ["ol.ol_i_id"],
            build_table=database.table("stock"), prefix="s.")),
        ("fan_out_rowstore_probe", rowstore_probe(
            ["no_o_id", "no_d_id"], ["no.no_o_id"], ["ol.ol_o_id"])),
        ("two_column_rowstore_probe", rowstore_probe(
            ["no_d_id", "no_o_id"], ["no.no_o_id", "no.no_d_id"],
            ["ol.ol_o_id", "ol.ol_d_id"])),
    ]


def rows_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def mode_label(name, encoded, grant):
    return f"{name} [encoded={encoded}, grant={grant}]"


def record_corpus(database):
    executor = Executor(database)
    record = {}
    for encoded, grant in MODES:
        executor.encoded_execution = encoded
        for name, sql in CORPUS_SQL:
            analyzed = executor.explain_analyze(sql, memory_grant_bytes=grant)
            result = analyzed.result
            record[mode_label(name, encoded, grant)] = {
                "rows": len(result.rows),
                "head": [list(row) for row in result.rows[:3]],
                "rows_digest": rows_digest(result.rows),
                "metrics": dataclasses.asdict(result.metrics),
                "explain": result.plan.explain(),
                "spans": [[span.label, span.rows_out, span.batches_out,
                           span.fallback_reasons]
                          for span in analyzed.root_span.walk()],
            }
        for name, op in operator_corpus(database):
            ctx = ExecutionContext(memory_grant_bytes=grant,
                                   encoded_execution=encoded)
            batches = [batch_to_rows(batch, op.output_columns)
                       for batch in op.execute(ctx)]
            rows = [row for batch in batches for row in batch]
            record[mode_label(name, encoded, grant)] = {
                "rows": len(rows),
                "head": [list(row) for row in rows[:3]],
                "rows_digest": rows_digest(rows),
                "metrics": dataclasses.asdict(ctx.metrics),
                "explain": op.describe(),
                "batches": [len(batch) for batch in batches],
            }
    return record


class TestRecordedCorpus:
    @pytest.fixture(scope="class")
    def expected(self):
        with open(EXPECTED_PATH) as f:
            return json.load(f)

    def test_corpus_matches_recording(self, expected):
        got = json.loads(json.dumps(record_corpus(build_ch_database(1))))
        assert got.keys() == expected.keys()
        for name in expected:
            assert got[name] == expected[name], name

    def test_corpus_reaches_what_it_claims(self, expected):
        def entry(name, encoded=True, grant=None):
            return expected[mode_label(name, encoded, grant)]

        def join_spans(recorded):
            return [span for span in recorded["spans"]
                    if span[0].startswith("HashJoin")]
        for name, _ in CORPUS_SQL:
            assert join_spans(entry(name)), name
            spilled = entry(name, grant=20_000)["metrics"]["spilled_bytes"]
            assert spilled > 0 or name in ("Q5", "Q7", "Q19", "string_key",
                                           "empty_build"), name
        assert len(join_spans(entry("Q3"))) == 2
        assert entry("string_key")["metrics"]["code_path_hits"] >= 1
        assert any(reasons for _, _, _, reasons
                   in join_spans(entry("string_in_two_column_key")))
        assert entry("string_key_fan_out")["rows"] > 20 * 4096
        assert join_spans(entry("string_key_fan_out"))[0][2] > 20
        assert join_spans(entry("top_above_join"))[0][1:3] == [4100, 1]
        assert entry("no_match")["rows"] == entry("empty_build")["rows"] == 0
        assert join_spans(entry("no_match"))[0][1] == 0
        assert len(entry("fan_out_rowstore_probe")["batches"]) >= 8
        assert entry("spilling_rowstore_probe", grant=20_000)[
            "metrics"]["spilled_bytes"] > 0



# ===================================== (b) small inputs against sqlite3

class Rows(PhysicalOperator):
    """A child that hands out the given rows ``batch_rows`` at a time,
    optionally with some columns dictionary-coded."""

    def __init__(self, names, rows, batch_rows=4096, encode=()):
        super().__init__()
        self.names, self.rows = list(names), rows
        self.batch_rows, self.encode = batch_rows, encode

    @property
    def output_columns(self):
        return self.names

    def execute(self, ctx):
        for i in range(0, len(self.rows), self.batch_rows):
            batch = rows_to_batch(self.rows[i:i + self.batch_rows], self.names)
            yield Batch({name: dictionary_coded(column)
                         if name in self.encode else column
                         for name, column in batch.columns.items()})


def dictionary_coded(column):
    """``column`` as a scan over a dictionary segment would hand it out:
    sorted distinct values, NULL first, numeric when nothing is NULL."""
    listed = column.tolist()
    values = sorted({v for v in listed if v is not None})
    if column.dtype == object:
        values = np.array(([None] if None in listed else []) + values,
                          dtype=object)
    dictionary = Dictionary(values=np.asarray(values))
    return EncodedColumn(dictionary.encode(column), dictionary)


def run_join(build_rows, probe_rows, n_keys, build_batch=4096,
             probe_batch=4096, encode=(), ctx=None):
    """Join rows laid out as ``(k0..k{n-1}, payload, position)`` on their
    key columns; returns the output batches."""
    def side(prefix, rows, batch_rows, encode=()):
        names = [f"{prefix}.k{i}" for i in range(n_keys)]
        return Rows(names + [f"{prefix}.v", f"{prefix}.at"], rows, batch_rows,
                    encode=[f"{prefix}.{name}" for name in encode]), names
    build, build_keys = side("b", build_rows, build_batch)
    probe, probe_keys = side("p", probe_rows, probe_batch, encode)
    join = HashJoin(build, probe, build_keys, probe_keys)
    return join, list(join.execute(ctx or ExecutionContext()))


def sqlite_join(build_rows, probe_rows, n_keys):
    """The same join in sqlite3, in probe order then build arrival order."""
    width = n_keys + 2
    connection = sqlite3.connect(":memory:")
    for name, rows in (("b", build_rows), ("p", probe_rows)):
        columns = ", ".join(f"c{i}" for i in range(width))
        connection.execute(f"CREATE TABLE {name} ({columns})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * width)})", rows)
    on = " AND ".join(f"b.c{i} = p.c{i}" for i in range(n_keys))
    at = width - 1
    return connection.execute(
        f"SELECT b.*, p.* FROM p JOIN b ON {on} "
        f"ORDER BY p.c{at}, b.c{at}").fetchall()


def expected_batch_lengths(joined, cut):
    """A batch closes after the first probe row that brings the pending
    count to ``cut``; the remainder goes out last."""
    lengths, pending = [], 0
    for _, matches in itertools.groupby(joined, key=lambda row: row[-1]):
        pending += len(list(matches))
        if pending >= cut:
            lengths.append(pending)
            pending = 0
    return lengths + ([pending] if pending else [])


def assert_rows_to_batch_dtypes(join, batch):
    twin = rows_to_batch(batch_to_rows(batch, join.output_columns),
                         join.output_columns)
    for name in join.output_columns:
        assert batch.column(name).dtype == twin.column(name).dtype, name
        assert batch.column(name).tolist() == twin.column(name).tolist()


KEY_DOMAINS = {
    # 2**53 + 1 is not 2.0**53: an int column against a float one is
    # compared exactly, not through a float cast.
    "int": [0, 1, -4, 2 ** 53 + 1],
    "float": [0.0, 1.0, 0.5, 2.0 ** 53],
    "string": ["", "a", "A"],
    "nullable_int": [None, 0, 1],
    "nullable_string": [None, "a", "b"],
}
PAYLOADS = st.one_of(st.none(), st.integers(-5, 5), st.floats(-2, 2),
                     st.sampled_from(["x", "y"]))


@st.composite
def join_inputs(draw):
    n_keys = draw(st.integers(1, 3))
    kinds = [draw(st.sampled_from(sorted(KEY_DOMAINS) + ["int_vs_float"]))
             for _ in range(n_keys)]

    def rows(side, max_size):
        keys = [st.sampled_from(KEY_DOMAINS[
                    {"int_vs_float": side}.get(kind, kind)]) for kind in kinds]
        size = draw(st.integers(0, max_size))
        listed = draw(st.lists(st.tuples(*keys, PAYLOADS),
                               min_size=size, max_size=size))
        return [row + (at,) for at, row in enumerate(listed)]
    encode = [f"k{i}" for i in range(n_keys) if draw(st.booleans())]
    return (n_keys, rows("int", 30), rows("float", 60),
            draw(st.integers(1, 30)), draw(st.integers(1, 60)), encode,
            draw(st.integers(1, 12)))


class TestAgainstSqlite:
    @examples(300)
    @given(join_inputs())
    def test_rows_order_cuts_and_dtypes(self, inputs):
        (n_keys, build_rows, probe_rows, build_batch, probe_batch, encode,
         cut) = inputs
        with mock.patch.object(joins, "DEFAULT_BATCH_ROWS", cut):
            join, batches = run_join(build_rows, probe_rows, n_keys,
                                     build_batch, probe_batch, encode)
        expected = sqlite_join(build_rows, probe_rows, n_keys)
        got = [row for batch in batches
               for row in batch_to_rows(batch, join.output_columns)]
        assert got == expected
        assert [len(batch) for batch in batches] == (
            expected_batch_lengths(expected, cut))
        for batch in batches:
            assert_rows_to_batch_dtypes(join, batch)

    def test_object_column_narrows_per_output_batch(self):
        """A nullable-int payload is an object column on the way in; an
        output batch whose values are all ints is int64 again, the next
        one, holding a NULL, is not."""
        build_rows = [(k, None if k == 1 else k, k) for k in range(4)]
        probe_rows = [(at % 4 if at > 4200 else 0,
                       None if at == 4500 else at, at) for at in range(5000)]
        join, batches = run_join(build_rows, probe_rows, 1)
        assert [len(batch) for batch in batches] == [4096, 904]
        assert [batch.column("p.v").dtype for batch in batches] == [
            np.dtype(np.int64), np.dtype(object)]
        assert [batch.column("b.v").dtype for batch in batches] == [
            np.dtype(np.int64), np.dtype(object)]
        for batch in batches:
            assert_rows_to_batch_dtypes(join, batch)

    def test_many_key_columns_do_not_overflow(self):
        """Six key columns of 2 000 distinct values each: the product of
        the cardinalities is past 2**63."""
        n, n_keys = 2000, 6
        rng = np.random.default_rng(19)
        columns = [rng.permutation(n) * 3 for _ in range(n_keys)]
        build_rows = [tuple(int(column[i]) for column in columns) + (i, i)
                      for i in range(n)]
        assert n ** n_keys > 2 ** 63
        probe_rows = [build_rows[i][:n_keys] + (None, at)
                      for at, i in enumerate(rng.integers(0, n, 500))]
        # ... and rows that agree with a build row in all but one column.
        for at, i in enumerate(rng.integers(0, n - 1, 500), start=500):
            keys = list(build_rows[i][:n_keys])
            keys[at % n_keys] = build_rows[i + 1][at % n_keys]
            probe_rows.append(tuple(keys) + (None, at))
        join, batches = run_join(build_rows, probe_rows, n_keys,
                                 probe_batch=128)
        got = [row for batch in batches
               for row in batch_to_rows(batch, join.output_columns)]
        assert got == sqlite_join(build_rows, probe_rows, n_keys)
        assert len(got) == 500


# ============================================== (c) NULL keys never match

NULL_JOIN = "SELECT a.id aid, b.id bid FROM a JOIN b ON a.k = b.k"


def null_database(design, b_rows, b_nullable=True):
    database = Database()
    a = database.create_table(TableSchema("a", [
        Column("id", INT, nullable=False), Column("k", INT)]))
    b = database.create_table(TableSchema("b", [
        Column("id", INT, nullable=False),
        Column("k", INT, nullable=b_nullable), Column("v", INT)]))
    a.bulk_load([(1, 1), (2, None), (3, 3)])
    b.bulk_load(b_rows)
    for table in (a, b):
        if design == "btree":
            table.set_primary_btree(["id"])
        elif design == "columnstore":
            table.set_primary_columnstore()
    return database


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("design", ["heap", "btree", "columnstore"])
class TestNullKeysNeverMatch:
    def test_hash_join(self, design, encoded):
        database = null_database(
            design, [(1, 1, 10), (2, None, 20), (3, None, 30), (4, 3, 40)])
        executor = Executor(database)
        executor.encoded_execution = encoded
        assert "HASH JOIN" in executor.explain(NULL_JOIN)
        rows = sorted(executor.execute(NULL_JOIN).rows)
        assert rows == sqlite_answer(database, NULL_JOIN) == [(1, 1), (3, 4)]

    def test_index_nested_loop_join(self, design, encoded):
        database = null_database(
            design, [(i, i, i * 10) for i in range(50_000)], b_nullable=False)
        database.table("b").create_secondary_btree("ix_k", ["k"])
        executor = Executor(database)
        executor.encoded_execution = encoded
        assert "INL JOIN" in executor.explain(NULL_JOIN)
        rows = sorted(executor.execute(NULL_JOIN).rows)
        assert rows == sqlite_answer(database, NULL_JOIN) == [(1, 1), (3, 3)]


# ================================================== (d) grant accounting

class Exploding(PhysicalOperator):
    def __init__(self, child):
        super().__init__(children=(child,))

    @property
    def output_columns(self):
        return self.child().output_columns

    def execute(self, ctx):
        for batch in self.child().execute(ctx):
            yield batch
            raise ExecutionError("boom after first batch")


class TestGrantIsReturned:
    def join(self, wrap_probe=lambda probe: probe):
        build = Rows(["b.k", "b.v"], [(i % 50, i) for i in range(500)], 100)
        probe = Rows(["p.k"], [(i % 50,) for i in range(5000)], 1000)
        return HashJoin(build, wrap_probe(probe), ["b.k"], ["p.k"])

    def context(self):
        ctx = ExecutionContext()
        assert ctx.acquire_memory(1234)     # someone else's reservation
        return ctx

    def test_after_a_full_drain(self):
        ctx = self.context()
        assert sum(len(batch) for batch in self.join().execute(ctx)) == 50_000
        assert ctx.metrics.memory_peak_bytes > 1234
        assert ctx.memory_in_use == 1234

    def test_after_closing_mid_probe(self):
        ctx = self.context()
        running = self.join().execute(ctx)
        assert len(next(running)) >= 4096
        assert ctx.memory_in_use > 1234
        running.close()
        assert ctx.memory_in_use == 1234

    def test_after_a_probe_child_that_raises(self):
        ctx = self.context()
        with pytest.raises(ExecutionError, match="boom"):
            list(self.join(Exploding).execute(ctx))
        assert ctx.memory_in_use == 1234


if __name__ == "__main__":     # regenerate the recording
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w") as out:
        json.dump(record_corpus(build_ch_database(1)), out, indent=1,
                  sort_keys=True)
        out.write("\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)

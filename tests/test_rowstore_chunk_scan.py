"""The rowstore scan protocol: leaf chunks out of the access methods,
vectorised residuals in the scan operators.

(a) chunk streams equal a brute-force filter of the entries, resident and
    paged, for every kind of bound;
(b) every rowstore scan operator returns the rows ``eval_row`` selects,
    and a fixed corpus reproduces the ``QueryMetrics``, ``explain()`` and
    span ``rows_out`` recorded from the row-at-a-time operators this
    protocol replaced (``tests/data/rowstore_scan_expected.json``);
(c) a seek drops from its residual exactly what its bounds enforce;
(d) ``_column_array`` keeps the dtype rule it had;
(e) NULL arithmetic gives the same rows on heap, B+ tree and columnstore.

Regenerate the expected file (only when modeled costs change on purpose)
with ``PYTHONPATH=src python tests/test_rowstore_chunk_scan.py``.
"""

import dataclasses
import json
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.engine.batch import _column_array, batch_to_rows
from repro.engine.executor import Executor
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
    extract_column_ranges,
)
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import (
    AggregateSpec,
    BTreeSeek,
    Filter,
    HashAggregate,
    HeapScan,
    IndexNestedLoopJoin,
    SecondaryBTreeSeek,
)
from repro.storage.btree import BPlusTree, PrimaryBTreeIndex
from repro.storage.database import Database
from repro.storage.records import Records
from tests.reference_eval import eval_row

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "rowstore_scan_expected.json")


# ===================================================== (a) chunk streams

def in_bounds(key, low, high, low_inclusive, high_inclusive):
    if low is not None and (key < low or (key == low and not low_inclusive)):
        return False
    if high is not None and (key > high or (key == high and not high_inclusive)):
        return False
    return True


def check_chunks(chunks, expected):
    chunks = list(chunks)
    for keys, values in chunks:
        assert len(keys) == len(values) > 0
    got = [pair for keys, values in chunks for pair in zip(keys, values)]
    assert got == expected


composite_keys = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 4)),
    min_size=0, max_size=120, unique=True).map(sorted)


@st.composite
def tree_and_bounds(draw):
    keys = draw(composite_keys)
    items = [(key, (key[0] * 10 + key[1],)) for key in keys]

    def bound():
        kind = draw(st.sampled_from(
            ["none", "key", "prefix", "free", "below", "above"]))
        if kind == "none" or (not keys and kind in ("key", "prefix")):
            return None
        if kind == "key":        # includes first/last key of a leaf
            return draw(st.sampled_from(keys))
        if kind == "prefix":
            return draw(st.sampled_from(keys))[:1]
        if kind == "below":
            return (-1,)
        if kind == "above":
            return (99, 99)
        return (draw(st.integers(-1, 13)), draw(st.integers(-1, 5)))

    return (items, draw(st.integers(4, 9)), draw(st.booleans()),
            bound(), bound(), draw(st.booleans()), draw(st.booleans()))


def build_tree(items, capacity, bulk):
    if bulk:
        return BPlusTree.bulk_load(items, leaf_capacity=capacity,
                                   internal_capacity=4)
    tree = BPlusTree(leaf_capacity=capacity, internal_capacity=4)
    shuffled = list(items)
    random.Random(len(items)).shuffle(shuffled)
    for key, value in shuffled:
        tree.insert(key, value)
    return tree


def paged_index(items, page_rows):
    """A PagedPrimaryBTreeIndex over ``items`` ((key + rid, row) pairs)
    cut into pages of ``page_rows`` and served through a real pool."""
    from repro.storage.btree import PagedLeafSource, PagedPrimaryBTreeIndex
    from repro.storage.bufferpool import BufferPool
    schema = TableSchema("p", [Column("a", INT, nullable=False),
                               Column("b", INT, nullable=False),
                               Column("v", INT)])
    pages = [items[i:i + page_rows] for i in range(0, len(items), page_rows)]
    pool = BufferPool(budget_bytes=1 << 20)
    index = PagedPrimaryBTreeIndex("pk", schema, ["a", "b"])
    if pages:
        index.attach_paged(PagedLeafSource(
            pool, len(items), [page[0][0] for page in pages],
            [(i, i, 64) for i in range(len(pages))],
            lambda offset, length: ([k for k, _ in pages[offset]],
                                    Records.from_rows(
                                        [v for _, v in pages[offset]]))))
    return index, pool


class TestLeafChunks:
    @settings(max_examples=300, deadline=None)
    @given(tree_and_bounds())
    def test_resident_chunks_equal_brute_force(self, case):
        items, capacity, bulk, low, high, low_inc, high_inc = case
        tree = build_tree(items, capacity, bulk)
        assert list(tree.items()) == items
        expected = [(k, v) for k, v in items
                    if in_bounds(k, low, high, low_inc, high_inc)]
        check_chunks(tree.leaf_chunks(low, high, low_inc, high_inc), expected)
        assert list(tree.scan_range(low, high, low_inc, high_inc)) == expected
        assert tree.count_range(low, high) == sum(
            in_bounds(k, low, high, True, True) for k, _ in items)

    @settings(max_examples=300, deadline=None)
    @given(tree_and_bounds(), st.integers(1, 9))
    def test_paged_and_resident_seeks_equal_brute_force(self, case, page_rows):
        """Index level: prefix bounds on key columns (rid-padded), the
        resident index against its paged twin against brute force."""
        items, capacity, _, low, high, low_inc, high_inc = case
        entries = [(key + (rid,), key + value)
                   for rid, (key, value) in enumerate(items)]
        paged, pool = paged_index(entries, page_rows)
        resident = PrimaryBTreeIndex("pk", paged.schema, ["a", "b"])
        resident.tree = BPlusTree.bulk_load(entries, leaf_capacity=capacity)

        def prefix_in_bounds(key):
            for bound, inclusive, sign in ((low, low_inc, -1), (high, high_inc, 1)):
                if bound is None:
                    continue
                prefix = key[:len(bound)]
                if (prefix < bound if sign < 0 else prefix > bound):
                    return False
                if prefix == bound and not inclusive:
                    return False
            return True

        expected = [(k, v) for k, v in entries if prefix_in_bounds(k)]
        for index in (resident, paged):
            check_chunks(index.seek_range(low, high, None, low_inc, high_inc),
                         expected)
            check_chunks(index.scan(), entries)
        assert paged.is_paged or not entries
        assert pool.pinned_pages() == 0

    def test_whole_leaves_are_borrowed_not_copied(self):
        """A whole leaf is handed out as its own key list and records, a
        leaf cut at a bound as a view of the leaf's arrays: no chunk
        copies a value column."""
        items = [((i,), (i, i / 2)) for i in range(40)]
        tree = BPlusTree.bulk_load(items, leaf_capacity=8)
        chunks = list(tree.leaf_chunks((3,), (36,)))
        first, leaf = tree._first_leaf, tree._first_leaf.next
        assert chunks[1][0] is leaf.keys and chunks[1][1] is leaf.values
        assert chunks[0][0] is not first.keys  # sliced at the bound
        assert chunks[0][0] == first.keys[3:]
        for ordinal in (0, 1):
            part = chunks[0][1].column(ordinal)
            assert np.shares_memory(part, first.values.column(ordinal))
            assert part.tolist() == [row[ordinal] for row in first.values][3:]
        last = chunks[-1][1]
        assert np.shares_memory(last.column(0), tree._find_leaf(
            (36,)).values.column(0))

    def test_abandoned_paged_scan_unpins_its_page(self):
        entries = [((i, 0, i), (i, 0, i)) for i in range(30)]
        paged, pool = paged_index(entries, 4)
        scan = paged.seek_range((5,), None)
        next(scan)
        assert pool.pinned_pages() == 1
        scan.close()
        assert pool.pinned_pages() == 0

    def test_heap_scan_stays_in_rid_order(self):
        from repro.storage.heap import SCAN_CHUNK_ROWS, HeapFile
        schema = TableSchema("h", [Column("a", INT)])
        heap = HeapFile("h", schema)
        for rid in range(SCAN_CHUNK_ROWS + 10):
            heap.insert(rid, (rid,))
        chunks = list(heap.scan())
        assert all(isinstance(values, Records) for _, values in chunks)
        assert all(len(rids) <= SCAN_CHUNK_ROWS for rids, _ in chunks)
        assert sum(len(rids) for rids, _ in chunks) == SCAN_CHUNK_ROWS + 10
        assert chunks[0][1].column(0).dtype == np.int64
        heap.delete(5, (5,))
        heap.insert(5, (-5,))          # a restored rid lands in rid order
        rids = [rid for chunk, _ in heap.scan() for rid in chunk]
        assert rids == list(range(SCAN_CHUNK_ROWS + 10))
        rows = dict(pair for chunk in heap.scan() for pair in zip(*chunk))
        assert rows[5] == (-5,) and rows[6] == (6,)

    def test_bulk_built_heap_chunks_are_leaf_columns(self):
        from repro.storage.heap import SCAN_CHUNK_ROWS, HeapFile
        schema = TableSchema("h", [Column("a", INT), Column("b", INT)])
        heap = HeapFile("h", schema)
        n = 2 * SCAN_CHUNK_ROWS + 7
        heap.load(list(range(n)),
                  [(rid, None if rid == 3 else rid) for rid in range(n)])
        chunks = list(heap.scan())
        assert len(chunks) > 2
        assert all(len(rids) <= SCAN_CHUNK_ROWS for rids, _ in chunks)
        assert [rid for rids, _ in chunks for rid in rids] == list(range(n))
        # The NULL makes column b of its own leaf an object array only.
        assert [values.column(1).dtype for _, values in chunks] == (
            [np.dtype(object)] + [np.dtype(np.int64)] * (len(chunks) - 1))
        assert all(values.column(0).dtype == np.int64 for _, values in chunks)
        with pytest.raises(StorageError, match="non-empty heap"):
            heap.load([n], [(n, n)])


# ====================================== (b) operators against eval_row

def scan_schema(name):
    return TableSchema(name, [
        Column("k", INT, nullable=False),
        Column("g", INT, nullable=False),
        Column("x", INT),
        Column("y", INT),
        Column("f", decimal(2)),
        Column("s", varchar(8)),
    ])


def scan_rows(n, seed=5):
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.15 else value
    return [(i, rng.randrange(12), maybe(rng.randrange(-20, 20)),
             maybe(rng.randrange(0, 9)), maybe(rng.randrange(0, 400) / 4),
             maybe(f"s{rng.randrange(6)}")) for i in range(n)]


def build_scan_db(n=1500):
    """Heap ``h``; ``b`` clustered on (g, k); ``n`` clustered on (k) with
    a secondary on (g) that includes (x, s) and a bare one on (g, k)."""
    database = Database("chunk-scan")
    rows = scan_rows(n)
    database.create_table(scan_schema("h")).bulk_load(rows)
    b = database.create_table(scan_schema("b"))
    b.bulk_load(rows)
    b.set_primary_btree(["g", "k"])
    n_table = database.create_table(scan_schema("n"))
    n_table.bulk_load(rows)
    n_table.set_primary_btree(["k"])
    n_table.create_secondary_btree("ix_cov", ["g"], included_columns=["x", "s"])
    n_table.create_secondary_btree("ix_nc", ["g", "k"])
    return database


@pytest.fixture(scope="module")
def scan_dbs(tmp_path_factory):
    resident = build_scan_db()
    path = str(tmp_path_factory.mktemp("chunk-scan"))
    resident.save(path)
    paged = Database.open(path, paging=True, pool_bytes=1 << 16)
    yield resident, paged
    paged._snapshot_reader.close()


NUMERIC = {"k": int, "g": int, "x": int, "y": int, "f": float}
COLUMNS = ["k", "g", "x", "y", "f", "s"]


def literal_for(draw, column):
    if column == "s":
        return draw(st.sampled_from(["s0", "s2", "s3", "s9", None]))
    if column == "f":
        return draw(st.sampled_from([0.0, 12.25, 50, 99.75, None]))
    if column == "k":
        return draw(st.sampled_from([-1, 0, 7, 400, 1499, 5000, None]))
    return draw(st.sampled_from([-3, 0, 2, 5, 11, None]))


def predicates_over(columns):
    """Type-correct random predicates over ``columns``: comparisons,
    BETWEEN, IN, literal-on-the-left, arithmetic, AND/OR/NOT."""
    numeric = sorted(set(columns) & set(NUMERIC))

    @st.composite
    def numeric_term(draw):
        term = ColumnRef(draw(st.sampled_from(numeric)))
        if draw(st.booleans()):
            other = draw(st.one_of(
                st.sampled_from(numeric).map(ColumnRef),
                st.sampled_from([1, 2, 3]).map(Literal)))
            op = draw(st.sampled_from("+-*/"))
            if op == "/" and not isinstance(other, Literal):
                op = "*"        # no division by a column that may hold 0
            term = Arithmetic(op, term, other)
        return term

    @st.composite
    def atom(draw):
        kind = draw(st.sampled_from(
            ["cmp", "cmp", "flipped", "between", "in", "arith", "colcol"]))
        column = draw(st.sampled_from(columns))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))

        def literal():
            return Literal(literal_for(draw, column))
        if kind == "cmp":
            return Comparison(op, ColumnRef(column), literal())
        if kind == "flipped":
            return Comparison(op, literal(), ColumnRef(column))
        if kind == "between":
            return Between(ColumnRef(column), literal(), literal())
        if kind == "in":
            return InList(ColumnRef(column), tuple(
                literal().value for _ in range(draw(st.integers(1, 3)))))
        if kind == "arith":
            return Comparison(op, draw(numeric_term()),
                              Literal(draw(st.sampled_from([0, 4, 10.5]))))
        return Comparison(op, draw(numeric_term()), draw(numeric_term()))

    return st.recursive(
        atom(),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda operands: And(tuple(operands))),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda operands: Or(tuple(operands))),
            inner.map(Not)),
        max_leaves=5)


def drain(op, cold=False):
    ctx = ExecutionContext(cold=cold)
    rows = []
    for batch in op.execute(ctx):
        rows.extend(batch_to_rows(batch, op.output_columns))
    return rows, ctx


def key_ranges_for(predicate, key_columns):
    """What the optimizer does: points along the key prefix, optionally
    ending in one range."""
    ranges = extract_column_ranges(predicate)
    out = []
    for column in key_columns:
        column_range = ranges.get(column)
        if column_range is None or (column_range.low is None
                                    and column_range.high is None):
            break
        out.append(column_range)
        if not column_range.is_point:
            break
    return out or None


def reference(table, predicate, columns, order):
    positions = {c: i for i, c in enumerate(COLUMNS)}
    ordinals = [positions[c] for c in columns]
    picked = [(rid, row) for rid, row in table.iter_rows()
              if eval_row(predicate, row, positions)]
    picked.sort(key=lambda pair: tuple(pair[1][positions[c]] for c in order)
                + (pair[0],))
    return [tuple(row[i] for i in ordinals) for _, row in picked]


class TestOperatorsSelectWhatEvalRowSelects:
    @settings(max_examples=150, deadline=None)
    @given(predicates_over(COLUMNS),
           st.permutations(COLUMNS).map(lambda p: p[:3]))
    def test_heap_clustered_and_lookup_seeks(self, scan_dbs, predicate, extra):
        columns = list(dict.fromkeys(predicate.columns() + list(extra)))
        for database in scan_dbs:
            h, b, n = (database.table(t) for t in "hbn")
            seek = dict(residual=predicate,
                        key_ranges=key_ranges_for(predicate, ["g", "k"]))
            lookup = SecondaryBTreeSeek(
                n, n.secondary_indexes["ix_nc"], columns, **seek)
            assert lookup.needs_lookup or set(columns) <= {"g", "k"}
            for op, table, order in (
                    (HeapScan(h, columns, residual=predicate), h, []),
                    (BTreeSeek(b, columns, **seek), b, ["g", "k"]),
                    (lookup, n, ["g", "k"])):
                rows, _ = drain(op)
                assert rows == reference(table, predicate, columns, order), (
                    op.describe())
            assert database.buffer_pool is None or (
                database.buffer_pool.pinned_pages() == 0)

    @settings(max_examples=100, deadline=None)
    @given(predicates_over(["g", "x", "s"]),
           st.permutations(["g", "x", "s"]))
    def test_covering_secondary_seek(self, scan_dbs, predicate, columns):
        for database in scan_dbs:
            n = database.table("n")
            op = SecondaryBTreeSeek(
                n, n.secondary_indexes["ix_cov"], columns, residual=predicate,
                key_ranges=key_ranges_for(predicate, ["g"]))
            assert not op.needs_lookup
            rows, _ = drain(op)
            assert rows == reference(n, predicate, columns, ["g"])


# ------------------------------------------------ the recorded corpus

CORPUS_SQL = [
    # (sql, cold)
    ("SELECT k, x FROM h WHERE x + 1 > 2", False),
    ("SELECT sum(y) q FROM h WHERE s = 's3' AND f < 40", True),
    ("SELECT k, g, x, y, f, s FROM h", False),
    ("SELECT g, count(*) c FROM h WHERE x IN (1, 2, 3) OR y != 4 GROUP BY g", False),
    ("SELECT k, x FROM b WHERE g = 3 AND k BETWEEN 100 AND 9000", False),
    ("SELECT k, x FROM b WHERE g = 3 AND k BETWEEN 100 AND 9000 AND x * y > 10", True),
    ("SELECT k FROM b WHERE g = 5 AND k = 77", False),
    ("SELECT sum(x) q FROM b WHERE g >= 2 AND g < 9 AND NOT s = 's1'", True),
    ("SELECT k, s FROM b WHERE g != 4 AND 3 < g ORDER BY g", False),
    ("SELECT k, g, f FROM b", True),
    ("SELECT s, count(*) c FROM b WHERE f BETWEEN 10 AND 60 GROUP BY s", False),
    ("SELECT g, x, s FROM n WHERE g = 7", False),
    ("SELECT g, x, s FROM n WHERE g = 7 AND x > 0", True),
    ("SELECT g, k, y FROM n WHERE g = 2 AND k < 300", True),
    ("SELECT g, k, y, f FROM n WHERE g = 11 AND k > 11900", False),
    ("SELECT g, k, y, f FROM n WHERE g = 11 AND k > 11900 AND y != 3", True),
    ("SELECT b.k, n.y FROM b JOIN n ON b.k = n.k WHERE b.g = 3 AND b.k < 200", True),
    ("SELECT k, y FROM n WHERE k BETWEEN 40 AND 45", False),
    ("SELECT TOP 5 k, g FROM n WHERE k > 1000 ORDER BY k", False),
    ("SELECT n.k, b.x FROM n JOIN b ON n.g = b.g AND n.k = b.k WHERE n.k < 40", False),
]


def build_corpus_db(n=12000):
    return build_scan_db(n)


def metrics_record(metrics):
    return dataclasses.asdict(metrics)


def operator_corpus(database):
    """Shapes the optimizer would not pick, built by hand: a bookmark
    lookup seek over more rows than one output batch, under operators
    that charge per batch."""
    n = database.table("n")
    b = database.table("b")
    positive = Comparison(">", ColumnRef("x"), Literal(0))

    def lookup_seek(residual=None):
        return SecondaryBTreeSeek(n, n.secondary_indexes["ix_nc"],
                                  ["g", "k", "x", "f"], residual=residual)
    count = [AggregateSpec("count", None, "c")]

    def probe(index_name, inner_columns, residual=None):
        outer = BTreeSeek(b, ["g", "k"], key_ranges=[ColumnRange(2, 4)])
        return IndexNestedLoopJoin(
            outer, n, n.secondary_indexes[index_name], ["g", "k"][
                :len(n.secondary_indexes[index_name].key_columns)],
            inner_columns, inner_prefix="n.", residual=residual)
    return [
        ("inl_into_lookup_secondary", probe("ix_nc", ["y", "k", "s"])),
        ("inl_into_covering_secondary", Filter(
            probe("ix_cov", ["s", "x"],
                  Comparison("<", ColumnRef("n.x"), Literal(-15))),
            Comparison("<", ColumnRef("k"), Literal(300)))),
        ("lookup_seek_filter_agg", HashAggregate(
            Filter(lookup_seek(), positive), ["g"], count)),
        ("lookup_seek_residual_agg", HashAggregate(
            lookup_seek(positive), ["g"], count)),
        ("clustered_scan_residual", Filter(
            BTreeSeek(b, ["g", "k", "x"], residual=positive),
            Comparison("<", ColumnRef("k"), Literal(9000)))),
    ]


def record_corpus(database):
    executor = Executor(database)
    record = {}
    for sql, cold in CORPUS_SQL:
        analyzed = executor.explain_analyze(sql, cold=cold)
        result = analyzed.result
        record[f"{sql} [cold={cold}]"] = {
            "rows": len(result.rows),
            "rows_digest": hash_rows(result.rows),
            "metrics": metrics_record(result.metrics),
            "explain": result.plan.explain(),
            "spans": [[span.label, span.rows_out, span.batches_out]
                      for span in analyzed.root_span.walk()],
        }
    for name, op in operator_corpus(database):
        for cold in (False, True):
            rows, ctx = drain(op, cold=cold)
            record[f"{name} [cold={cold}]"] = {
                "rows": len(rows), "rows_digest": hash_rows(rows),
                "metrics": metrics_record(ctx.metrics),
                "explain": op.describe(),
            }
    return record


def hash_rows(rows):
    import hashlib
    return hashlib.sha256(repr(sorted(rows, key=repr)).encode()).hexdigest()[:16]


class TestRecordedCorpus:
    @pytest.fixture(scope="class")
    def expected(self):
        with open(EXPECTED_PATH) as f:
            return json.load(f)

    def test_resident_matches_recording(self, expected):
        got = json.loads(json.dumps(record_corpus(build_corpus_db())))
        assert got.keys() == expected.keys()
        for name in expected:
            assert got[name] == expected[name], name

    def test_paged_matches_recording(self, expected, tmp_path):
        build_corpus_db().save(str(tmp_path))
        paged = Database.open(str(tmp_path), paging=True, pool_bytes=1 << 18)
        got = json.loads(json.dumps(record_corpus(paged)))
        for name in expected:
            assert got[name] == expected[name], name
        assert paged.table("b").primary.is_paged
        assert paged.buffer_pool.pinned_pages() == 0

    def test_corpus_reaches_every_rowstore_operator(self, expected):
        plans = "\n".join(entry["explain"] for entry in expected.values())
        spans = {label.split("(")[0] for entry in expected.values()
                 for label, _, _ in entry.get("spans", [])}
        assert {"HeapScan", "BTreeSeek", "SecondaryBTreeSeek",
                "IndexNestedLoopJoin"} <= spans, spans
        assert "+lookup" in plans
        multi_batch = [entry for entry in expected.values()
                       if any(batches > 1 for _, _, batches
                              in entry.get("spans", []))]
        assert multi_batch


# =============================================== (c) residual stripping

def col(name):
    return ColumnRef(name)


def cmp(name, op, value):
    return Comparison(op, ColumnRef(name), Literal(value))


class TestResidualStripping:
    def seek(self, predicate, table="b", key_columns=("g", "k"), prefix=""):
        database = build_scan_db(50)
        return BTreeSeek(database.table(table), ["g", "k", "x"],
                         key_ranges=key_ranges_for(predicate, key_columns),
                         residual=predicate, prefix=prefix)

    def test_point_lookup_keeps_nothing(self):
        op = self.seek(And((cmp("g", "=", 3), cmp("k", "=", 7))))
        assert op.residual is None

    def test_mixed_key_and_non_key_conjuncts(self):
        extra = cmp("x", ">", 1)
        between = Between(col("k"), Literal(5), Literal(30))
        op = self.seek(And((cmp("g", "=", 3), between, extra,
                            Comparison("<=", Literal(4), col("k")))))
        assert op.residual == extra

    def test_range_column_after_a_range_is_not_in_the_bounds(self):
        k_bound = cmp("k", "<", 30)
        op = self.seek(And((cmp("g", ">", 3), k_bound)))
        assert op.residual == k_bound   # g is a range, so k is not seekable

    def test_not_equal_on_a_key_column_stays(self):
        not_equal = cmp("k", "!=", 9)
        op = self.seek(And((cmp("g", "=", 3), cmp("k", ">", 2), not_equal)))
        assert op.residual == not_equal

    def test_null_literals_stay(self):
        null_cmp = cmp("k", "<", None)
        null_between = Between(col("k"), Literal(None), Literal(40))
        op = self.seek(And((cmp("g", "=", 3), cmp("k", "<=", 40),
                            null_cmp, null_between)))
        assert op.residual == And((null_cmp, null_between))
        assert drain(op)[0] == []

    def test_bounds_built_by_hand_strip_nothing(self):
        """Only ranges derived from the residual's own conjuncts vouch
        for them; hand-made bounds may be wider than the predicate."""
        predicate = And((cmp("g", "<", 5), cmp("g", ">=", 2)))
        database = build_scan_db(50)
        op = BTreeSeek(database.table("b"), ["g", "k"],
                       key_ranges=[ColumnRange(low=2, high=8)],
                       residual=predicate)
        assert op.residual is predicate
        assert {g for g, _ in drain(op)[0]} == {2, 3, 4}

    def test_or_and_arithmetic_over_key_columns_stay(self):
        either = Or((cmp("k", "<", 5), cmp("k", ">", 40)))
        shifted = Comparison(">", Arithmetic("+", col("k"), Literal(1)), Literal(3))
        op = self.seek(And((cmp("g", "=", 3), cmp("k", ">=", 1), either, shifted)))
        assert op.residual == And((either, shifted))

    def test_qualified_names(self):
        op = self.seek(And((cmp("t.g", "=", 3), cmp("t.x", "=", 1))),
                       prefix="t.", key_columns=("t.g", "t.k"))
        assert op.residual == cmp("t.x", "=", 1)

    def test_secondary_seek_strips_its_own_key(self):
        database = build_scan_db(50)
        n = database.table("n")
        keep = cmp("x", "<", 3)
        predicate = And((cmp("g", "=", 4), keep))
        op = SecondaryBTreeSeek(n, n.secondary_indexes["ix_cov"], ["g", "x"],
                                key_ranges=key_ranges_for(predicate, ["g"]),
                                residual=predicate)
        assert op.residual == keep
        assert drain(op)[0] == reference(n, predicate, ["g", "x"], ["g"])

    def test_heap_scan_keeps_everything(self):
        database = build_scan_db(50)
        predicate = And((cmp("g", "=", 3), cmp("k", "=", 7)))
        assert HeapScan(database.table("h"), ["g", "k"],
                        residual=predicate).residual == predicate


# ================================================= (d) _column_array

def column_array_old_rule(values):
    """The rule before the type-set fast path, kept as the reference."""
    has_none = any(v is None for v in values)
    if not has_none:
        first = values[0]
        if isinstance(first, (bool, np.bool_)):
            pass
        elif isinstance(first, (int, float, np.integer, np.floating)):
            if all(isinstance(v, (int, np.integer))
                   and not isinstance(v, (bool, np.bool_)) for v in values):
                return np.array(values, dtype=np.int64)
            if all(isinstance(v, (int, float, np.integer, np.floating))
                   and not isinstance(v, (bool, np.bool_)) for v in values):
                return np.array(values, dtype=np.float64)
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


scalars = st.one_of(
    st.integers(-2 ** 40, 2 ** 40), st.floats(allow_nan=False, width=32),
    st.booleans(), st.none(), st.text(max_size=3),
    st.integers(-99, 99).map(np.int64), st.integers(-99, 99).map(np.int32),
    st.floats(-9, 9).map(np.float64), st.booleans().map(np.bool_))


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert [type(v) for v in got.tolist()] == [type(v) for v in want.tolist()]


class TestColumnArray:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(scalars, min_size=1, max_size=12))
    def test_same_dtype_and_values_as_the_old_rule(self, values):
        assert_same_array(_column_array(values), column_array_old_rule(values))
        as_tuple = tuple(values)
        assert_same_array(_column_array(as_tuple), column_array_old_rule(as_tuple))

    @pytest.mark.parametrize("values,dtype", [
        ([1, 2, 3], np.int64),
        ([1.5, 2.0], np.float64),
        ([1, 2.5], np.float64),
        ([2.5, 1], np.float64),
        ([1, True], object),
        ([True, 1], object),
        ([1, None], object),
        ([None, 1.5], object),
        ([np.int64(1), 2], np.int64),
        ([np.int64(1), np.float64(2.5)], np.float64),
        ([np.float64(1.5), 2], np.float64),
        ([np.bool_(True), 1], object),
        (["a", "b"], object),
        ([1, "a"], object),
        (["a", 1], object),
    ])
    def test_named_cases(self, values, dtype):
        got = _column_array(values)
        assert got.dtype == dtype
        assert_same_array(got, column_array_old_rule(values))


# ======================================= (e) NULL arithmetic, 3 designs

class TestNullArithmeticAcrossDesigns:
    SQL = [
        "SELECT k FROM t WHERE x + 1 > 2",
        "SELECT k FROM t WHERE x * y > 10",
        "SELECT k FROM t WHERE x - y <= 0 OR f / 2 > 30",
        "SELECT k FROM t WHERE NOT x + y > 3",
        "SELECT sum(x + y) q, count(*) c FROM t WHERE k < 60",
    ]

    def database(self, design):
        database = Database(design)
        table = database.create_table(scan_schema("t"))
        table.bulk_load(scan_rows(600, seed=11))
        if design == "btree":
            table.set_primary_btree(["k"])
        elif design == "csi":
            table.set_primary_columnstore(rowgroup_size=128)
        return database

    def test_heap_btree_and_columnstore_agree(self):
        answers = {}
        for design in ("heap", "btree", "csi"):
            executor = Executor(self.database(design))
            answers[design] = [sorted(executor.execute(sql).rows)
                               for sql in self.SQL]
        assert answers["heap"] == answers["btree"] == answers["csi"]
        assert all(answers["heap"][:4])        # every filter selects rows
        rows = scan_rows(600, seed=11)
        expected = sorted(
            (r[0],) for r in rows
            if r[2] is not None and r[2] + 1 > 2)
        assert answers["heap"][0] == expected
        sums = [r[2] + r[3] for r in rows[:60]
                if r[2] is not None and r[3] is not None]
        assert answers["heap"][4] == [(float(sum(sums)), 60)]

    def test_eval_batch_propagates_null_through_arithmetic(self):
        from repro.engine.batch import Batch
        from repro.engine.expressions import eval_batch
        batch = Batch({"x": _column_array([1, None, 5]),
                       "y": _column_array([2, 3, None]),
                       "z": _column_array([1, 2, 3])})
        total = eval_batch(Arithmetic("+", col("x"), col("y")), batch)
        assert total.tolist() == [3, None, None]
        mixed = eval_batch(Arithmetic("*", col("x"), col("z")), batch)
        assert mixed.tolist() == [1, None, 15]
        assert [type(v) for v in mixed.tolist()] == [int, type(None), int]
        mask = eval_batch(Comparison(
            ">", Arithmetic("+", col("x"), Literal(1)), Literal(2)), batch)
        assert mask.dtype == bool and mask.tolist() == [False, False, True]
        null_literal = eval_batch(cmp("z", "=", None), batch)
        assert null_literal.tolist() == [False, False, False]


if __name__ == "__main__":     # regenerate the recording
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w") as out:
        json.dump(record_corpus(build_corpus_db()), out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {EXPECTED_PATH}", file=sys.stderr)

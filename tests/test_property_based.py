"""Property-based tests (hypothesis) on core data structures and
invariants: B+ tree ordering, RLE round-trips, segment elimination
soundness, sargable-range extraction, the lock manager, and
SQL-vs-oracle query equivalence."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schema import Column, TableSchema
from repro.core.types import INT
from repro.engine.executor import Executor
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Literal,
    eval_batch,
    extract_column_ranges,
)
from repro.engine.batch import Batch
from repro.storage.btree import BPlusTree
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.compression import rle_runs
from repro.storage.database import Database
from repro.storage.records import Records
from repro.storage.table import Table
from tests.reference_eval import eval_row

slow = settings(max_examples=25,
                suppress_health_check=[HealthCheck.too_slow],
                deadline=None)


# ----------------------------------------------------------- B+ tree
@slow
@given(st.lists(st.integers(min_value=-10_000, max_value=10_000),
                unique=True, min_size=0, max_size=300))
def test_btree_insert_preserves_sorted_iteration(keys):
    tree = BPlusTree(leaf_capacity=8, internal_capacity=6)
    for key in keys:
        tree.insert((key,), (key,))
    assert [k[0] for k, _ in tree.items()] == sorted(keys)
    tree.check_invariants()


@slow
@given(st.lists(st.integers(min_value=0, max_value=5_000), unique=True,
                min_size=1, max_size=200),
       st.data())
def test_btree_delete_subset_keeps_rest(keys, data):
    tree = BPlusTree(leaf_capacity=6, internal_capacity=5)
    for key in keys:
        tree.insert((key,), (key,))
    to_delete = data.draw(st.sets(st.sampled_from(keys),
                                  max_size=len(keys)))
    for key in to_delete:
        tree.delete((key,))
    remaining = sorted(set(keys) - set(to_delete))
    assert [k[0] for k, _ in tree.items()] == remaining
    tree.check_invariants()


@slow
@given(st.lists(st.integers(min_value=0, max_value=1_000), unique=True,
                min_size=1, max_size=200),
       st.integers(min_value=-10, max_value=1_010),
       st.integers(min_value=-10, max_value=1_010))
def test_btree_range_scan_matches_filter(keys, low, high):
    tree = BPlusTree(leaf_capacity=8, internal_capacity=6)
    for key in keys:
        tree.insert((key,), (key,))
    got = [k[0] for k, _ in tree.scan_range((low,), (high,))]
    expected = sorted(k for k in keys if low <= k <= high)
    assert got == expected


# ----------------------------------------------------------- RLE
@slow
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=0,
                max_size=500))
def test_rle_roundtrip(values):
    arr = np.array(values, dtype=np.int64)
    run_values, run_lengths = rle_runs(arr)
    assert np.array_equal(np.repeat(run_values, run_lengths), arr)
    if len(values):
        assert int(run_lengths.sum()) == len(values)


# ------------------------------------------------- segment elimination
@slow
@given(st.lists(st.integers(min_value=0, max_value=100_000),
                min_size=64, max_size=400),
       st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=100_000))
def test_segment_elimination_never_loses_rows(values, bound_a, bound_b):
    low, high = sorted((bound_a, bound_b))
    schema = TableSchema("t", [Column("a", INT, nullable=False)])
    index = ColumnstoreIndex.build("csi", schema,
                                   np.arange(len(values), dtype=np.int64),
                                   Records.from_rows([(v,) for v in values]),
                                   is_primary=True,
                                   rowgroup_size=64)
    survivors = []
    for batch in index.scan(["a"], elimination_ranges={"a": (low, high)}):
        survivors.extend(batch.column("a").tolist())
    expected = [v for v in values if low <= v <= high]
    # Elimination is a may-contain filter: every qualifying value must
    # survive (exact filtering happens above the scan).
    from collections import Counter
    surviving_counts = Counter(survivors)
    for value, count in Counter(expected).items():
        assert surviving_counts[value] >= count


# ------------------------------------------------------ sargable ranges
range_pred = st.tuples(
    st.sampled_from(["<", "<=", ">", ">=", "="]),
    st.integers(min_value=-100, max_value=100),
)


@slow
@given(st.lists(range_pred, min_size=1, max_size=4),
       st.lists(st.integers(min_value=-120, max_value=120), min_size=1,
                max_size=50))
def test_extracted_range_is_sound(predicates, values):
    """Any value satisfying all predicates must fall inside the
    extracted range."""
    conjuncts = [Comparison(op, ColumnRef("a"), Literal(bound))
                 for op, bound in predicates]
    expr = And(tuple(conjuncts)) if len(conjuncts) > 1 else conjuncts[0]
    ranges = extract_column_ranges(expr)
    column_range = ranges.get("a")
    assert column_range is not None
    for value in values:
        satisfies = eval_row(expr, (value,), {"a": 0})
        if satisfies:
            if column_range.low is not None:
                assert value >= column_range.low
            if column_range.high is not None:
                assert value <= column_range.high


# --------------------------------------------- row/batch eval agreement
@slow
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=60),
       st.integers(min_value=-60, max_value=60),
       st.integers(min_value=-60, max_value=60))
def test_row_and_batch_eval_agree(values, low, high):
    expr = Between(ColumnRef("a"), Literal(min(low, high)),
                   Literal(max(low, high)))
    batch = Batch({"a": np.array(values, dtype=np.int64)})
    batch_mask = eval_batch(expr, batch).tolist()
    row_mask = [bool(eval_row(expr, (v,), {"a": 0})) for v in values]
    assert batch_mask == row_mask


# -------------------------------------------------------- SQL vs oracle
@slow
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=1000)),
                min_size=1, max_size=120),
       st.integers(min_value=0, max_value=30))
def test_sql_aggregate_matches_python_oracle(rows, threshold):
    db = Database()
    table = db.create_table(TableSchema("t", [
        Column("k", INT, nullable=False),
        Column("v", INT, nullable=False),
    ]))
    table.bulk_load(rows)
    executor = Executor(db)
    result = executor.execute(
        f"SELECT k, sum(v) s FROM t WHERE k <= {threshold} "
        f"GROUP BY k ORDER BY k")
    expected = {}
    for k, v in rows:
        if k <= threshold:
            expected[k] = expected.get(k, 0) + v
    got = {row[0]: row[1] for row in result.rows}
    assert got == expected
    # And the same result under a columnstore design.
    db2 = Database()
    table2 = db2.create_table(TableSchema("t", [
        Column("k", INT, nullable=False),
        Column("v", INT, nullable=False),
    ]))
    table2.bulk_load(rows)
    table2.set_primary_columnstore(rowgroup_size=64)
    result2 = Executor(db2).execute(
        f"SELECT k, sum(v) s FROM t WHERE k <= {threshold} "
        f"GROUP BY k ORDER BY k")
    assert result2.rows == result.rows


# ------------------------------------------- interleaved DML + checker
def _dml_table(design):
    from repro.core.types import varchar

    db = Database()
    table = db.create_table(TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", INT, nullable=False),
        Column("s", varchar(8), nullable=False),
    ]))
    table.bulk_load([(i, i % 10, f"s{i % 3}") for i in range(120)])
    if design == "csi_primary":
        table.set_primary_columnstore(rowgroup_size=64)
        table.create_secondary_btree("ix_b", ["b"], included_columns=["s"])
    else:
        table.set_primary_btree(["a"])
        table.create_secondary_columnstore("csi", rowgroup_size=64)
        table.create_secondary_btree("ix_b", ["b"])
    return db, table


dml_step = st.tuples(
    st.sampled_from(["insert", "delete", "update", "update_batch",
                     "reorganize", "rebuild"]),
    st.integers(min_value=0, max_value=10_000),
)


@slow
@given(st.sampled_from(["csi_primary", "btree_primary"]),
       st.lists(dml_step, min_size=1, max_size=40))
def test_interleaved_dml_keeps_every_index_consistent(design, steps):
    """After every DML / maintenance step, each physical structure must
    agree exactly with the table's logical rows (CHECKDB-style)."""
    from repro.storage.checker import check_table

    db, table = _dml_table(design)
    next_a = 100_000
    for i, (op, pick) in enumerate(steps):
        rids = table.columns_by_rid()[0].tolist()
        if op == "insert" or not rids:
            table.insert_row((next_a + i, pick % 10, "ins"))
        elif op == "delete":
            table.delete_rid(rids[pick % len(rids)])
        elif op == "update":
            rid = rids[pick % len(rids)]
            table.update_rid(rid, (200_000 + i, pick % 10, "upd"))
        elif op == "update_batch":
            chosen = {rids[(pick + j) % len(rids)] for j in range(3)}
            table.update_rids([
                (rid, (300_000 + i * 10 + j, (pick + j) % 10, "ub"))
                for j, rid in enumerate(sorted(chosen))])
        elif op == "reorganize":
            for index in table.all_indexes:
                if index.kind == "csi":
                    index.reorganize()
        else:
            for index in table.all_indexes:
                if index.kind == "csi":
                    index.rebuild()
        result = check_table(table)
        assert result.ok, f"step {i} ({op}): {result.summary()}"


# ----------------------------------------------------------- locks
@slow
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.booleans()),
                min_size=1, max_size=30))
def test_lock_manager_exclusivity_invariant(requests):
    """At no point may an X holder coexist with any other holder."""
    from repro.engine.locks import LOCK_S, LOCK_X, LockManager
    manager = LockManager()
    held = {}
    for owner, (resource, exclusive) in enumerate(requests):
        mode = LOCK_X if exclusive else LOCK_S
        granted = manager.try_acquire_all(owner, [((resource,), mode)])
        if granted:
            held.setdefault(resource, []).append((owner, mode))
        holders = manager.holders_of((resource,))
        modes = list(holders.values())
        if LOCK_X in modes:
            assert len(modes) == 1

"""Fault injection and multi-index DML atomicity.

The headline test is the exhaustive fault sweep: for every injection
point, inject on the Nth hit while each DML / maintenance operation runs
against each physical design, then assert that the statement was either
fully applied or fully rolled back and that the CHECKDB-style checker
finds every index consistent.
"""

import pytest

from repro.core.errors import ProcessAbort, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.metrics import ExecutionContext
from repro.storage.btree import iter_entries
from repro.storage.checker import check_database, check_table
from repro.storage.database import Database
from repro.storage.faults import (
    ALL_POINTS,
    CRASH_POINTS,
    INJECTION_POINTS,
    FaultInjector,
    InjectedFault,
    trip,
)


def schema(name="t"):
    return TableSchema(name, [
        Column("a", INT, nullable=False),
        Column("b", INT, nullable=False),
        Column("s", varchar(8), nullable=False),
    ])


def base_rows(n):
    return [(i, i % 10, f"s{i % 3}") for i in range(n)]


# ------------------------------------------------------------ unit tests
class TestFaultInjector:
    def test_unknown_point_rejected(self):
        injector = FaultInjector()
        with pytest.raises(StorageError):
            injector.arm("no.such.point")
        with pytest.raises(StorageError):
            injector.hit("no.such.point")

    def test_nth_hit_fires_once(self):
        injector = FaultInjector()
        injector.arm("heap.insert", on_hit=3)
        injector.hit("heap.insert")
        injector.hit("heap.insert")
        with pytest.raises(InjectedFault) as exc:
            injector.hit("heap.insert")
        assert exc.value.point == "heap.insert"
        assert exc.value.hit_number == 3
        injector.hit("heap.insert")  # one-shot: consumed
        assert injector.hits["heap.insert"] == 4
        assert injector.injected["heap.insert"] == 1

    def test_scripted_schedule(self):
        injector = FaultInjector()
        injector.arm_script("btree.insert", [False, True, True])
        injector.hit("btree.insert")
        with pytest.raises(InjectedFault):
            injector.hit("btree.insert")
        with pytest.raises(InjectedFault):
            injector.hit("btree.insert")
        injector.hit("btree.insert")  # script exhausted -> disarmed
        assert injector.injected["btree.insert"] == 2

    def test_probabilistic_is_reproducible(self):
        def run():
            injector = FaultInjector()
            injector.arm_probabilistic("csi.delete", 0.5, seed=42)
            fired = []
            for _ in range(20):
                try:
                    injector.hit("csi.delete")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)

    def test_probability_bounds_validated(self):
        injector = FaultInjector()
        with pytest.raises(StorageError):
            injector.arm_probabilistic("csi.delete", 1.5)
        with pytest.raises(StorageError):
            injector.arm("csi.delete", on_hit=0)

    def test_disarm_and_reset(self):
        injector = FaultInjector()
        injector.arm("heap.insert")
        injector.arm("heap.delete")
        injector.disarm("heap.insert")
        assert injector.armed_points() == ("heap.delete",)
        injector.hit("heap.insert")
        injector.reset()
        assert injector.armed_points() == ()
        assert injector.total_hits == 0

    def test_suspended_masks_hits_and_faults(self):
        injector = FaultInjector()
        injector.arm("heap.insert", on_hit=1)
        with injector.suspended():
            injector.hit("heap.insert")  # neither counts nor fires
        assert injector.total_hits == 0
        with pytest.raises(InjectedFault):
            injector.hit("heap.insert")

    def test_disabled_injector_is_inert(self):
        injector = FaultInjector(enabled=False)
        injector.arm("heap.insert")
        injector.hit("heap.insert")
        assert injector.total_hits == 0

    def test_trip_none_is_noop(self):
        trip(None, "heap.insert")  # must not raise

    def test_validation_error_lists_armed_and_known_points(self):
        injector = FaultInjector()
        injector.arm("heap.insert")
        injector.arm("wal_append")
        with pytest.raises(StorageError) as exc:
            injector.arm("wal_appendd")
        message = str(exc.value)
        assert "'wal_appendd'" in message
        assert "armed points: heap.insert, wal_append" in message
        for point in ALL_POINTS:
            assert point in message

    def test_validation_error_with_nothing_armed(self):
        with pytest.raises(StorageError) as exc:
            FaultInjector().hit("bogus")
        assert "armed points: <none>" in str(exc.value)


class TestScenario:
    def test_int_spec_arms_nth_hit(self):
        injector = FaultInjector()
        injector.scenario({"heap.insert": 2})
        injector.hit("heap.insert")
        with pytest.raises(InjectedFault):
            injector.hit("heap.insert")

    def test_dict_and_sequence_specs(self):
        injector = FaultInjector()
        injector.scenario({
            "heap.insert": {"kind": "nth", "on_hit": 1},
            "btree.insert": {"kind": "probability", "probability": 1.0,
                             "seed": 3},
            "csi.delta_insert": [False, True],
        })
        assert sorted(injector.armed_points()) == [
            "btree.insert", "csi.delta_insert", "heap.insert"]
        with pytest.raises(InjectedFault):
            injector.hit("heap.insert")
        with pytest.raises(InjectedFault):
            injector.hit("btree.insert")
        injector.hit("csi.delta_insert")
        with pytest.raises(InjectedFault):
            injector.hit("csi.delta_insert")

    def test_bare_bool_rejected(self):
        # bool is an int subclass; silently treating True as on_hit=1
        # would mask a typo'd spec.
        with pytest.raises(StorageError):
            FaultInjector().scenario({"heap.insert": True})

    def test_unknown_kind_and_type_rejected(self):
        injector = FaultInjector()
        with pytest.raises(StorageError):
            injector.scenario({"heap.insert": {"kind": "sometimes"}})
        with pytest.raises(StorageError):
            injector.scenario({"heap.insert": 1.5})

    def test_unknown_point_in_scenario_rejected(self):
        with pytest.raises(StorageError):
            FaultInjector().scenario({"no.such.point": 1})


class TestCrashPoints:
    def test_point_catalogs(self):
        assert ALL_POINTS == INJECTION_POINTS + CRASH_POINTS
        assert set(CRASH_POINTS) == {
            "wal_append", "wal_fsync", "checkpoint_mid", "page_flush_torn"}
        assert not set(CRASH_POINTS) & set(INJECTION_POINTS)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_point_raises_process_abort(self, point):
        injector = FaultInjector()
        injector.arm(point, on_hit=2)
        injector.hit(point)
        with pytest.raises(ProcessAbort) as exc:
            injector.hit(point)
        assert exc.value.point == point
        assert exc.value.hit_number == 2
        assert injector.hits[point] == 2
        assert injector.injected[point] == 1

    def test_process_abort_is_not_an_exception(self):
        # Rollback code catches Exception; a simulated process death must
        # sail straight through it, like a real kill -9 would.
        assert not issubclass(ProcessAbort, Exception)
        assert issubclass(ProcessAbort, BaseException)
        injector = FaultInjector()
        injector.arm("wal_fsync")
        with pytest.raises(ProcessAbort):
            try:
                injector.hit("wal_fsync")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("ProcessAbort was caught by Exception")


# --------------------------------------------------- targeted atomicity
def make_hybrid_db():
    """Primary B+ tree + secondary B+ tree + secondary columnstore."""
    db = Database()
    table = db.create_table(schema())
    table.bulk_load(base_rows(200))
    table.set_primary_btree(["a"])
    table.create_secondary_btree("ix_b", ["b"], included_columns=["s"])
    table.create_secondary_columnstore("csi", rowgroup_size=64)
    return db


class TestDmlRollback:
    def test_insert_rollback_removes_partial_state(self):
        db = make_hybrid_db()
        table = db.table("t")
        ctx = ExecutionContext()
        db.fault_injector.arm("table.secondary_apply", on_hit=2)
        with pytest.raises(InjectedFault):
            table.insert_row((900, 1, "x"), ctx)
        assert not table.has_rid(200)
        assert table.row_count == 200
        result = check_table(table)
        assert result.ok, result.summary()
        assert ctx.metrics.rollbacks == 1
        assert ctx.metrics.faults_injected == 1
        # The burned rid is not reused, and the retry succeeds everywhere.
        rid = table.insert_row((900, 1, "x"))
        assert rid == 201
        assert check_table(table).ok

    def test_delete_rollback_restores_every_index(self):
        db = make_hybrid_db()
        table = db.table("t")
        row = table.get_row(5)
        db.fault_injector.arm("csi.delete", on_hit=1)
        with pytest.raises(InjectedFault):
            table.delete_rid(5)
        assert table.get_row(5) == row
        result = check_table(table)
        assert result.ok, result.summary()

    def test_update_rollback_restores_old_values(self):
        db = make_hybrid_db()
        table = db.table("t")
        old = table.get_row(7)
        db.fault_injector.arm("csi.delta_insert", on_hit=1)
        ctx = ExecutionContext()
        with pytest.raises(InjectedFault):
            table.update_rid(7, (7, 555, "upd"), ctx)
        assert table.get_row(7) == old
        assert ctx.metrics.rollbacks == 1
        result = check_table(table)
        assert result.ok, result.summary()

    def test_batch_update_rollback(self):
        db = make_hybrid_db()
        table = db.table("t")
        before = dict(table.iter_rows())
        db.fault_injector.arm("btree.update", on_hit=3)
        with pytest.raises(InjectedFault):
            table.update_rids([(i, (i, 700 + i, "bu")) for i in range(4)])
        assert dict(table.iter_rows()) == before
        result = check_table(table)
        assert result.ok, result.summary()

    def test_secondary_btree_update_restores_entry_on_insert_fault(self):
        db = make_hybrid_db()
        table = db.table("t")
        # Fault the re-insert half of a key-changing secondary update; the
        # deleted old entry must be put back before the fault surfaces.
        db.fault_injector.arm("btree.insert", on_hit=1)
        with pytest.raises(InjectedFault):
            table.update_rid(3, (3, 444, "kk"))
        ix = table.secondary_indexes["ix_b"]
        assert any(key[-1] == 3 for key, _ in iter_entries(
            ix.seek_range((3,), (3,))))
        assert check_table(table).ok

    def test_executor_rollback_surfaces_metrics(self):
        from repro.engine.executor import Executor

        db = make_hybrid_db()
        executor = Executor(db)
        db.fault_injector.arm("csi.delete", on_hit=1)
        with pytest.raises(InjectedFault):
            executor.execute("DELETE FROM t WHERE a = 5")
        assert check_database(db).ok
        assert executor.execute("SELECT count(*) FROM t").scalar() == 200


# ------------------------------------------------- exhaustive fault sweep
def build_csi_primary():
    db = Database()
    table = db.create_table(schema())
    table.bulk_load(base_rows(200))
    table.set_primary_columnstore(rowgroup_size=64)
    table.create_secondary_btree("ix_b", ["b"], included_columns=["s"])
    # Seed the delta store so the tuple mover has work.
    for i in range(40):
        table.insert_row((1000 + i, i % 10, "d"))
    return db


def build_btree_primary():
    db = Database()
    table = db.create_table(schema())
    table.bulk_load(base_rows(200))
    table.set_primary_btree(["a"])
    table.create_secondary_columnstore("csi", rowgroup_size=64)
    table.create_secondary_btree("ix_b", ["b"])
    # Seed delta-store shadows and buffered deletes on the secondary CSI.
    table.update_rids([(i, (i, 500 + i, "sh")) for i in range(3)])
    table.delete_rids([5, 6])
    return db


def build_heap_primary():
    db = Database()
    table = db.create_table(schema())
    table.bulk_load(base_rows(80))
    table.create_secondary_btree("ix_b", ["b"])
    return db


def table_csi(table):
    for index in table.all_indexes:
        if index.kind == "csi":
            return index
    return None


# (name, applies_to_builder, single_statement, op) — ``single_statement``
# marks ops whose whole effect must be all-or-nothing; multi-statement
# ops commit earlier statements, so only consistency is asserted.
def _op_insert(table):
    table.insert_row((9000, 1, "new"))


def _op_insert_burst(table):
    # Enough inserts to push a columnstore delta store over the
    # rowgroup-size threshold mid-burst (tuple move inside a statement).
    for i in range(70):
        table.insert_row((9100 + i, i % 10, "bu"))


def _op_delete(table):
    table.delete_rid(10)


def _op_delete_batch(table):
    table.delete_rids([11, 12, 13])


def _op_update(table):
    table.update_rid(20, (20, 999, "up"))


def _op_update_batch(table):
    table.update_rids([(21, (21, 901, "u1")), (22, (22, 902, "u2")),
                       (23, (23, 903, "u3"))])


def _op_reorganize(table):
    table_csi(table).reorganize()


def _op_rebuild(table):
    table_csi(table).rebuild()


BUILDERS = {
    "csi_primary": build_csi_primary,
    "btree_primary": build_btree_primary,
    "heap_primary": build_heap_primary,
}

OPERATIONS = [
    ("insert", ("csi_primary", "btree_primary", "heap_primary"), True,
     _op_insert),
    ("insert_burst", ("csi_primary", "btree_primary"), False,
     _op_insert_burst),
    ("delete", ("csi_primary", "btree_primary", "heap_primary"), True,
     _op_delete),
    ("delete_batch", ("csi_primary", "btree_primary"), True,
     _op_delete_batch),
    ("update", ("csi_primary", "btree_primary", "heap_primary"), True,
     _op_update),
    ("update_batch", ("csi_primary", "btree_primary"), True,
     _op_update_batch),
    ("reorganize", ("csi_primary", "btree_primary"), True, _op_reorganize),
    ("rebuild", ("csi_primary", "btree_primary"), True, _op_rebuild),
]


def test_exhaustive_fault_sweep():
    """For every injection point each operation reaches, inject on the
    first and last observed hit; every outcome must be fully applied or
    fully rolled back, and the checker must pass."""
    injected_points = set()
    for op_name, designs, single_statement, op in OPERATIONS:
        for design in designs:
            builder = BUILDERS[design]
            # Dry run: discover which points this op hits, and how often.
            dry = builder()
            dry.fault_injector.reset()
            op(dry.table("t"))
            hits = {p: n for p, n in dry.fault_injector.hits.items() if n}
            assert hits, f"{op_name}/{design} hit no injection points"
            for point, n_hits in hits.items():
                for on_hit in sorted({1, min(2, n_hits), n_hits}):
                    db = builder()
                    table = db.table("t")
                    snapshot = dict(table.iter_rows())
                    db.fault_injector.arm(point, on_hit=on_hit)
                    with pytest.raises(InjectedFault):
                        op(table)
                    injected_points.add(point)
                    result = check_database(db)
                    assert result.ok, (
                        f"{op_name}/{design} fault at {point} hit "
                        f"{on_hit}: {result.summary()}")
                    if single_statement:
                        assert dict(table.iter_rows()) == snapshot, (
                            f"{op_name}/{design} fault at {point} hit "
                            f"{on_hit}: statement partially applied")
                    # The engine recovered: the same operation succeeds
                    # and leaves everything consistent.
                    op(table)
                    after = check_database(db)
                    assert after.ok, (
                        f"{op_name}/{design} retry after {point}: "
                        f"{after.summary()}")
    assert injected_points == set(INJECTION_POINTS), (
        "sweep never injected: "
        f"{sorted(set(INJECTION_POINTS) - injected_points)}")


def test_probabilistic_chaos_run_stays_consistent():
    """Chaos flavour: every point armed with a seeded coin; interleaved
    DML with rollbacks must keep every index consistent throughout."""
    db = build_btree_primary()
    table = db.table("t")
    for seed, point in enumerate(INJECTION_POINTS):
        db.fault_injector.arm_probabilistic(point, 0.10, seed=seed)
    next_a = 20_000
    for step in range(60):
        try:
            if step % 4 == 0:
                table.insert_row((next_a + step, step % 10, "ch"))
            elif step % 4 == 1:
                rids = table.columns_by_rid()[0].tolist()
                table.update_rid(rids[step % len(rids)],
                                 (30_000 + step, step % 10, "cu"))
            elif step % 4 == 2:
                rids = table.columns_by_rid()[0].tolist()
                table.delete_rid(rids[step % len(rids)])
            else:
                table_csi(table).reorganize()
        except InjectedFault:
            pass
        result = check_table(table)
        assert result.ok, f"step {step}: {result.summary()}"
    assert db.fault_injector.total_injected > 0

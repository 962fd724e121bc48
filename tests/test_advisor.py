"""Tests for the tuning advisor: size estimation, candidates, merging,
enumeration, and the end-to-end tune/apply loop."""

import math
import random

import pytest

from repro.advisor.advisor import (
    MODE_BTREE_ONLY,
    MODE_CSI_ONLY,
    MODE_HYBRID,
    TuningAdvisor,
)
from repro.advisor.candidates import (
    CSI_MODE_REFERENCED,
    CandidateGenerator,
    CandidateSet,
    select_candidates_per_query,
)
from repro.advisor.enumeration import GreedyEnumerator
from repro.advisor.merging import can_merge_btrees, merge_candidates
from repro.advisor.size_estimation import (
    actual_csi_column_sizes,
    block_sample,
    estimate_blackbox,
    estimate_csi_size,
    estimate_run_modelling,
    gee_distinct_estimate,
)
from repro.advisor.workload import Workload, WorkloadStatement
from repro.core.errors import AdvisorError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, XML, varchar
from repro.engine.executor import Executor
from repro.optimizer.catalog import Catalog
from repro.optimizer.plans import KIND_BTREE, KIND_CSI
from repro.optimizer.whatif import WhatIfSession
from repro.storage.database import Database


def make_db(n=30000, seed=2):
    rng = random.Random(seed)
    db = Database()
    fact = db.create_table(TableSchema("fact", [
        Column("id", INT, nullable=False),
        Column("dim_id", INT, nullable=False),
        Column("nation", INT),   # low cardinality, like n_nationkey
        Column("v", INT),
        Column("tag", varchar(8)),
    ]))
    fact.bulk_load([
        (i, rng.randrange(500), rng.randrange(25), rng.randrange(100000),
         f"t{rng.randrange(5)}")
        for i in range(n)
    ])
    fact.set_primary_btree(["id"])
    dim = db.create_table(TableSchema("dim", [
        Column("id", INT, nullable=False),
        Column("label", varchar(16)),
    ]))
    dim.bulk_load([(i, f"lab{i}") for i in range(500)])
    dim.set_primary_btree(["id"])
    return db


class TestBlockSampling:
    def test_ratio_respected(self):
        db = make_db(10000)
        sample = block_sample(db.table("fact"), 0.1)
        assert 500 <= len(sample) <= 2000

    def test_full_ratio_returns_everything(self):
        db = make_db(1000)
        assert len(block_sample(db.table("fact"), 1.0)) == 1000

    def test_bad_ratio_rejected(self):
        db = make_db(100)
        with pytest.raises(AdvisorError):
            block_sample(db.table("fact"), 0.0)

    def test_blocks_are_contiguous(self):
        db = make_db(10000)
        sample = block_sample(db.table("fact"), 0.05, block_rows=64)
        ids = [row[0] for row in sample]
        # At least one run of 64 consecutive ids must exist.
        runs = sum(1 for i in range(1, len(ids)) if ids[i] == ids[i-1] + 1)
        assert runs > len(ids) * 0.9


class TestGeeEstimator:
    def test_exact_when_sample_is_everything(self):
        values = [1, 2, 3, 3, 3]
        assert gee_distinct_estimate(values, 5) == 3

    def test_scales_singletons(self):
        # Sample of 100 unique values from a much larger domain.
        values = list(range(100))
        estimate = gee_distinct_estimate(values, 10000)
        assert estimate == 1000  # sqrt(10000/100) * 100

    def test_low_cardinality_not_overestimated(self):
        # 25 distinct values, all repeated in the sample -> stay at 25.
        values = [i % 25 for i in range(500)]
        assert gee_distinct_estimate(values, 100000) == 25

    def test_linear_scaling_variant(self):
        values = list(range(100))
        estimate = gee_distinct_estimate(values, 10000, scaling="linear")
        assert estimate == 10000

    def test_unknown_scaling_rejected(self):
        with pytest.raises(AdvisorError):
            gee_distinct_estimate([1], 10, scaling="bogus")


class TestSizeEstimation:
    def test_both_estimators_within_factor_of_truth(self):
        db = make_db(20000)
        table = db.table("fact")
        columns = ["dim_id", "nation", "v", "tag"]
        truth = actual_csi_column_sizes(table, columns)
        for method in ("blackbox", "run_modelling"):
            estimate = estimate_csi_size(table, columns, method=method,
                                         sampling_ratio=0.1)
            for column in columns:
                ratio = (estimate.column_sizes[column] + 1) / (
                    truth[column] + 1)
                assert 0.05 < ratio < 20.0, (
                    f"{method} {column}: {ratio}")

    def test_run_modelling_beats_blackbox_on_low_cardinality(self):
        """The paper's n_nationkey argument: black-box linear scaling
        overestimates columns with few distinct values."""
        db = make_db(30000)
        table = db.table("fact")
        truth = actual_csi_column_sizes(table, ["nation"])["nation"]
        blackbox = estimate_blackbox(
            table, ["nation"], sampling_ratio=0.05).column_sizes["nation"]
        modelled = estimate_run_modelling(
            table, ["nation"], sampling_ratio=0.05).column_sizes["nation"]
        blackbox_error = abs(blackbox - truth) / truth
        modelled_error = abs(modelled - truth) / truth
        assert modelled_error < blackbox_error

    def test_unknown_method_rejected(self):
        db = make_db(100)
        with pytest.raises(AdvisorError):
            estimate_csi_size(db.table("fact"), ["v"], method="nope")


class TestWorkload:
    def test_binds_and_classifies(self):
        db = make_db(1000)
        wl = Workload.from_sql([
            "SELECT sum(v) FROM fact WHERE id < 10",
            ("UPDATE fact SET v = 0 WHERE id = 1", 3.0),
        ], db)
        assert len(wl.selects) == 1
        assert len(wl.updates) == 1
        assert wl.total_weight == 4.0
        assert wl.referenced_tables() == ["fact"]

    def test_empty_workload_rejected(self):
        db = make_db(100)
        with pytest.raises(AdvisorError):
            Workload([], db)

    def test_bad_weight_rejected(self):
        db = make_db(100)
        with pytest.raises(AdvisorError):
            Workload([WorkloadStatement("SELECT v FROM fact", weight=0)],
                     db)


class TestCandidates:
    def test_btree_candidate_from_predicate(self):
        db = make_db(5000)
        catalog = Catalog(db)
        generator = CandidateGenerator(catalog,
                                       consider_columnstores=False)
        wl = Workload.from_sql(
            ["SELECT sum(v) FROM fact WHERE dim_id = 5"], db)
        pool = CandidateSet()
        generated = generator.candidates_for_query(
            wl.statements[0].bound, pool)
        assert any(d.key_columns == ["dim_id"] for d in generated)
        seek = [d for d in generated if d.key_columns == ["dim_id"]][0]
        assert "v" in seek.included_columns

    def test_csi_candidates_primary_and_secondary(self):
        db = make_db(5000)
        generator = CandidateGenerator(Catalog(db), consider_btrees=False)
        wl = Workload.from_sql(["SELECT sum(v) FROM fact"], db)
        pool = CandidateSet()
        generated = generator.candidates_for_query(
            wl.statements[0].bound, pool)
        kinds = {(d.kind, d.is_primary) for d in generated}
        assert (KIND_CSI, False) in kinds
        assert (KIND_CSI, True) in kinds

    def test_xml_table_gets_no_primary_csi_candidate(self):
        db = make_db(1000)
        t = db.create_table(TableSchema("docs", [
            Column("id", INT, nullable=False),
            Column("payload", XML),
        ]))
        t.bulk_load([(i, f"<x>{i}</x>") for i in range(100)])
        generator = CandidateGenerator(Catalog(db), consider_btrees=False)
        wl = Workload.from_sql(["SELECT id FROM docs WHERE id < 5"], db)
        pool = CandidateSet()
        generated = generator.candidates_for_query(
            wl.statements[0].bound, pool)
        assert all(not d.is_primary for d in generated)
        # Secondary CSI exists but excludes the XML column.
        csis = [d for d in generated if d.kind == KIND_CSI]
        assert csis and "payload" not in csis[0].csi_columns

    def test_referenced_mode_narrows_csi(self):
        db = make_db(1000)
        generator = CandidateGenerator(Catalog(db), consider_btrees=False,
                                       csi_mode=CSI_MODE_REFERENCED,
                                       consider_primary_csi=False)
        wl = Workload.from_sql(["SELECT sum(v) FROM fact WHERE dim_id = 1"],
                               db)
        pool = CandidateSet()
        generated = generator.candidates_for_query(
            wl.statements[0].bound, pool)
        csis = [d for d in generated if d.kind == KIND_CSI]
        assert sorted(csis[0].csi_columns) == ["dim_id", "v"]

    def test_pool_deduplicates(self):
        db = make_db(1000)
        generator = CandidateGenerator(Catalog(db))
        wl = Workload.from_sql([
            "SELECT sum(v) FROM fact WHERE dim_id = 5",
            "SELECT sum(v) FROM fact WHERE dim_id = 9",
        ], db)
        pool = CandidateSet()
        for statement in wl.statements:
            generator.candidates_for_query(statement.bound, pool)
        signatures = [(tuple(d.key_columns),
                       tuple(sorted(d.included_columns)))
                      for d in pool.btrees.values()]
        assert len(signatures) == len(set(signatures))

    def test_winners_are_referenced_hypotheticals(self):
        db = make_db(20000)
        catalog = Catalog(db)
        session = WhatIfSession(db, catalog)
        generator = CandidateGenerator(catalog)
        wl = Workload.from_sql(
            ["SELECT sum(v) FROM fact WHERE dim_id = 5"], db)
        pool, winners = select_candidates_per_query(wl, generator, session)
        assert winners[0]
        assert all(d.hypothetical for d in winners[0])


class TestMerging:
    def test_can_merge_prefix_keys(self):
        from repro.optimizer.whatif import hypothetical_btree
        a = hypothetical_btree("t", ["x"], ["v"], n_rows=10)
        b = hypothetical_btree("t", ["x", "y"], ["w"], n_rows=10)
        assert can_merge_btrees(a, b)

    def test_cannot_merge_across_tables_or_kinds(self):
        from repro.optimizer.whatif import (
            hypothetical_btree,
            hypothetical_columnstore,
        )
        a = hypothetical_btree("t1", ["x"], n_rows=10)
        b = hypothetical_btree("t2", ["x"], n_rows=10)
        assert not can_merge_btrees(a, b)
        c = hypothetical_columnstore("t1", ["x"], {"x": 10})
        assert not can_merge_btrees(a, c)

    def test_merge_produces_union_includes(self):
        db = make_db(1000)
        catalog = Catalog(db)
        pool = CandidateSet()
        from repro.optimizer.whatif import hypothetical_btree
        pool.add(hypothetical_btree("fact", ["dim_id"], ["v"], n_rows=1000))
        pool.add(hypothetical_btree("fact", ["dim_id"], ["tag"],
                                    n_rows=1000))
        merged = merge_candidates(pool, catalog)
        assert len(merged) == 1
        assert sorted(merged[0].included_columns) == ["tag", "v"]


class TestEndToEndTuning:
    def scan_heavy_workload(self, db):
        return Workload.from_sql([
            "SELECT nation, sum(v) FROM fact GROUP BY nation",
            "SELECT dim_id, sum(v) FROM fact GROUP BY dim_id",
            "SELECT sum(v) FROM fact WHERE nation = 3",
        ], db)

    def seek_heavy_workload(self, db):
        return Workload.from_sql([
            "SELECT sum(v) FROM fact WHERE id = 17",
            "SELECT sum(v) FROM fact WHERE dim_id = 5",
            ("UPDATE TOP (5) fact SET v = v + 1 WHERE id < 100", 50.0),
        ], db)

    def test_scan_heavy_gets_columnstore(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        rec = advisor.tune(self.scan_heavy_workload(db))
        kinds = {d.kind for d in rec.chosen}
        assert KIND_CSI in kinds
        assert rec.estimated_cost < rec.base_cost

    def test_seek_heavy_stays_btree(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        rec = advisor.tune(self.seek_heavy_workload(db))
        assert all(d.kind == KIND_BTREE for d in rec.chosen)

    def test_btree_only_mode_never_recommends_csi(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        rec = advisor.tune(self.scan_heavy_workload(db),
                           mode=MODE_BTREE_ONLY)
        assert all(d.kind == KIND_BTREE for d in rec.chosen)

    def test_csi_only_mode(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        rec = advisor.tune(self.scan_heavy_workload(db), mode=MODE_CSI_ONLY)
        assert rec.chosen
        assert all(d.kind == KIND_CSI for d in rec.chosen)

    def test_storage_budget_respected(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        unbudgeted = advisor.tune(self.scan_heavy_workload(db))
        budget = max(1, unbudgeted.storage_bytes // 4)
        rec = advisor.tune(self.scan_heavy_workload(db),
                           storage_budget_bytes=budget)
        assert rec.storage_bytes <= budget or not rec.chosen

    def test_apply_builds_real_indexes_and_speeds_up(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        workload = self.scan_heavy_workload(db)
        ex = Executor(db, catalog=advisor.catalog)
        # Compare CPU time, like the paper's Figure 9: elapsed time can
        # mask work differences behind parallelism.
        before = sum(
            ex.execute(s.sql).metrics.cpu_ms
            for s in workload.statements)
        rec = advisor.tune(workload)
        created = advisor.apply(rec)
        assert created
        ex.refresh()
        after = sum(
            ex.execute(s.sql).metrics.cpu_ms
            for s in workload.statements)
        assert after < before

    def test_update_heavy_workload_rejects_primary_csi(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        wl = Workload.from_sql([
            ("UPDATE TOP (100) fact SET v = v + 1 WHERE id < 5000", 100.0),
            "SELECT sum(v) FROM fact WHERE id < 100",
        ], db)
        rec = advisor.tune(wl)
        assert not any(d.kind == KIND_CSI and d.is_primary
                       for d in rec.chosen)

    def test_recommendation_ddl_renders(self):
        db = make_db()
        advisor = TuningAdvisor(db)
        rec = advisor.tune(self.scan_heavy_workload(db))
        ddl = rec.ddl()
        assert all(statement.startswith("CREATE") for statement in ddl)
        assert "COLUMNSTORE" in " ".join(ddl)

    @pytest.mark.parametrize("mode", [MODE_HYBRID, MODE_BTREE_ONLY,
                                      MODE_CSI_ONLY])
    def test_workload_with_an_insert_is_tuned(self, mode):
        """An INSERT has no WHERE: it is costed as its maintenance alone,
        in every mode, instead of failing the tuning."""
        db = make_db()
        wl = Workload.from_sql([
            "SELECT sum(v) FROM fact WHERE id = 17",
            "SELECT nation, sum(v) FROM fact GROUP BY nation",
            ("INSERT INTO fact VALUES (99999, 1, 2, 3, 'x')", 10.0),
        ], db)
        rec = TuningAdvisor(db).tune(wl, mode=mode)
        assert len(rec.per_statement_costs) == 3
        assert all(math.isfinite(cost) and cost > 0
                   for cost in rec.per_statement_costs)

"""The tuning advisor facade: this repository's DTA.

``TuningAdvisor.tune(workload, ...)`` runs the full pipeline of
Section 4 — candidate selection per query, index merging, greedy
workload-level enumeration under an optional storage budget — and returns
a :class:`Recommendation`. ``apply()`` materializes the recommendation
(builds the actual indexes), after which queries measurably speed up.

Tuning modes reproduce the paper's three compared designs (Section 5.1):

* ``hybrid``      — B+ trees and columnstores both considered (the new DTA)
* ``btree_only``  — B+ tree candidates only
* ``csi_only``    — a secondary columnstore on every referenced table
                    (the paper's columnstore-only baseline is not
                    advisor-driven; it simply builds a secondary CSI on
                    all tables)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.advisor.candidates import (
    CSI_MODE_ALL,
    CandidateGenerator,
    missing_index_candidates,
    select_candidates_per_query,
)
from repro.advisor.enumeration import GreedyEnumerator
from repro.advisor.merging import merge_candidates
from repro.advisor.size_estimation import estimate_csi_size
from repro.advisor.workload import Workload
from repro.core.errors import AdvisorError
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostingOptions
from repro.optimizer.plans import KIND_BTREE, KIND_CSI, IndexDescriptor
from repro.optimizer.whatif import WhatIfSession
from repro.storage.database import Database

MODE_HYBRID = "hybrid"
MODE_BTREE_ONLY = "btree_only"
MODE_CSI_ONLY = "csi_only"


@dataclass
class Recommendation:
    """The advisor's output."""

    mode: str
    chosen: List[IndexDescriptor]
    base_cost: float
    estimated_cost: float
    per_statement_costs: List[float]
    storage_bytes: int
    elapsed_seconds: float
    n_candidates: int

    @property
    def improvement_factor(self) -> float:
        """base cost / final cost (higher is better)."""
        if self.estimated_cost <= 0:
            return float("inf")
        return self.base_cost / self.estimated_cost

    def ddl(self) -> List[str]:
        """CREATE INDEX-style statements for the chosen indexes."""
        return [descriptor.ddl() for descriptor in self.chosen]

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"mode={self.mode} candidates={self.n_candidates} "
            f"indexes={len(self.chosen)} "
            f"storage={self.storage_bytes / (1024 * 1024):.1f}MB",
            f"estimated cost: {self.base_cost:.2f} -> "
            f"{self.estimated_cost:.2f} "
            f"({self.improvement_factor:.1f}x)",
        ]
        lines.extend("  " + ddl for ddl in self.ddl())
        return "\n".join(lines)


class TuningAdvisor:
    """Database Engine Tuning Advisor, extended for hybrid designs."""

    def __init__(self, database: Database,
                 catalog: Optional[Catalog] = None,
                 options: Optional[CostingOptions] = None):
        self.database = database
        self.catalog = catalog or Catalog(database)
        self.options = options or CostingOptions(
            cost_model=database.cost_model)

    def tune(
        self,
        workload: Workload,
        mode: str = MODE_HYBRID,
        storage_budget_bytes: Optional[int] = None,
        csi_candidate_mode: str = CSI_MODE_ALL,
        consider_primary_csi: bool = True,
        consider_sorted_csi: bool = False,
        allow_multiple_columnstores: bool = False,
        size_estimation_method: str = "run_modelling",
        keep_existing_secondary: bool = False,
        seed_missing_indexes: bool = True,
    ) -> Recommendation:
        """Run the tuning pipeline and return a recommendation.

        ``consider_sorted_csi`` and ``allow_multiple_columnstores``
        enable the Section 4.5 extensions (sorted projections; several
        columnstores per table).

        ``seed_missing_indexes`` additionally pools B+ tree candidates
        derived from the database's missing-index telemetry
        (``dm_db_missing_index_details``), so indexes the running system
        observed a need for stay searchable even when the tuning
        workload alone would not have generated them. A freshly built
        database has no observations, so this is a no-op there.
        """
        started = time.perf_counter()
        session = WhatIfSession(self.database, self.catalog, self.options)

        if mode == MODE_CSI_ONLY:
            return self._csi_only(workload, session, started)
        if mode not in (MODE_HYBRID, MODE_BTREE_ONLY):
            raise AdvisorError(f"unknown tuning mode {mode!r}")

        generator = CandidateGenerator(
            self.catalog,
            consider_btrees=True,
            consider_columnstores=(mode == MODE_HYBRID),
            consider_primary_csi=(mode == MODE_HYBRID
                                  and consider_primary_csi),
            consider_sorted_csi=(mode == MODE_HYBRID
                                 and consider_sorted_csi),
            csi_mode=csi_candidate_mode,
            size_estimation_method=size_estimation_method,
        )
        generator.allow_multiple_csi = allow_multiple_columnstores
        pool, winners = select_candidates_per_query(
            workload, generator, session)
        merged = merge_candidates(pool, self.catalog)
        del merged  # merged candidates are already in the pool
        # The global search considers per-query winners plus merged
        # candidates; B+ tree losers that no query referenced are pruned,
        # but *all* columnstore candidates stay searchable — a per-query
        # tie between the primary and secondary CSI variant must not
        # eliminate the one with cheaper workload-level maintenance.
        winner_ids = {id(d) for ds in winners.values() for d in ds}
        searchable = [
            d for d in pool.all()
            if id(d) in winner_ids or d.name.startswith("hbm_")
            or d.kind == KIND_CSI
        ]
        if not searchable:
            searchable = pool.all()
        if seed_missing_indexes:
            searchable_ids = {id(d) for d in searchable}
            for descriptor in missing_index_candidates(
                    self.database, self.catalog):
                pooled = pool.add(descriptor)
                if id(pooled) not in searchable_ids:
                    searchable.append(pooled)
                    searchable_ids.add(id(pooled))

        enumerator = GreedyEnumerator(
            workload, session, self.catalog,
            storage_budget_bytes=storage_budget_bytes,
            keep_existing_secondary=keep_existing_secondary,
            allow_multiple_csi=allow_multiple_columnstores,
        )
        result = enumerator.search(searchable)
        return Recommendation(
            mode=mode, chosen=result.chosen, base_cost=result.base_cost,
            estimated_cost=result.final_cost,
            per_statement_costs=result.per_statement_costs,
            storage_bytes=result.storage_bytes,
            elapsed_seconds=time.perf_counter() - started,
            n_candidates=len(pool.all()),
        )

    def _csi_only(self, workload: Workload, session: WhatIfSession,
                  started: float) -> Recommendation:
        """Columnstore-only baseline: a secondary CSI on every referenced
        table that supports one (Section 5.1 design (b))."""
        chosen: List[IndexDescriptor] = []
        for table_name in workload.referenced_tables():
            table = self.database.table(table_name)
            columns = table.schema.columnstore_columns()
            if not columns:
                continue
            estimate = estimate_csi_size(table, columns)
            from repro.optimizer.whatif import hypothetical_columnstore
            chosen.append(hypothetical_columnstore(
                table_name, columns, estimate.column_sizes,
                is_primary=False, name=f"hc_{table_name}_only",
                column_encodings=estimate.column_encodings,
            ))
        enumerator = GreedyEnumerator(workload, session, self.catalog)
        base_config = enumerator.base_configuration()
        base_cost, _ = enumerator.total_cost(base_config)
        config = base_config
        for descriptor in chosen:
            applied = enumerator._apply_candidate(config, descriptor)
            if applied is not None:
                config = applied
        final_cost, per_statement = enumerator.total_cost(config)
        return Recommendation(
            mode=MODE_CSI_ONLY, chosen=chosen, base_cost=base_cost,
            estimated_cost=final_cost,
            per_statement_costs=per_statement,
            storage_bytes=sum(d.size_bytes for d in chosen),
            elapsed_seconds=time.perf_counter() - started,
            n_candidates=len(chosen),
        )

    # ------------------------------------------------------------- apply
    def apply(self, recommendation: Recommendation,
              drop_existing_secondary: bool = True) -> List[str]:
        """Materialize the recommendation: build the recommended indexes.

        Returns the list of created index names. Primary CSI
        recommendations convert the table's primary structure.
        """
        created: List[str] = []
        touched_tables = set()
        if drop_existing_secondary:
            for descriptor in recommendation.chosen:
                table = self.database.table(descriptor.table_name)
                if descriptor.table_name not in touched_tables:
                    table.drop_all_secondary_indexes()
                    touched_tables.add(descriptor.table_name)
        # Primaries first (a primary CSI forbids a secondary CSI).
        ordered = sorted(recommendation.chosen,
                         key=lambda d: not d.is_primary)
        for descriptor in ordered:
            table = self.database.table(descriptor.table_name)
            if descriptor.kind == KIND_CSI and descriptor.is_primary:
                index = table.set_primary_columnstore(name=descriptor.name)
            elif descriptor.kind == KIND_CSI:
                multiple = sum(
                    1 for d in recommendation.chosen
                    if d.kind == KIND_CSI and not d.is_primary
                    and d.table_name == descriptor.table_name) > 1
                index = table.create_secondary_columnstore(
                    descriptor.name, columns=descriptor.csi_columns,
                    sorted_on=descriptor.sorted_on,
                    allow_multiple=multiple)
            elif descriptor.kind == KIND_BTREE:
                index = table.create_secondary_btree(
                    descriptor.name, descriptor.key_columns,
                    included_columns=descriptor.included_columns)
            else:
                raise AdvisorError(
                    f"cannot apply descriptor kind {descriptor.kind!r}")
            created.append(index.name)
        self.catalog.invalidate()
        return created

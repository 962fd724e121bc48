"""Workload-level greedy enumeration: DTA's global search (Section 4.1).

Given the candidate pool (per-query winners plus merged candidates), find
the configuration minimizing total optimizer-estimated workload cost,
subject to an optional storage budget.

The search is greedy: starting from the base configuration (primary
structures only), repeatedly add the candidate with the largest total
cost reduction that still fits the budget, until no candidate improves
the objective. Update statements contribute index-maintenance costs so a
write-heavy workload naturally rejects expensive-to-maintain candidates
(this is how the CH benchmark ends up hybrid rather than CSI-everywhere).

Two engine restrictions shape the space (Section 4.3): at most one
columnstore per table, and a primary CSI candidate *replaces* the
table's primary structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.advisor.workload import Workload, WorkloadStatement
from repro.engine.expressions import extract_column_ranges
from repro.optimizer.catalog import Catalog
from repro.optimizer.plans import KIND_BTREE, KIND_CSI, KIND_HEAP, IndexDescriptor
from repro.optimizer.whatif import Configuration, WhatIfSession
from repro.sql.binder import BoundInsert

#: Safety cap on greedy iterations.
MAX_CHOSEN_INDEXES = 40


@dataclass
class SearchResult:
    """Outcome of the greedy enumeration."""

    chosen: List[IndexDescriptor]
    configuration: Configuration
    base_cost: float
    final_cost: float
    per_statement_costs: List[float]
    storage_bytes: int

    @property
    def improvement_factor(self) -> float:
        """base cost / final cost (higher is better)."""
        if self.final_cost <= 0:
            return float("inf")
        return self.base_cost / self.final_cost


class GreedyEnumerator:
    """Greedy workload-level configuration search (Section 4.1)."""
    def __init__(self, workload: Workload, session: WhatIfSession,
                 catalog: Catalog,
                 storage_budget_bytes: Optional[int] = None,
                 keep_existing_secondary: bool = False,
                 allow_multiple_csi: bool = False):
        self.workload = workload
        self.session = session
        self.catalog = catalog
        self.storage_budget_bytes = storage_budget_bytes
        self.keep_existing_secondary = keep_existing_secondary
        #: Section 4.5 extension: lift the one-CSI-per-table rule.
        self.allow_multiple_csi = allow_multiple_csi
        self._query_cost_cache: Dict[Tuple[int, Tuple[str, ...]], float] = {}

    # ------------------------------------------------------------ objective
    def base_configuration(self) -> Configuration:
        """Starting configuration (primary structures only)."""
        config = self.session.current_configuration()
        config.allow_multiple_csi = self.allow_multiple_csi
        if not self.keep_existing_secondary:
            for table_name in config.indexes:
                config.indexes[table_name] = [
                    d for d in config.indexes[table_name] if d.is_primary
                ]
        return config

    def _config_signature(self, config: Configuration,
                          tables: Sequence[str]) -> Tuple[str, ...]:
        names: List[str] = []
        for table_name in sorted(set(tables)):
            for descriptor in config.indexes.get(table_name, []):
                names.append(f"{table_name}:{descriptor.name}")
        return tuple(names)

    def statement_cost(self, index: int, statement: WorkloadStatement,
                       config: Configuration) -> float:
        """Optimizer-estimated cost of one statement under a config."""
        tables = statement.referenced_tables()
        key = (index, self._config_signature(config, tables))
        if key in self._query_cost_cache:
            return self._query_cost_cache[key]
        if statement.is_select:
            planned = self.session.cost_query(statement.bound, config)
            cost = planned.est_cost
        else:
            cost = self._update_cost(statement, config)
        self._query_cost_cache[key] = cost
        return cost

    def total_cost(self, config: Configuration) -> Tuple[float, List[float]]:
        """Weighted workload cost plus per-statement breakdown."""
        per_statement = []
        total = 0.0
        for i, statement in enumerate(self.workload.statements):
            cost = self.statement_cost(i, statement, config)
            per_statement.append(cost)
            total += cost * statement.weight
        return total, per_statement

    # ------------------------------------------------------- update costs
    def _update_cost(self, statement: WorkloadStatement,
                     config: Configuration) -> float:
        """Locate cost plus per-index maintenance for a DML statement."""
        bound = statement.bound
        cm = self.session.options.cost_model
        table = bound.table
        stats = self.catalog.stats(table.name)
        rows_affected = self._estimate_rows_affected(bound, stats)
        descriptors = config.indexes.get(
            table.name, self.catalog.indexes_for(table.name))

        cost = cm.statement_overhead_ms
        # Locate cost: cheap with any sargable B+ tree, else a scan. An
        # INSERT locates no rows (and has no WHERE to look at).
        if not isinstance(bound, BoundInsert):
            if self._has_sargable_btree(bound, descriptors):
                cost += cm.seek_cpu_ms + rows_affected * cm.row_cpu_ms_per_row
            else:
                cost += stats.row_count * cm.batch_cpu_ms_per_row

        for descriptor in descriptors:
            cost += self._maintenance_cost(descriptor, rows_affected, stats,
                                           cm)
        return cost

    def _maintenance_cost(self, descriptor: IndexDescriptor,
                          rows_affected: float, stats, cm) -> float:
        per_row_log = cm.log_write_ms_per_row
        if descriptor.kind == KIND_HEAP:
            return rows_affected * per_row_log
        if descriptor.kind == KIND_BTREE:
            return rows_affected * (cm.btree_update_cpu_ms_per_row
                                    + per_row_log)
        # Columnstore maintenance (Section 2 / Figure 5): delete handling,
        # delta-store insert, and amortized tuple-mover recompression.
        base = rows_affected * (2 * cm.btree_update_cpu_ms_per_row
                                + per_row_log
                                + cm.csi_compress_cpu_ms_per_row)
        if descriptor.is_primary:
            # Locator scans: each affected row group is scanned once per
            # statement; with uniform spread, min(#groups, rows) groups.
            rowgroup = 32768.0
            n_groups = max(1.0, stats.row_count / rowgroup)
            affected_groups = min(n_groups, rows_affected)
            base += affected_groups * rowgroup * cm.csi_locate_cpu_ms_per_row
        return base

    @staticmethod
    def _estimate_rows_affected(bound, stats) -> float:
        if isinstance(bound, BoundInsert):
            return float(len(bound.rows))
        ranges = extract_column_ranges(bound.where)
        selectivity = stats.selectivity(ranges) if ranges else (
            1.0 if bound.where is None else 0.1)
        rows = max(1.0, stats.row_count * selectivity)
        if bound.top is not None:
            rows = min(rows, float(bound.top))
        return rows

    @staticmethod
    def _has_sargable_btree(bound, descriptors) -> bool:
        ranges = extract_column_ranges(bound.where)
        bare = {name.split(".", 1)[-1] for name in ranges}
        for descriptor in descriptors:
            if descriptor.kind == KIND_BTREE and descriptor.key_columns \
                    and descriptor.key_columns[0] in bare:
                return True
        return False

    # ------------------------------------------------------------- search
    def search(self, candidates: Sequence[IndexDescriptor]) -> SearchResult:
        """Run the greedy enumeration over the candidate pool."""
        config = self.base_configuration()
        base_total, _ = self.total_cost(config)
        current_total = base_total
        chosen: List[IndexDescriptor] = []
        available = list(candidates)
        base_storage = self._storage_of(config)

        while available and len(chosen) < MAX_CHOSEN_INDEXES:
            best: Optional[Tuple[float, IndexDescriptor, Configuration]] = None
            for candidate in available:
                trial = self._apply_candidate(config, candidate)
                if trial is None:
                    continue
                storage = self._storage_of(trial)
                if self.storage_budget_bytes is not None and \
                        storage - base_storage > self.storage_budget_bytes:
                    continue
                trial_total = self._total_with_delta(
                    config, trial, candidate, current_total)
                if trial_total < current_total - 1e-9:
                    gain = current_total - trial_total
                    if best is None or gain > best[0]:
                        best = (gain, candidate, trial)
            if best is None:
                break
            _, winner, config = best
            current_total -= best[0]
            chosen.append(winner)
            available = [c for c in available if c is not winner]

        final_total, per_statement = self.total_cost(config)
        return SearchResult(
            chosen=chosen, configuration=config, base_cost=base_total,
            final_cost=final_total, per_statement_costs=per_statement,
            storage_bytes=self._storage_of(config) - base_storage,
        )

    def _total_with_delta(self, old_config: Configuration,
                          new_config: Configuration,
                          candidate: IndexDescriptor,
                          current_total: float) -> float:
        """Recompute only statements touching the candidate's table."""
        table_name = candidate.table_name
        total = current_total
        for i, statement in enumerate(self.workload.statements):
            if table_name not in statement.referenced_tables():
                continue
            old_cost = self.statement_cost(i, statement, old_config)
            new_cost = self.statement_cost(i, statement, new_config)
            total += (new_cost - old_cost) * statement.weight
        return total

    def _apply_candidate(self, config: Configuration,
                         candidate: IndexDescriptor
                         ) -> Optional[Configuration]:
        """Return a new configuration with the candidate added, or None
        when the addition is invalid/redundant."""
        table_name = candidate.table_name
        descriptors = list(config.indexes.get(table_name, []))
        if any(d.name == candidate.name for d in descriptors):
            return None
        if candidate.kind == KIND_CSI:
            if candidate.is_primary:
                # Replace the primary structure; drop any other CSI.
                descriptors = [d for d in descriptors
                               if not d.is_primary and d.kind != KIND_CSI]
                descriptors.append(candidate)
            else:
                if any(d.kind == KIND_CSI for d in descriptors) \
                        and not self.allow_multiple_csi:
                    return None
                if any(d.name == candidate.name for d in descriptors):
                    return None
                descriptors.append(candidate)
        else:
            if any(_same_btree(d, candidate) for d in descriptors):
                return None
            descriptors.append(candidate)
        new_indexes = dict(config.indexes)
        new_indexes[table_name] = descriptors
        new_config = Configuration(indexes=new_indexes,
                                   allow_multiple_csi=self.allow_multiple_csi)
        try:
            new_config.validate()
        except Exception:
            return None
        return new_config

    def _storage_of(self, config: Configuration) -> int:
        total = 0
        for descriptors in config.indexes.values():
            for descriptor in descriptors:
                total += descriptor.size_bytes
        return total


def _same_btree(a: IndexDescriptor, b: IndexDescriptor) -> bool:
    return (a.kind == KIND_BTREE and b.kind == KIND_BTREE
            and a.key_columns == b.key_columns
            and sorted(a.included_columns) == sorted(b.included_columns))

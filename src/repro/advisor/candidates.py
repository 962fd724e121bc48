"""Candidate index selection: the per-query analysis stage of DTA.

For every SELECT in the workload, generate the indexes that *could* help
it (Section 4.3):

* **B+ tree candidates** from sargable predicates (equality columns
  first, then the range column, remaining referenced columns as INCLUDE),
  plus order-providing candidates keyed on GROUP BY / ORDER BY columns,
  plus join-column candidates for index-nested-loop plans.
* **Columnstore candidates** per referenced table — either all
  columnstore-supported columns (option (ii), the paper's choice) or only
  the referenced ones (option (i), kept for the ablation bench). Tables
  whose columns are all supported also yield a *primary* CSI candidate.

Candidate *selection* then asks the what-if optimizer which of the
generated candidates the best plan actually references, keeping only
those — DTA's "which subset of indexes are referenced by the optimizer"
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.advisor.size_estimation import estimate_csi_size
from repro.advisor.workload import Workload
from repro.core.errors import AdvisorError
from repro.engine.expressions import extract_column_ranges
from repro.optimizer.catalog import Catalog
from repro.optimizer.plans import KIND_CSI, IndexDescriptor
from repro.optimizer.whatif import (
    Configuration,
    WhatIfSession,
    hypothetical_btree,
    hypothetical_columnstore,
)
from repro.sql.binder import BoundSelect
from repro.storage.table import Table

#: Cap on INCLUDE width to avoid absurdly wide covering candidates.
MAX_INCLUDED_COLUMNS = 12

CSI_MODE_ALL = "all"
CSI_MODE_REFERENCED = "referenced"


@dataclass
class CandidateSet:
    """All candidates generated for a workload, keyed by name."""

    btrees: Dict[str, IndexDescriptor] = field(default_factory=dict)
    columnstores: Dict[str, IndexDescriptor] = field(default_factory=dict)

    def all(self) -> List[IndexDescriptor]:
        """Every pooled candidate (B+ trees then columnstores)."""
        return list(self.btrees.values()) + list(self.columnstores.values())

    def add(self, descriptor: IndexDescriptor) -> IndexDescriptor:
        """Add deduplicating on structural identity; returns the canonical
        descriptor. Names are uniquified: two structurally different
        candidates may be generated with the same derived name (same key
        columns, different INCLUDE lists)."""
        pool = (self.columnstores if descriptor.kind == KIND_CSI
                else self.btrees)
        signature = _signature(descriptor)
        for existing in pool.values():
            if _signature(existing) == signature:
                return existing
        if descriptor.name in pool:
            suffix = 2
            while f"{descriptor.name}_{suffix}" in pool:
                suffix += 1
            descriptor.name = f"{descriptor.name}_{suffix}"
        pool[descriptor.name] = descriptor
        return descriptor


def _signature(descriptor: IndexDescriptor) -> Tuple:
    if descriptor.kind == KIND_CSI:
        return (descriptor.table_name, "csi", descriptor.is_primary,
                descriptor.sorted_on,
                tuple(sorted(descriptor.csi_columns)))
    return (descriptor.table_name, "btree", tuple(descriptor.key_columns),
            tuple(sorted(descriptor.included_columns)))


class CandidateGenerator:
    """Generates hypothetical candidates for one workload."""

    def __init__(
        self,
        catalog: Catalog,
        consider_btrees: bool = True,
        consider_columnstores: bool = True,
        consider_primary_csi: bool = True,
        consider_sorted_csi: bool = False,
        csi_mode: str = CSI_MODE_ALL,
        size_estimation_method: str = "run_modelling",
        size_sampling_ratio: float = 0.1,
    ):
        if csi_mode not in (CSI_MODE_ALL, CSI_MODE_REFERENCED):
            raise AdvisorError(f"unknown csi candidate mode {csi_mode!r}")
        self.catalog = catalog
        self.consider_btrees = consider_btrees
        self.consider_columnstores = consider_columnstores
        self.consider_primary_csi = consider_primary_csi
        #: Section 4.5 extension: sorted (Vertica-projection-style) CSI
        #: candidates, one per range-predicate column; candidate
        #: selection "needs to be aware of sort requirements in a query".
        self.consider_sorted_csi = consider_sorted_csi
        #: Section 4.5 extension: allow several columnstores per table
        #: (Vertica-style projections); lifts the engine's one-CSI rule.
        self.allow_multiple_csi = False
        self.csi_mode = csi_mode
        self.size_estimation_method = size_estimation_method
        self.size_sampling_ratio = size_sampling_ratio
        self._csi_size_cache: Dict[Tuple[str, Tuple[str, ...]],
                                   Dict[str, int]] = {}

    # ----------------------------------------------------------- per query
    def candidates_for_query(self, bound: BoundSelect,
                             pool: CandidateSet) -> List[IndexDescriptor]:
        """Generate (and pool) the candidates relevant to one query."""
        out: List[IndexDescriptor] = []
        for bound_table in bound.tables:
            table = bound_table.table
            alias = bound_table.alias
            if self.consider_btrees:
                for descriptor in self._btree_candidates(bound, alias, table):
                    out.append(pool.add(descriptor))
            if self.consider_columnstores:
                for descriptor in self._csi_candidates(bound, alias, table):
                    out.append(pool.add(descriptor))
        return out

    # -------------------------------------------------------------- btrees
    def _btree_candidates(self, bound: BoundSelect, alias: str,
                          table: Table) -> List[IndexDescriptor]:
        stats = self.catalog.stats(table.name)
        column_bytes = self.catalog.column_bytes(table.name)
        referenced = bound.referenced_columns(alias)
        prefix = alias + "."
        ranges = {
            name[len(prefix):]: r
            for name, r in extract_column_ranges(bound.where).items()
            if name.startswith(prefix)
        }
        equality = [c for c, r in ranges.items() if r.is_point]
        inequality = [c for c, r in ranges.items() if not r.is_point]
        join_cols = []
        for edge in bound.join_edges:
            if edge.left_alias == alias:
                join_cols.append(edge.left_column)
            if edge.right_alias == alias:
                join_cols.append(edge.right_column)
        group_cols = [
            q.split(".", 1)[1] for q in bound.group_by
            if q.startswith(prefix)
        ]
        order_cols = [
            q.split(".", 1)[1] for q, desc in bound.order_by
            if q.startswith(prefix) and not desc
        ]

        candidates: List[IndexDescriptor] = []

        def make(keys: List[str], label: str) -> None:
            """Emit one covering B+ tree candidate for the given keys."""
            if not keys:
                return
            include = [c for c in referenced if c not in keys]
            include = include[:MAX_INCLUDED_COLUMNS]
            candidates.append(hypothetical_btree(
                table.name, keys, include, n_rows=stats.row_count,
                column_bytes=column_bytes,
                name=f"hb_{table.name}_{label}_{'_'.join(keys)[:40]}",
            ))

        # Seek candidate: equality columns first, then one range column.
        seek_keys = list(dict.fromkeys(equality + inequality[:1]))
        make(seek_keys, "seek")
        # Join candidates: one per join column (for INL inner sides).
        for column in dict.fromkeys(join_cols):
            make([column], "join")
            if seek_keys and column not in seek_keys:
                make([column] + seek_keys, "joinseek")
        # Order-providing candidates.
        make(list(dict.fromkeys(group_cols)), "group")
        make(list(dict.fromkeys(order_cols)), "order")
        return candidates

    # ---------------------------------------------------------------- csis
    def _csi_candidates(self, bound: BoundSelect, alias: str,
                        table: Table) -> List[IndexDescriptor]:
        supported = table.schema.columnstore_columns()
        if not supported:
            return []
        if self.csi_mode == CSI_MODE_REFERENCED:
            columns = [c for c in bound.referenced_columns(alias)
                       if c in supported]
            if not columns:
                return []
        else:
            columns = supported
        column_sizes = self._csi_sizes(table, columns)
        candidates = [hypothetical_columnstore(
            table.name, columns, column_sizes,
            is_primary=False, name=f"hc_{table.name}_sec",
        )]
        if self.consider_primary_csi and \
                not table.schema.has_unsupported_columns():
            all_sizes = self._csi_sizes(table, supported)
            candidates.append(hypothetical_columnstore(
                table.name, supported, all_sizes,
                is_primary=True, name=f"hc_{table.name}_pri",
            ))
        if self.consider_sorted_csi:
            candidates.extend(
                self._sorted_csi_candidates(bound, alias, table, columns,
                                            column_sizes))
        return candidates

    def _sorted_csi_candidates(self, bound: BoundSelect, alias: str,
                               table: Table, columns, column_sizes
                               ) -> List[IndexDescriptor]:
        """Sorted-CSI candidates (Section 4.5): one per column carrying a
        non-point sargable range in this query, enabling aggressive
        segment elimination on that column (Figure 2's sorted build)."""
        prefix = alias + "."
        ranges = {
            name[len(prefix):]: r
            for name, r in extract_column_ranges(bound.where).items()
            if name.startswith(prefix)
        }
        out: List[IndexDescriptor] = []
        for column, column_range in ranges.items():
            if column_range.is_point or column not in columns:
                continue
            out.append(hypothetical_columnstore(
                table.name, columns, column_sizes, is_primary=False,
                sorted_on=column,
                name=f"hc_{table.name}_sorted_{column}",
            ))
        return out

    def _csi_sizes(self, table: Table,
                   columns: Sequence[str]) -> Dict[str, int]:
        key = (table.name, tuple(columns))
        if key not in self._csi_size_cache:
            self._csi_size_cache[key] = estimate_csi_size(
                table, columns, method=self.size_estimation_method,
                sampling_ratio=self.size_sampling_ratio).column_sizes
        return self._csi_size_cache[key]


def missing_index_candidates(database, catalog: Catalog
                             ) -> List[IndexDescriptor]:
    """B+ tree candidates seeded from the missing-index DMV.

    Each accumulated :class:`~repro.storage.telemetry.MissingIndexDetails`
    observation (surfaced as ``dm_db_missing_index_details``) becomes one
    hypothetical covering B+ tree: equality columns first, then the
    inequality columns, with the observed output columns as INCLUDE —
    the same shape SQL Server's missing-index DMVs suggest. Observations
    for dropped tables or stale columns are skipped.
    """
    out: List[IndexDescriptor] = []
    for detail in database.telemetry.missing_indexes():
        if not database.has_table(detail.table_name):
            continue
        keys = [c for c in detail.key_columns]
        if not keys:
            continue
        table = database.table(detail.table_name)
        known = {column.name for column in table.schema.columns}
        if any(key not in known for key in keys):
            continue
        include = [c for c in detail.included_columns
                   if c in known and c not in keys]
        include = include[:MAX_INCLUDED_COLUMNS]
        stats = catalog.stats(detail.table_name)
        column_bytes = catalog.column_bytes(detail.table_name)
        out.append(hypothetical_btree(
            detail.table_name, keys, include, n_rows=stats.row_count,
            column_bytes=column_bytes,
            name=f"mi_{detail.table_name}_{'_'.join(keys)[:40]}",
        ))
    return out


def select_candidates_per_query(
    workload: Workload,
    generator: CandidateGenerator,
    session: WhatIfSession,
) -> Tuple[CandidateSet, Dict[int, List[IndexDescriptor]]]:
    """DTA's candidate-selection stage.

    For each SELECT: generate candidates, cost the query with *all* of
    them visible, and keep the hypothetical indexes the optimizer's best
    plan actually references. Returns the pooled candidate set and a map
    from statement index to its winning candidates.
    """
    pool = CandidateSet()
    winners: Dict[int, List[IndexDescriptor]] = {}
    for i, statement in enumerate(workload.statements):
        if not statement.is_select:
            continue
        bound = statement.bound
        generated = generator.candidates_for_query(bound, pool)
        if not generated:
            winners[i] = []
            continue
        config = session.configuration_with(_dedupe(generated))
        config.allow_multiple_csi = generator.allow_multiple_csi
        _resolve_csi_conflicts(config,
                               allow_multiple=generator.allow_multiple_csi)
        planned = session.cost_query(bound, config)
        winners[i] = [
            descriptor for descriptor in planned.referenced_indexes()
            if descriptor.hypothetical
        ]
    return pool, winners


def _dedupe(descriptors: Sequence[IndexDescriptor]) -> List[IndexDescriptor]:
    seen: Set[int] = set()
    out = []
    for descriptor in descriptors:
        if id(descriptor) not in seen:
            seen.add(id(descriptor))
            out.append(descriptor)
    return out


def _resolve_csi_conflicts(config: Configuration,
                           allow_multiple: bool = False) -> None:
    """Honour the engine rules inside a per-query costing configuration.

    A hypothetical primary CSI replaces the table's current primary
    structure (and, under the one-CSI rule, displaces every other
    columnstore). Without a primary candidate, at most one secondary CSI
    survives under the one-CSI rule — preferring a sorted variant (the
    most specialised) over the plain one. With ``allow_multiple``
    (Section 4.5) all secondary CSIs stay visible.
    """
    for table_name, descriptors in config.indexes.items():
        hypo_primary = [d for d in descriptors
                        if d.hypothetical and d.is_primary]
        if hypo_primary:
            keep = hypo_primary[-1]
            config.indexes[table_name] = [
                d for d in descriptors
                if d is keep or (
                    not d.is_primary
                    and (d.kind != KIND_CSI or allow_multiple))
            ]
            continue
        if allow_multiple:
            continue
        csis = [d for d in descriptors if d.kind == KIND_CSI]
        if len(csis) <= 1:
            continue
        sorted_variants = [d for d in csis if d.sorted_on is not None]
        keep = sorted_variants[0] if sorted_variants else csis[0]
        config.indexes[table_name] = [
            d for d in descriptors if d.kind != KIND_CSI or d is keep
        ]

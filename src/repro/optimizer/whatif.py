"""What-if API: hypothetical index simulation for the tuning advisor.

Recreates the AutoAdmin what-if interface (Chaudhuri & Narasayya 1998)
with the paper's Section 4.2 extensions for columnstores:

* hypothetical indexes are metadata-only :class:`IndexDescriptor` entries
  the optimizer treats exactly like materialized ones;
* hypothetical **columnstore** descriptors carry *per-column sizes*
  (estimated by the advisor's size-estimation module), because the
  engine reads only the referenced columns of a CSI and the optimizer
  needs per-column sizes to cost that access.

A :class:`WhatIfSession` owns a set of hypothetical descriptors and can
cost any statement under a *configuration* — a chosen subset of real and
hypothetical indexes per table — returning the estimated plan without
executing anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.errors import CatalogError, OptimizerError
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostingOptions
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plans import (
    KIND_BTREE,
    KIND_CSI,
    KIND_HEAP,
    IndexDescriptor,
    PlannedQuery,
)
from repro.sql.binder import Binder, BoundSelect
from repro.storage.database import Database

_hypo_counter = itertools.count(1)


def hypothetical_btree(
    table_name: str,
    key_columns: Sequence[str],
    included_columns: Sequence[str] = (),
    n_rows: int = 0,
    column_bytes: Optional[Dict[str, int]] = None,
    name: Optional[str] = None,
) -> IndexDescriptor:
    """Create a hypothetical secondary B+ tree descriptor.

    Size is estimated from entry width x rows (B+ trees need no
    compression modelling, unlike CSIs).
    """
    column_bytes = column_bytes or {}
    entry = sum(column_bytes.get(c, 8) for c in key_columns)
    entry += sum(column_bytes.get(c, 8) for c in included_columns)
    entry += 8
    return IndexDescriptor(
        name=name or f"hypo_btree_{next(_hypo_counter)}",
        table_name=table_name, kind=KIND_BTREE, is_primary=False,
        key_columns=list(key_columns),
        included_columns=list(included_columns),
        size_bytes=int(n_rows * entry * 1.02), hypothetical=True,
    )


def hypothetical_columnstore(
    table_name: str,
    columns: Sequence[str],
    column_sizes: Dict[str, int],
    is_primary: bool = False,
    sorted_on: Optional[str] = None,
    name: Optional[str] = None,
    column_encodings: Optional[Dict[str, str]] = None,
) -> IndexDescriptor:
    """Create a hypothetical columnstore descriptor.

    ``column_sizes`` must contain the estimated compressed per-column
    sizes (from :mod:`repro.advisor.size_estimation`) — the what-if
    extension of Section 4.2. ``column_encodings`` optionally records
    the compression scheme each size estimate assumed, so Kimura-style
    compression-aware costing (``CostingOptions.compression_aware``)
    can charge decode CPU per scheme when costing the hypothetical.
    """
    missing = [c for c in columns if c not in column_sizes]
    if missing:
        raise CatalogError(
            f"hypothetical columnstore needs per-column sizes; missing "
            f"{missing}")
    return IndexDescriptor(
        name=name or f"hypo_csi_{next(_hypo_counter)}",
        table_name=table_name, kind=KIND_CSI, is_primary=is_primary,
        csi_columns=list(columns),
        size_bytes=sum(column_sizes[c] for c in columns),
        column_sizes=dict(column_sizes), sorted_on=sorted_on,
        column_encodings=dict(column_encodings or {}),
        hypothetical=True,
    )


@dataclass
class Configuration:
    """A candidate physical design: the descriptors visible per table.

    ``indexes`` maps table name to the full list of descriptors the
    optimizer may use for that table (always including some primary
    structure). Tables absent from the map keep their current design.

    ``allow_multiple_csi`` lifts the one-columnstore-per-table engine
    restriction (Section 4.5's multiple-projections extension).
    """

    indexes: Dict[str, List[IndexDescriptor]]
    allow_multiple_csi: bool = False

    def size_bytes(self) -> int:
        """Approximate on-disk size in bytes."""
        total = 0
        for descriptors in self.indexes.values():
            for descriptor in descriptors:
                if not descriptor.is_primary or descriptor.kind != KIND_HEAP:
                    total += descriptor.size_bytes
        return total

    def validate(self) -> None:
        """Enforce engine restrictions: at most one columnstore per table
        (unless ``allow_multiple_csi`` lifts the rule)."""
        for table_name, descriptors in self.indexes.items():
            csis = [d for d in descriptors if d.kind == KIND_CSI]
            if len(csis) > 1 and not self.allow_multiple_csi:
                raise CatalogError(
                    f"table {table_name!r}: only one columnstore index is "
                    f"allowed per table")
            primaries = [d for d in descriptors if d.is_primary]
            if len(primaries) != 1:
                raise CatalogError(
                    f"table {table_name!r}: exactly one primary structure "
                    f"required, got {len(primaries)}")


class WhatIfSession:
    """Costs statements under hypothetical configurations."""

    def __init__(self, database: Database, catalog: Optional[Catalog] = None,
                 options: Optional[CostingOptions] = None):
        self.database = database
        self.catalog = catalog or Catalog(database)
        self.options = options or CostingOptions(
            cost_model=database.cost_model)
        self.binder = Binder(database)

    # ------------------------------------------------------------- costing
    def cost_query(self, bound_or_sql, configuration: Configuration
                   ) -> PlannedQuery:
        """Optimizer-estimated plan for a query under ``configuration``."""
        configuration.validate()
        bound = self._bind(bound_or_sql)
        optimizer = Optimizer(
            self.catalog, self.options,
            design_override=configuration.indexes,
        )
        return optimizer.optimize(bound)

    def cost_query_current_design(self, bound_or_sql) -> PlannedQuery:
        """Cost a query against the materialized design only."""
        bound = self._bind(bound_or_sql)
        return Optimizer(self.catalog, self.options).optimize(bound)

    def _bind(self, bound_or_sql) -> BoundSelect:
        if isinstance(bound_or_sql, BoundSelect):
            return bound_or_sql
        bound = self.binder.bind(
            self.database.statement_cache.statement(bound_or_sql))
        if not isinstance(bound, BoundSelect):
            raise OptimizerError("what-if costing supports SELECTs")
        return bound

    # ----------------------------------------------------- configurations
    def current_configuration(self) -> Configuration:
        """Configuration mirroring the materialized design."""
        indexes = {
            table.name: list(self.catalog.indexes_for(table.name))
            for table in self.database.tables()
        }
        return Configuration(indexes=indexes)

    def configuration_with(
        self,
        extra: Iterable[IndexDescriptor],
        drop_secondary: bool = False,
    ) -> Configuration:
        """Current design plus ``extra`` descriptors (optionally dropping
        existing secondary indexes first)."""
        config = self.current_configuration()
        if drop_secondary:
            for table_name in config.indexes:
                config.indexes[table_name] = [
                    d for d in config.indexes[table_name] if d.is_primary
                ]
        for descriptor in extra:
            config.indexes.setdefault(descriptor.table_name, []).append(
                descriptor)
        return config

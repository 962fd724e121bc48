"""Synthetic micro-benchmark data (Section 3.1).

"Synthetic data set consists of tables with different numbers of columns.
Each column contains uniformly distributed 32-bit integers in range from
0 to 2^31 - 1 (similar to Kester et al.)." — scaled down in row count,
with the same uniform-domain property so that predicate selectivity maps
linearly onto the value domain.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.errors import AdvisorError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT
from repro.storage.database import Database
from repro.storage.table import Table

DOMAIN = 2 ** 31 - 1

#: The selectivity grid of Figures 1, 2, 3, 12, 13 (percent).
PAPER_SELECTIVITIES_PCT = (
    0.0, 0.00001, 0.0001, 0.001, 0.01, 0.05, 0.09, 0.4, 1.0, 10.0, 30.0,
    50.0, 100.0,
)


def make_uniform_table(
    database: Database,
    name: str,
    n_rows: int,
    n_columns: int = 1,
    seed: int = 0,
    sorted_on: Optional[str] = None,
    domain: int = DOMAIN,
) -> Table:
    """Create ``name`` with ``n_columns`` uniform integer columns.

    Columns are named ``col1..colN``. When ``sorted_on`` names a column,
    rows are loaded in that column's sorted order — the setup that lets a
    columnstore build produce disjoint per-segment min/max ranges
    (the "CSI sorted" variant of Figure 2).
    """
    if n_columns < 1:
        raise AdvisorError("need at least one column")
    columns = [Column(f"col{i + 1}", INT, nullable=False)
               for i in range(n_columns)]
    table = database.create_table(TableSchema(name, columns))
    rng = random.Random(seed)
    rows = [
        tuple(rng.randrange(domain) for _ in range(n_columns))
        for _ in range(n_rows)
    ]
    if sorted_on is not None:
        ordinal = table.schema.ordinal(sorted_on)
        rows.sort(key=lambda row: row[ordinal])
    table.bulk_load(rows)
    return table


def selectivity_to_threshold(selectivity_pct: float,
                             domain: int = DOMAIN) -> int:
    """Predicate constant for ``col < X`` hitting ``selectivity_pct`` of a
    uniform column (the paper's Q1 parameterization)."""
    fraction = max(0.0, min(100.0, selectivity_pct)) / 100.0
    return int(domain * fraction)


def q1_scan(selectivity_pct: float, table: str = "micro",
            column: str = "col1") -> str:
    """Q1: SELECT sum(col1) FROM table WHERE col1 < {threshold}."""
    threshold = selectivity_to_threshold(selectivity_pct)
    return f"SELECT sum({column}) FROM {table} WHERE {column} < {threshold}"


def q2_sort(selectivity_pct: float, table: str = "micro2") -> str:
    """Q2: filter on col1, explicit ORDER BY col2 (Figure 3)."""
    threshold = selectivity_to_threshold(selectivity_pct)
    return (f"SELECT col1, col2 FROM {table} WHERE col1 < {threshold} "
            f"ORDER BY col2")


def q3_group_by(table: str = "micro3") -> str:
    """Q3: GROUP BY col1 with sum(col2) (Figure 4)."""
    return f"SELECT col1, sum(col2) FROM {table} GROUP BY col1"


def make_group_table(
    database: Database,
    name: str,
    n_rows: int,
    n_groups: int,
    seed: int = 0,
) -> Table:
    """Two-column table where col1 has exactly ``n_groups`` distinct
    values (Figure 4's group-count sweep)."""
    table = database.create_table(TableSchema(name, [
        Column("col1", INT, nullable=False),
        Column("col2", INT, nullable=False),
    ]))
    rng = random.Random(seed)
    rows = [
        (rng.randrange(n_groups), rng.randrange(DOMAIN))
        for _ in range(n_rows)
    ]
    table.bulk_load(rows)
    return table

"""Table and column statistics for cardinality estimation.

The optimizer estimates predicate selectivities from equi-depth histograms
plus distinct counts, built either from full data or from a block-level
sample (the advisor uses sampling for scalability, Section 4.4). Estimation
error is *intentional and realistic*: the paper notes optimizer
misestimates cause some hybrid recommendations to be sub-optimal in
measured cost (Figure 9's speedups below 1).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.errors import OptimizerError
from repro.engine.expressions import ColumnRange
from repro.storage.compression import sorted_distinct
from repro.storage.table import Table

HISTOGRAM_BUCKETS = 64


@dataclass
class ColumnStats:
    """Statistics for one column."""

    n_rows: int
    n_nulls: int
    n_distinct: int
    min_value: object
    max_value: object
    #: Equi-depth bucket upper bounds (numeric columns only).
    bucket_bounds: List[float] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        """Fraction of NULL values in the column."""
        return self.n_nulls / self.n_rows if self.n_rows else 0.0

    def equality_selectivity(self, value: object) -> float:
        """P(column = value)."""
        if self.n_rows == 0 or self.n_distinct == 0:
            return 0.0
        if self.outside_range(value):
            return 0.0
        return (1.0 - self.null_fraction) / self.n_distinct

    def outside_range(self, value: object) -> bool:
        """Whether ``value`` is a number outside ``[min, max]``: the only
        way :meth:`equality_selectivity` depends on the value (plan reuse
        keys its plans by this bit)."""
        return (isinstance(value, (int, float)) and self.min_value is not None
                and (value < self.min_value or value > self.max_value))

    def range_selectivity(self, column_range: ColumnRange) -> float:
        """P(low <= column <= high) from the histogram."""
        if self.n_rows == 0:
            return 0.0
        if column_range.is_point:
            return self.equality_selectivity(column_range.low)
        low, high = column_range.low, column_range.high
        if not self.bucket_bounds:
            # Non-numeric column: fall back to a coarse guess.
            return 0.3
        frac_low = 0.0 if low is None else self._cdf(low)
        frac_high = 1.0 if high is None else self._cdf(high)
        selectivity = max(0.0, frac_high - frac_low)
        # Nudge for inclusivity of point-ish boundaries.
        if low is not None and column_range.low_inclusive:
            selectivity += self.equality_selectivity(low) * 0.5
        return min(1.0, selectivity * (1.0 - self.null_fraction))

    def _cdf(self, value: object) -> float:
        """Fraction of non-null values <= value, via equi-depth buckets."""
        bounds = self.bucket_bounds
        if not bounds:
            return 0.5
        if not isinstance(value, (int, float)):
            return 0.5
        position = bisect.bisect_left(bounds, value)
        if position >= len(bounds):
            return 1.0
        # Interpolate within the bucket.
        bucket_low = bounds[position - 1] if position > 0 else self.min_value
        bucket_high = bounds[position]
        if bucket_high == bucket_low:
            within = 1.0
        else:
            within = (value - bucket_low) / (bucket_high - bucket_low)
            within = min(1.0, max(0.0, within))
        return (position + within) / len(bounds)


@dataclass
class TableStats:
    """Statistics for one table."""

    row_count: int
    columns: Dict[str, ColumnStats]

    def column(self, name: str) -> ColumnStats:
        """Values of one result/batch/stats column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise OptimizerError(f"no statistics for column {name!r}") from None

    def selectivity(self, ranges: Dict[str, ColumnRange]) -> float:
        """Combined selectivity of per-column ranges, assuming
        independence (the textbook assumption, with its textbook errors)."""
        selectivity = 1.0
        for name, column_range in ranges.items():
            bare = name.split(".", 1)[1] if "." in name else name
            if bare not in self.columns:
                continue
            selectivity *= self.column(bare).range_selectivity(column_range)
        return selectivity


def build_column_stats(values: Sequence[object]) -> ColumnStats:
    """Compute stats for one column's values: a sequence, or a lossless
    column array (an int64 or float64 one is numeric and NULL-free)."""
    if isinstance(values, np.ndarray):
        if values.dtype != object and len(values):
            arr = values.astype(np.float64)
            return ColumnStats(
                len(arr), 0, len(sorted_distinct(arr)),
                float(arr.min()), float(arr.max()), _equidepth_bounds(arr),
            )
        values = values.tolist()
    n_rows = len(values)
    non_null = [v for v in values if v is not None]
    n_nulls = n_rows - len(non_null)
    if not non_null:
        return ColumnStats(n_rows, n_nulls, 0, None, None)
    numeric = isinstance(non_null[0], (int, float)) and not isinstance(
        non_null[0], bool)
    if numeric:
        arr = np.asarray(non_null, dtype=np.float64)
        n_distinct = len(sorted_distinct(arr))
        bounds = _equidepth_bounds(arr)
        return ColumnStats(
            n_rows, n_nulls, n_distinct,
            float(arr.min()), float(arr.max()), bounds,
        )
    uniques = set(non_null)
    return ColumnStats(n_rows, n_nulls, len(uniques),
                       min(non_null), max(non_null))


def _equidepth_bounds(arr: np.ndarray) -> List[float]:
    if len(arr) == 0:
        return []
    quantiles = np.linspace(0, 1, HISTOGRAM_BUCKETS + 1)[1:]
    return np.quantile(arr, quantiles).tolist()


def build_table_stats(table: Table,
                      sample_rows: Optional[int] = None,
                      seed: int = 42) -> TableStats:
    """Build statistics for ``table``.

    ``sample_rows`` caps how many rows are inspected (uniform random
    sample); counts are scaled back to the full table like a real
    statistics build. None inspects everything.
    """
    _, rows = table.columns_by_rid()
    n = len(rows)
    scale = 1.0
    if sample_rows is not None and n > sample_rows:
        rng = np.random.default_rng(seed)
        rows = rows.take(rng.choice(n, size=sample_rows, replace=False))
        scale = n / sample_rows
    columns: Dict[str, ColumnStats] = {}
    for ordinal, column in enumerate(table.schema.columns):
        values = rows.column(ordinal)
        stats = build_column_stats(values)
        if scale != 1.0:
            stats.n_rows = n
            stats.n_nulls = int(stats.n_nulls * scale)
            stats.n_distinct = _scale_distinct(values.tolist(),
                                               stats.n_distinct, n)
        columns[column.name] = stats
    return TableStats(row_count=n, columns=columns)


def _scale_distinct(sample_values: Sequence[object], sample_distinct: int,
                    total_rows: int) -> int:
    """Scale a sampled distinct count to the full table.

    Only values seen exactly once in the sample are scaled up (the GEE
    idea the paper adapts in Section 4.4): a low-cardinality column whose
    every value repeats in the sample keeps its observed distinct count,
    avoiding the n_nationkey-style overestimation.
    """
    counts: Dict[object, int] = {}
    for value in sample_values:
        counts[value] = counts.get(value, 0) + 1
    f1 = sum(1 for c in counts.values() if c == 1)
    repeated = sample_distinct - f1
    if len(sample_values) == 0:
        return sample_distinct
    factor = total_rows / len(sample_values)
    return min(total_rows, int(f1 * factor + repeated))

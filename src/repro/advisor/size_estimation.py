"""Columnstore size estimation from samples (Section 4.4).

To cost a hypothetical columnstore, DTA must estimate the compressed
per-column sizes *without building the index*. Two estimators from the
paper are implemented:

* **Black-box**: build the real columnstore compression on a sample and
  scale each column's compressed size by the inverse of the sampling
  ratio. Simple and robust to compression-algorithm changes, but
  overestimates low-cardinality columns badly (the ``n_nationkey``
  example: 25 distinct values can never produce more than 25 runs per
  row group no matter how many rows there are).

* **Run modelling with distinct-value estimation (GEE)**: mimic the
  engine's greedy sort-column selection using estimated distinct counts,
  bound each column's run count by the estimated number of distinct
  combinations of the sort-prefix columns, and price RLE/dictionary/
  bit-packing from those estimates. Cheaper (no sort of the sample, no
  index build) and usually more accurate.

Samples come from **block-level sampling** with the bias correction the
paper cites (Chaudhuri et al. 1998): sampling whole blocks of rows that
are sorted by a clustered key correlates values within a block, so the
estimator consumes per-block duplicate statistics rather than treating
the sample as uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import AdvisorError
from repro.core.types import TypeKind
from repro.engine.batch import _column_array
from repro.storage.compression import compress_rowgroup
from repro.storage.table import Table

_RUN_HEADER_BYTES = 4
DEFAULT_BLOCK_ROWS = 64


@dataclass
class SizeEstimate:
    """Result of one estimation: per-column and total bytes."""

    column_sizes: Dict[str, int]
    method: str
    sample_rows: int
    sampling_ratio: float

    @property
    def total_bytes(self) -> int:
        """Sum of the per-column size estimates."""
        return sum(self.column_sizes.values())


def block_sample(table: Table, sampling_ratio: float,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 seed: int = 7) -> List[Tuple[object, ...]]:
    """Sample whole blocks of ``block_rows`` consecutive rows.

    Emulates page-level sampling of the base table: rows that are
    physically adjacent (and therefore correlated when the table is
    clustered) arrive together.
    """
    if not 0 < sampling_ratio <= 1:
        raise AdvisorError("sampling_ratio must be in (0, 1]")
    rows = [row for _, row in table.iter_rows()]
    n = len(rows)
    if n == 0:
        return []
    if sampling_ratio >= 1.0:
        return rows
    n_blocks = max(1, n // block_rows)
    want_blocks = max(1, int(round(n_blocks * sampling_ratio)))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n_blocks, size=min(want_blocks, n_blocks),
                        replace=False)
    sample: List[Tuple[object, ...]] = []
    for block in sorted(chosen.tolist()):
        start = block * block_rows
        sample.extend(rows[start:start + block_rows])
    return sample


def gee_distinct_estimate(values: Sequence[object], total_rows: int,
                          scaling: str = "sqrt") -> int:
    """GEE distinct-value estimator from a sample.

    ``f1`` (values seen exactly once in the sample) are scaled up —
    by ``sqrt(N/n)`` for the classical GEE bound, or linearly by ``N/n``
    for the simplified variant the paper's prose describes; values seen
    more than once are counted once.
    """
    n = len(values)
    if n == 0:
        return 0
    counts: Dict[object, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    f1 = sum(1 for c in counts.values() if c == 1)
    rest = len(counts) - f1
    if n >= total_rows:
        return len(counts)
    if scaling == "sqrt":
        factor = math.sqrt(total_rows / n)
    elif scaling == "linear":
        factor = total_rows / n
    else:
        raise AdvisorError(f"unknown GEE scaling {scaling!r}")
    return min(total_rows, int(round(f1 * factor + rest)))


def _bits_for(n_distinct: int) -> int:
    if n_distinct <= 1:
        return 1
    return max(1, math.ceil(math.log2(n_distinct)))


def _dictionary_bytes(values: Sequence[object], est_distinct: int) -> int:
    """Estimated dictionary size for a string column."""
    non_null = [v for v in values if v is not None]
    if not non_null:
        return 0
    avg_len = sum(len(str(v)) for v in non_null) / len(non_null)
    return int(est_distinct * (avg_len + 4))


def estimate_blackbox(table: Table, columns: Sequence[str],
                      sampling_ratio: float = 0.1,
                      seed: int = 7) -> SizeEstimate:
    """Black-box estimator: compress the sample, scale linearly.

    Runs the engine's actual row-group compression (greedy sort + RLE/
    dictionary/bit-pack) on the sampled rows.
    """
    sample = block_sample(table, sampling_ratio, seed=seed)
    if not sample:
        return SizeEstimate({c: 0 for c in columns}, "blackbox", 0,
                            sampling_ratio)
    ordinals = table.schema.ordinals(columns)
    column_data = {
        column: _column_array([row[ordinal] for row in sample])
        for column, ordinal in zip(columns, ordinals)
    }
    rids = np.arange(len(sample))
    group = compress_rowgroup(table.schema, column_data, rids)
    actual_ratio = len(sample) / max(1, table.row_count)
    scale = 1.0 / actual_ratio
    sizes = {
        column: int(group.column(column).size_bytes * scale)
        for column in columns
    }
    return SizeEstimate(sizes, "blackbox", len(sample), actual_ratio)


def estimate_run_modelling(table: Table, columns: Sequence[str],
                           sampling_ratio: float = 0.1,
                           gee_scaling: str = "sqrt",
                           seed: int = 7) -> SizeEstimate:
    """Run-modelling estimator using GEE distinct counts (Section 4.4).

    1. Estimate each column's distinct count with GEE.
    2. Greedily order columns by fewest estimated runs — i.e. fewest
       estimated distinct values, mirroring the engine's sort selection.
    3. The number of runs of the k-th sort column is bounded by the
       estimated number of distinct *combinations* of sort columns
       1..k (Figure 8's ``<B, A>`` example); estimate those combination
       counts with GEE over tuple values from the sample.
    4. Price each column as min(RLE from runs, bit-packed codes, raw),
       plus dictionary overhead for string columns.
    """
    sample = block_sample(table, sampling_ratio, seed=seed)
    total_rows = table.row_count
    if not sample or total_rows == 0:
        return SizeEstimate({c: 0 for c in columns}, "run_modelling", 0,
                            sampling_ratio)
    ordinals = table.schema.ordinals(columns)
    by_column = {
        column: [row[ordinal] for row in sample]
        for column, ordinal in zip(columns, ordinals)
    }
    distinct = {
        column: max(1, gee_distinct_estimate(values, total_rows, gee_scaling))
        for column, values in by_column.items()
    }
    # Greedy sort order: fewest estimated distinct values first.
    order = sorted(columns, key=lambda c: (distinct[c], c))

    sizes: Dict[str, int] = {}
    prefix_values: Optional[List[Tuple[object, ...]]] = None
    for column in order:
        values = by_column[column]
        if prefix_values is None:
            prefix_values = [(v,) for v in values]
        else:
            prefix_values = [
                prefix + (v,) for prefix, v in zip(prefix_values, values)
            ]
        est_runs = gee_distinct_estimate(prefix_values, total_rows,
                                         gee_scaling)
        est_runs = max(1, min(est_runs, total_rows))
        col_type = table.schema.column(column).col_type
        is_string = col_type.kind is TypeKind.VARCHAR or (
            values and isinstance(next(
                (v for v in values if v is not None), None), str))
        dict_overhead = (_dictionary_bytes(values, distinct[column])
                         if is_string else 0)
        code_bytes = (_bits_for(distinct[column]) / 8.0 if is_string
                      else col_type.byte_width)
        rle_size = est_runs * (code_bytes + _RUN_HEADER_BYTES)
        pack_size = total_rows * _bits_for(distinct[column]) / 8.0
        raw_size = total_rows * code_bytes
        sizes[column] = int(min(rle_size, pack_size, raw_size)
                            + dict_overhead)
    return SizeEstimate(sizes, "run_modelling", len(sample),
                        len(sample) / total_rows)


def estimate_csi_size(table: Table, columns: Sequence[str],
                      method: str = "run_modelling",
                      sampling_ratio: float = 0.1,
                      seed: int = 7) -> SizeEstimate:
    """Dispatch to the chosen estimator."""
    if method == "blackbox":
        return estimate_blackbox(table, columns, sampling_ratio, seed)
    if method == "run_modelling":
        return estimate_run_modelling(
            table, columns, sampling_ratio, seed=seed)
    raise AdvisorError(f"unknown size estimation method {method!r}")


def actual_csi_column_sizes(table: Table,
                            columns: Sequence[str]) -> Dict[str, int]:
    """Ground truth: build a throwaway columnstore and read its sizes
    (used by tests and the estimation-accuracy bench)."""
    from repro.storage.columnstore import ColumnstoreIndex
    index = ColumnstoreIndex.build(
        "__ground_truth__", table.schema, table.rows_with_rids(),
        columns=columns, is_primary=False)
    return index.column_sizes()

"""Optimizer cost estimation.

Estimates mirror the executor's charging formulas so that — up to
cardinality-estimation error — optimizer-estimated cost tracks measured
cost. This mirrors how DTA relies on the server's cost model: "DTA uses a
cost-based search — its objective is to find the configuration with the
lowest optimizer-estimated cost" (Section 4.1).

All costs are in milliseconds of serial-equivalent work (CPU plus, for
cold planning, I/O wait). The unit of *comparison* is what matters to the
advisor, not the absolute value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.engine.costs import MB, CostModel
from repro.optimizer.plans import KIND_HEAP, IndexDescriptor


@dataclass
class CostingOptions:
    """Knobs for one planning session."""

    cost_model: CostModel
    cold: bool = False
    memory_grant_bytes: Optional[int] = None
    concurrent_queries: int = 1

    @property
    def grant(self) -> int:
        """Effective working-memory grant in bytes."""
        if self.memory_grant_bytes is not None:
            return self.memory_grant_bytes
        return self.cost_model.default_memory_grant_bytes


def choose_dop(options: CostingOptions, rows_processed: float) -> int:
    """The planner's parallelism decision (mirrors the executor)."""
    cm = options.cost_model
    if rows_processed < cm.parallel_row_threshold:
        return 1
    available = max(1, cm.max_dop // max(1, options.concurrent_queries))
    return available


def parallel_adjusted(options: CostingOptions, work_ms: float,
                      dop: int) -> float:
    """Elapsed-equivalent cost of ``work_ms`` run at ``dop``."""
    cm = options.cost_model
    if dop <= 1:
        return work_ms
    return work_ms * cm.parallel_cpu_overhead / dop + cm.parallel_startup_ms


def cost_heap_scan(options: CostingOptions, descriptor: IndexDescriptor,
                   table_rows: float, row_bytes: int,
                   out_rows: float) -> float:
    """Estimated cost of a full heap scan."""
    cm = options.cost_model
    dop = choose_dop(options, table_rows)
    cpu = table_rows * cm.row_cpu_ms_per_row
    cost = parallel_adjusted(options, cpu, dop)
    if options.cold:
        cost += (table_rows * row_bytes / MB) * cm.btree_scan_io_ms_per_mb
    return cost


def cost_btree_access(options: CostingOptions, descriptor: IndexDescriptor,
                      rows_scanned: float, entry_bytes: int,
                      lookup_rows: float = 0.0,
                      tree_height: int = 3) -> float:
    """Seek or scan of a B+ tree touching ``rows_scanned`` entries, plus
    optional base-table lookups for ``lookup_rows`` rows."""
    cm = options.cost_model
    dop = choose_dop(options, rows_scanned)
    cpu = cm.seek_cpu_ms + rows_scanned * cm.row_cpu_ms_per_row
    cpu += lookup_rows * (cm.seek_cpu_ms + cm.row_cpu_ms_per_row)
    cost = parallel_adjusted(options, cpu, dop)
    if options.cold:
        cost += tree_height * cm.random_io_ms_per_page
        cost += (rows_scanned * entry_bytes / MB) * cm.btree_scan_io_ms_per_mb
        cost += lookup_rows * cm.random_io_ms_per_page
    return cost


def csi_read_fraction(descriptor: IndexDescriptor,
                      range_column: Optional[str],
                      selectivity: float) -> float:
    """Fraction of row groups a CSI scan must read after elimination.

    Without a data-order guarantee, min/max ranges of every segment span
    nearly the full domain and nothing is eliminated. When the CSI was
    built over data sorted on the ranged column, eliminated fraction ~
    (1 - selectivity) plus one boundary segment (Figure 2).
    """
    if range_column is None:
        return 1.0
    if descriptor.sorted_on == range_column:
        # One partially-overlapping boundary group always remains.
        return min(1.0, selectivity + 0.02)
    return 1.0


def cost_csi_scan(options: CostingOptions, descriptor: IndexDescriptor,
                  table_rows: float, columns_read: Dict[str, int],
                  read_fraction: float = 1.0) -> float:
    """Columnstore scan reading only ``columns_read`` (name -> bytes)."""
    cm = options.cost_model
    rows_read = table_rows * read_fraction
    dop = choose_dop(options, rows_read)
    segments_per_column = max(1.0, rows_read / 32768.0)
    cpu = rows_read * cm.batch_cpu_ms_per_row
    n_segments = segments_per_column * max(1, len(columns_read))
    cpu += n_segments * cm.segment_decode_cpu_ms
    cost = parallel_adjusted(options, cpu, dop)
    if options.cold:
        read_bytes = sum(columns_read.values()) * read_fraction
        cost += (read_bytes / MB) * cm.seq_io_ms_per_mb
    return cost


def cost_filter(options: CostingOptions, rows: float, mode: str,
                dop: int) -> float:
    """Estimated cost of a filter over ``rows`` rows."""
    cm = options.cost_model
    per_row = (cm.batch_cpu_ms_per_row if mode == "batch"
               else cm.row_cpu_ms_per_row)
    return parallel_adjusted(options, rows * per_row, dop)


def cost_hash_join(options: CostingOptions, build_rows: float,
                   probe_rows: float, out_rows: float, mode: str,
                   build_row_bytes: int = 64) -> float:
    """Estimated cost of a hash join (with spill when over grant)."""
    cm = options.cost_model
    dop = choose_dop(options, build_rows + probe_rows)
    probe_scale = (cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
                   if mode == "batch" else 1.0)
    cpu = build_rows * cm.hash_cpu_ms_per_row
    cpu += probe_rows * cm.hash_cpu_ms_per_row * probe_scale
    cpu += out_rows * cm.row_cpu_ms_per_row * 0.25
    cost = parallel_adjusted(options, cpu, dop)
    build_bytes = build_rows * (build_row_bytes + cm.hash_entry_overhead_bytes)
    if build_bytes > options.grant:
        spill_mb = (build_bytes + probe_rows * build_row_bytes) / MB
        cost += spill_mb * (cm.write_io_ms_per_mb + cm.seq_io_ms_per_mb)
        cost *= cm.spill_cpu_multiplier
    return cost


def cost_merge_join(options: CostingOptions, left_rows: float,
                    right_rows: float, out_rows: float) -> float:
    """Estimated cost of a merge join over sorted inputs."""
    cm = options.cost_model
    cpu = (left_rows + right_rows) * cm.row_cpu_ms_per_row
    cpu += out_rows * cm.row_cpu_ms_per_row * 0.25
    return cpu


def cost_inl_join(options: CostingOptions, outer_rows: float,
                  matches_per_outer: float, inner_lookup: bool,
                  inner_height: int = 3) -> float:
    """Estimated cost of an index nested-loop join."""
    cm = options.cost_model
    per_probe = cm.seek_cpu_ms + matches_per_outer * cm.row_cpu_ms_per_row
    if inner_lookup:
        per_probe += matches_per_outer * (cm.seek_cpu_ms + cm.row_cpu_ms_per_row)
    cost = outer_rows * per_probe
    if options.cold:
        cost += outer_rows * inner_height * cm.random_io_ms_per_page * 0.3
        if inner_lookup:
            cost += outer_rows * matches_per_outer * cm.random_io_ms_per_page
    return cost


def cost_hash_aggregate(options: CostingOptions, input_rows: float,
                        n_groups: float, mode: str, dop: int,
                        group_key_bytes: int = 16,
                        n_aggregates: int = 1) -> tuple:
    """Returns (cost, spill_expected)."""
    cm = options.cost_model
    hash_scale = (cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
                  if mode == "batch" else 1.0)
    cpu = input_rows * cm.hash_cpu_ms_per_row * hash_scale
    memory = n_groups * (group_key_bytes + n_aggregates * 24
                         + cm.hash_entry_overhead_bytes)
    spill = memory > options.grant
    cost = parallel_adjusted(options, cpu, dop)
    if spill:
        spill_bytes = input_rows * (group_key_bytes + n_aggregates * 8)
        cost *= cm.spill_cpu_multiplier
        cost += (spill_bytes / MB) * (cm.write_io_ms_per_mb + cm.seq_io_ms_per_mb)
    return cost, spill


def cost_stream_aggregate(options: CostingOptions, input_rows: float,
                          dop: int) -> float:
    """Estimated cost of a streaming aggregate."""
    cm = options.cost_model
    return parallel_adjusted(
        options, input_rows * cm.stream_agg_cpu_ms_per_row, dop)


def cost_sort(options: CostingOptions, rows: float, row_bytes: int,
              dop: int) -> tuple:
    """Returns (cost, spill_expected)."""
    cm = options.cost_model
    cpu = rows * max(1.0, math.log2(max(rows, 2))) * cm.sort_cpu_ms_per_row_log
    payload = rows * row_bytes
    spill = payload > options.grant
    cost = parallel_adjusted(options, cpu, dop)
    if spill:
        cost *= cm.spill_cpu_multiplier
        cost += (payload / MB) * (cm.write_io_ms_per_mb + cm.seq_io_ms_per_mb)
    return cost, spill


def btree_entry_bytes(descriptor: IndexDescriptor, row_bytes: int,
                      column_bytes: Dict[str, int]) -> int:
    """Leaf entry width of a B+ tree descriptor."""
    if descriptor.is_primary or descriptor.kind == KIND_HEAP:
        return row_bytes
    width = sum(column_bytes.get(c, 8) for c in descriptor.key_columns)
    width += sum(column_bytes.get(c, 8) for c in descriptor.included_columns)
    return width + 8

"""Join operators: hash join, merge join, and index nested-loop join.

The hybrid plans in Section 5.3 of the paper combine exactly these:
selective B+ tree seeks on dimensions feeding *nested loop* lookups into
fact-table B+ trees, versus columnstore scans joined with *hash joins*.
The merge join exploits B+ tree sort order on both inputs.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch, batch_to_rows, rows_to_batch
from repro.engine.encoded import (
    EncodedColumn,
    note_code_fallback,
    note_code_hit,
)
from repro.engine.expressions import Expr, compile_row_predicate
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import BATCH_MODE, PhysicalOperator, ROW_MODE
from repro.storage.btree import PrimaryBTreeIndex, SecondaryBTreeIndex
from repro.storage.table import Table

Row = Tuple[object, ...]


def _key_getter(names: Sequence[str], available: Sequence[str]):
    positions = [list(available).index(n) for n in names]
    if len(positions) == 1:
        p = positions[0]
        return lambda row: row[p]
    return lambda row: tuple(row[p] for p in positions)


class HashJoin(PhysicalOperator):
    """Equality hash join; build side is the first child.

    Runs in batch mode when the probe side is batch mode (SQL Server's
    batch-mode hash join over columnstores). Build-side memory is
    reserved against the grant; overflow charges a Grace-hash spill of
    both sides.
    """

    def __init__(
        self,
        build: PhysicalOperator,
        probe: PhysicalOperator,
        build_keys: Sequence[str],
        probe_keys: Sequence[str],
        dop: int = 1,
    ):
        super().__init__(children=(build, probe), dop=dop)
        if len(build_keys) != len(probe_keys) or not build_keys:
            raise ExecutionError("hash join needs matching non-empty key lists")
        self.build_keys = list(build_keys)
        self.probe_keys = list(probe_keys)
        self.mode = probe.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child(0).output_columns + self.child(1).output_columns

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        cm = ctx.cost_model
        build_cols = self.child(0).output_columns
        probe_cols = self.child(1).output_columns
        build_key = _key_getter(self.build_keys, build_cols)
        probe_key = _key_getter(self.probe_keys, probe_cols)

        table: Dict[object, List[Row]] = {}
        build_bytes = 0
        spilled = False
        build_rows = 0
        # The build-side grant must be returned on every exit path — a
        # probe-side error or an early close (e.g. a Top above this join
        # stops pulling) previously leaked the whole reservation.
        try:
            for batch in self.child(0).execute(ctx):
                build_rows += len(batch)
                payload = batch.payload_bytes() + len(batch) * cm.hash_entry_overhead_bytes
                if not spilled and not ctx.acquire_memory(payload):
                    spilled = True
                if spilled:
                    ctx.charge_spill(payload)
                else:
                    build_bytes += payload
                for row in batch_to_rows(batch, build_cols):
                    table.setdefault(build_key(row), []).append(row)
            ctx.charge_parallel_cpu(build_rows * cm.hash_cpu_ms_per_row, self.dop)
            yield from self._probe(ctx, cm, table, probe_cols, probe_key,
                                   spilled)
        finally:
            if build_bytes:
                ctx.release_memory(build_bytes)

    def _probe(self, ctx: ExecutionContext, cm, table, probe_cols,
               probe_key, spilled: bool) -> Iterator[Batch]:
        out_names = self.output_columns
        pending: List[Row] = []
        for batch in self.child(1).execute(ctx):
            probe_cost = len(batch) * cm.hash_cpu_ms_per_row
            if self.mode == BATCH_MODE:
                probe_cost *= cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
            if spilled:
                probe_cost *= cm.spill_cpu_multiplier
                ctx.charge_spill(batch.payload_bytes())
            ctx.charge_parallel_cpu(probe_cost, self.dop)
            code_matches = self._translate_probe_dictionary(batch, table, ctx)
            if code_matches is not None:
                match_lists, codes = code_matches
                keep = np.flatnonzero(
                    np.fromiter((match_lists[c] is not None for c in codes),
                                dtype=bool, count=len(codes)))
                if len(keep) == 0:
                    continue
                # Late materialization: only rows with a build match pivot
                # into tuples; the key strings themselves never re-hash.
                surviving = batch.take(keep)
                for i, row in zip(keep.tolist(),
                                  batch_to_rows(surviving, probe_cols)):
                    for build_row in match_lists[codes[i]]:
                        pending.append(build_row + row)
                    if len(pending) >= 4096:
                        result = rows_to_batch(pending, out_names)
                        if result is not None:
                            yield result
                        pending = []
                continue
            for row in batch_to_rows(batch, probe_cols):
                matches = table.get(probe_key(row))
                if not matches:
                    continue
                for build_row in matches:
                    pending.append(build_row + row)
                if len(pending) >= 4096:
                    result = rows_to_batch(pending, out_names)
                    if result is not None:
                        yield result
                    pending = []
        result = rows_to_batch(pending, out_names)
        if result is not None:
            yield result

    def _translate_probe_dictionary(self, batch: Batch, table, ctx):
        """Code-space probe for a dictionary-coded single join key.

        Translates the probe batch's dictionary to build-side match
        lists once (at most ``|dictionary|`` hash lookups — covering the
        shared-dictionary case for free, since the translation is pure
        array indexing either way), then probes by code: no per-row
        string hashing and no materialization of non-matching rows.
        Returns (match list per code, per-row codes), or None when the
        key is not a single encoded column (decoded fallback).
        """
        if len(self.probe_keys) != 1:
            if any(isinstance(batch.columns.get(k), EncodedColumn)
                   for k in self.probe_keys):
                note_code_fallback(
                    ctx, reason=("hash join: multi-column probe key "
                                 f"{self.probe_keys}"))
            return None
        column = batch.columns.get(self.probe_keys[0])
        if not isinstance(column, EncodedColumn):
            return None
        note_code_hit(ctx)
        match_lists = [table.get(value)
                       for value in column.dictionary.values.tolist()]
        return match_lists, column.codes

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"HashJoin({self.build_keys} = {self.probe_keys}) "
                f"[{self.mode}, dop={self.dop}]")


class MergeJoin(PhysicalOperator):
    """Equality merge join over two inputs sorted on their join keys.

    Verifies the children's declared orderings; needs no hash table and
    (for unique build keys) no materialization beyond the current group —
    the low-memory join enabled by B+ tree sort order.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        dop: int = 1,
    ):
        super().__init__(children=(left, right), dop=dop)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("merge join needs matching non-empty key lists")
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.mode = ROW_MODE
        for child, keys in ((left, left_keys), (right, right_keys)):
            ordering = child.output_ordering
            if list(ordering[:len(keys)]) != list(keys):
                raise ExecutionError(
                    f"merge join input must be sorted by {list(keys)}, "
                    f"got {ordering}")

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child(0).output_columns + self.child(1).output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return self.left_keys

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        left_cols = self.child(0).output_columns
        right_cols = self.child(1).output_columns
        left_key = _key_getter(self.left_keys, left_cols)
        right_key = _key_getter(self.right_keys, right_cols)
        left_rows = self._drain(self.child(0), ctx, left_cols)
        right_rows = self._drain(self.child(1), ctx, right_cols)
        self.charge_rows(ctx, len(left_rows) + len(right_rows))

        out_names = self.output_columns
        pending: List[Row] = []
        i = j = 0
        while i < len(left_rows) and j < len(right_rows):
            lk = left_key(left_rows[i])
            rk = right_key(right_rows[j])
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                # Gather the full duplicate group on both sides.
                i_end = i
                while i_end < len(left_rows) and left_key(left_rows[i_end]) == lk:
                    i_end += 1
                j_end = j
                while j_end < len(right_rows) and right_key(right_rows[j_end]) == rk:
                    j_end += 1
                for li in range(i, i_end):
                    for rj in range(j, j_end):
                        pending.append(left_rows[li] + right_rows[rj])
                i, j = i_end, j_end
            if len(pending) >= 4096:
                result = rows_to_batch(pending, out_names)
                if result is not None:
                    yield result
                pending = []
        result = rows_to_batch(pending, out_names)
        if result is not None:
            yield result

    @staticmethod
    def _drain(child: PhysicalOperator, ctx: ExecutionContext,
               names: Sequence[str]) -> List[Row]:
        rows: List[Row] = []
        for batch in child.execute(ctx):
            rows.extend(batch_to_rows(batch, names))
        return rows

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"MergeJoin({self.left_keys} = {self.right_keys}) "
                f"[{self.mode}, dop={self.dop}]")


class IndexNestedLoopJoin(PhysicalOperator):
    """For each outer row, seek a B+ tree on the inner table.

    The inner side is a parameterized equality seek on ``inner_index``
    whose leading key columns are matched against ``outer_keys``. This is
    the hybrid-plan workhorse of Section 5.3: selective dimension filters
    drive index seeks into large fact tables.
    """

    mode = ROW_MODE

    def __init__(
        self,
        outer: PhysicalOperator,
        inner_table: Table,
        inner_index,
        outer_keys: Sequence[str],
        inner_columns: Sequence[str],
        inner_prefix: str = "",
        residual: Optional[Expr] = None,
        dop: int = 1,
    ):
        super().__init__(children=(outer,), dop=dop)
        if not outer_keys:
            raise ExecutionError("nested loop join needs outer key columns")
        if len(outer_keys) > len(inner_index.key_columns):
            raise ExecutionError("more outer keys than inner index key columns")
        self.inner_table = inner_table
        self.inner_index = inner_index
        self.outer_keys = list(outer_keys)
        self.inner_columns = list(inner_columns)
        self.inner_prefix = inner_prefix
        self.residual = residual
        self._is_secondary = isinstance(inner_index, SecondaryBTreeIndex)
        if self._is_secondary:
            covered = set(inner_index.covered_columns)
            self._lookup_ordinals = inner_table.schema.ordinals(
                [c for c in self.inner_columns if c not in covered])
            self._rid_at = len(inner_index.key_columns)
            ordinals = inner_index.entry_ordinals(self.inner_columns)
        elif isinstance(inner_index, PrimaryBTreeIndex):
            ordinals = inner_table.schema.ordinals(self.inner_columns)
        else:
            raise ExecutionError("inner index must be a B+ tree")
        if len(ordinals) == 1:  # itemgetter alone would return a bare value
            only = ordinals[0]
            self._project_inner = lambda row: (row[only],)
        else:
            self._project_inner = itemgetter(*ordinals)

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        inner = [self.inner_prefix + c for c in self.inner_columns]
        return self.child(0).output_columns + inner

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return self.child(0).output_ordering

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        outer_cols = self.child(0).output_columns
        outer_key = _key_getter(self.outer_keys, outer_cols)
        single = len(self.outer_keys) == 1
        out_names = self.output_columns
        positions = {name: i for i, name in enumerate(out_names)}
        predicate = compile_row_predicate(self.residual, positions)
        pending: List[Row] = []
        for batch in self.child(0).execute(ctx):
            self.charge_rows(ctx, len(batch))
            for row in batch_to_rows(batch, outer_cols):
                key = outer_key(row)
                bounds = (key,) if single else tuple(key)
                for inner_values in self._seek_inner(bounds, ctx):
                    combined = row + inner_values
                    if predicate(combined):
                        pending.append(combined)
                if len(pending) >= 4096:
                    result = rows_to_batch(pending, out_names)
                    if result is not None:
                        yield result
                    pending = []
        result = rows_to_batch(pending, out_names)
        if result is not None:
            yield result
        ctx.metrics.record_leaf_access("btree")

    def _seek_inner(self, bounds: Tuple[object, ...],
                    ctx: ExecutionContext) -> Iterator[Row]:
        for keys, values in self.inner_index.seek_range(bounds, bounds, ctx):
            if not self._is_secondary:
                rows = values
            else:
                rows = self.inner_index.entry_rows(keys, values)
                if self._lookup_ordinals:
                    rows = (row + self.inner_table.fetch_columns(
                                row[self._rid_at], self._lookup_ordinals, ctx)
                            for row in rows)
            yield from map(self._project_inner, rows)

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"IndexNestedLoopJoin(outer {self.outer_keys} -> "
                f"{self.inner_table.name}.{self.inner_index.name}) "
                f"[{self.mode}, dop={self.dop}]")

"""The row-at-a-time merge and nested-loop joins, kept as the reference.

``MergeJoin.execute`` and ``IndexNestedLoopJoin.execute``/``_seek_inner``
as they were before the joins were moved onto the hash join's match
kernel and the scan operators' seek: a two-pointer loop over row tuples,
and a per-outer-row seek that re-implements the scans' projection,
bookmark lookups and (through ``eval_row``) the residual. The bodies
are unchanged, the literal batch size 4 096 included.

``tests/test_reference_joins.py`` compares the operators against these
on the same inputs: rows in order, batch boundaries, dtypes and every
modeled charge.
"""

from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

from repro.engine.batch import Batch, batch_to_rows, rows_to_batch
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import IndexNestedLoopJoin, MergeJoin
from repro.engine.operators.base import PhysicalOperator
from repro.storage.btree import SecondaryBTreeIndex
from tests.reference_eval import compile_row_predicate

Row = Tuple[object, ...]


def _key_getter(names: Sequence[str], available: Sequence[str]):
    positions = [list(available).index(n) for n in names]
    if len(positions) == 1:
        p = positions[0]
        return lambda row: row[p]
    return lambda row: tuple(row[p] for p in positions)


class ReferenceMergeJoin(MergeJoin):
    """The two-pointer merge over row tuples."""

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
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


class ReferenceIndexNestedLoopJoin(IndexNestedLoopJoin):
    """The nested-loop join with its own seek, projection, bookmark
    lookups and per-row residual."""

    def __init__(self, outer, inner_table, inner_index, outer_keys,
                 inner_columns, inner_prefix="", residual=None, dop=1):
        super().__init__(outer, inner_table, inner_index, outer_keys,
                         inner_columns, inner_prefix, residual, dop)
        self.inner_table = inner_table
        self.inner_index = inner_index
        self.inner_columns = list(inner_columns)
        self.residual = residual
        self._is_secondary = isinstance(inner_index, SecondaryBTreeIndex)
        if self._is_secondary:
            covered = set(inner_index.covered_columns)
            self._lookup_ordinals = inner_table.schema.ordinals(
                [c for c in self.inner_columns if c not in covered])
            self._rid_at = len(inner_index.key_columns)
            ordinals = inner_index.entry_ordinals(self.inner_columns)
        else:
            ordinals = inner_table.schema.ordinals(self.inner_columns)
        if len(ordinals) == 1:  # itemgetter alone would return a bare value
            only = ordinals[0]
            self._project_inner = lambda row: (row[only],)
        else:
            self._project_inner = itemgetter(*ordinals)

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
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
                if None in bounds:      # NULL equals nothing: no seek
                    continue
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

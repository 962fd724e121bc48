"""Join operators: hash join, merge join, and index nested-loop join.

The hybrid plans in Section 5.3 of the paper combine exactly these:
selective B+ tree seeks on dimensions feeding *nested loop* lookups into
fact-table B+ trees, versus columnstore scans joined with *hash joins*.
The merge join exploits B+ tree sort order on both inputs.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch, PendingColumns, _column_array
from repro.engine.encoded import (
    EncodedColumn,
    maybe_materialize,
    note_code_fallback,
    note_code_hit,
)
from repro.engine.expressions import Expr, with_values
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import (
    BATCH_MODE,
    DEFAULT_BATCH_ROWS,
    PhysicalOperator,
    ROW_MODE,
)
from repro.engine.operators.scans import btree_seek
from repro.storage.compression import sorted_distinct
from repro.storage.table import Table


def _find_sorted(distinct: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in ``distinct`` (ascending, no repeats);
    -1 where it is absent."""
    if not len(distinct):
        return np.full(len(values), -1, dtype=np.int64)
    at = np.searchsorted(distinct, values)
    at[at == len(distinct)] = 0
    return np.where(distinct[at] == values, at, -1)


def _concat(pieces: List[np.ndarray]) -> np.ndarray:
    """One array of the pieces' values. Pieces of different dtypes meet
    as Python objects, so no int is widened to float on the way."""
    if len(pieces) == 1:
        return pieces[0]
    if len({piece.dtype for piece in pieces}) > 1:
        pieces = [piece.astype(object) for piece in pieces]
    return np.concatenate(pieces)


def _output_array(values: np.ndarray) -> np.ndarray:
    """The array a pivot from row tuples makes of these values: integers
    are int64, floats float64, and everything else is an object column
    whose dtype is inferred again from the values of this batch alone."""
    if values.dtype.kind in "iu":
        return values.astype(np.int64, copy=False)
    if values.dtype.kind == "f":
        return values.astype(np.float64, copy=False)
    return _column_array(values.tolist())


def _one_batch(batches: List[Batch], names: Sequence[str]) -> Batch:
    """The batches' columns ``names`` as one batch of plain arrays."""
    return Batch({name: _concat([maybe_materialize(batch.column(name))
                                 for batch in batches])
                  for name in names})


def _gather(pieces, names: Sequence[str]) -> Dict[str, np.ndarray]:
    """Output columns ``names`` of the ``(batch, rows)`` pieces: rows
    ``rows`` of ``batch``, piece after piece."""
    return {name: _output_array(_concat(
                [maybe_materialize(batch.column(name)[rows])
                 for batch, rows in pieces]))
            for name in names}


def _cuts(ends: np.ndarray, pending: int) -> Iterator[int]:
    """Where output batches close within a run of matches, ``ends[i]``
    being the matches up to and including unit ``i`` (a probe row, or a
    merge join's key group): after the first unit that brings the
    pending count to ``DEFAULT_BATCH_ROWS``. Operators above charge per
    batch, so the cut points are modeled cost."""
    done = 0
    while True:
        unit = np.searchsorted(ends, done + DEFAULT_BATCH_ROWS - pending)
        if unit == len(ends):
            return
        done, pending = ends[unit], 0
        yield done


class _KeyColumn:
    """The distinct non-NULL values of one build key column, numbered.

    Numeric columns of one kind are matched by binary search over the
    sorted distinct values. Every other pairing — strings, nullable
    object columns, an int column against a float one — goes through a
    dict of Python values, whose hashing is the equality the row-wise
    join had (``1 == 1.0``); ``None`` is seeded as -1, so NULL matches
    nothing on either side.
    """

    def __init__(self, values: np.ndarray):
        self.sorted: Optional[np.ndarray] = None
        self.numbers: Optional[Dict[object, int]] = None
        if values.dtype.kind in "if":
            self.sorted = sorted_distinct(values)
            self.cardinality = len(self.sorted)
        else:
            distinct = dict.fromkeys(values.tolist())
            distinct.pop(None, None)
            self._number(distinct)

    def _number(self, distinct) -> None:
        self.numbers = {value: i for i, value in enumerate(distinct)}
        self.cardinality = len(self.numbers)
        self.numbers[None] = -1

    def encode(self, column) -> np.ndarray:
        """Each value's number; -1 for NULL and for values the build
        side does not have."""
        if isinstance(column, EncodedColumn):
            # Code-space probe: look up the dictionary's values once,
            # then index the result by code.
            return self.encode(column.dictionary.values)[column.codes]
        if self.sorted is not None and (
                column.dtype.kind == self.sorted.dtype.kind):
            return _find_sorted(self.sorted, column)
        if self.numbers is None:
            self._number(self.sorted.tolist())
        return np.fromiter(
            map(self.numbers.get, column.tolist(), repeat(-1)),
            dtype=np.int64, count=len(column))


class _BuildSide:
    """The build rows as one batch (``rows``), grouped by join key:
    ``order[starts[g]:starts[g] + counts[g]]`` are the rows of group
    ``g`` in arrival order. Rows with a NULL in any key column are in no
    group."""

    def __init__(self, batches: List[Batch], names: Sequence[str],
                 keys: Sequence[str]):
        self.rows = _one_batch(batches, names)
        self.keys = [_KeyColumn(self.rows.column(key)) for key in keys]
        #: Per key column after the first: the sorted distinct
        #: (group so far, number in this column) pairs of the build rows.
        self.pairs: List[np.ndarray] = []
        group = self.keys[0].encode(self.rows.column(keys[0]))
        for key, name in zip(self.keys[1:], keys[1:]):
            pairs, group = np.unique(
                self._pair(group, key, self.rows.column(name)),
                return_inverse=True)
            if len(pairs) and pairs[0] < 0:     # rows out of every group
                pairs, group = pairs[1:], group - 1
            self.pairs.append(pairs)
        self.order = np.argsort(group, kind="stable")[
            np.count_nonzero(group < 0):]
        self.counts = np.bincount(group[self.order])    # no group is empty
        self.starts = np.cumsum(self.counts) - self.counts

    @staticmethod
    def _pair(group: np.ndarray, key: _KeyColumn, column) -> np.ndarray:
        # Groups are renumbered densely after every column, so both
        # factors stay below the build row count and the product cannot
        # leave int64.
        numbers = key.encode(column)
        return np.where((group < 0) | (numbers < 0), -1,
                        group * key.cardinality + numbers)

    def groups_of(self, key_columns: Sequence[object]) -> np.ndarray:
        """The build group each probe row joins; -1 for none."""
        group = self.keys[0].encode(key_columns[0])
        for key, pairs, column in zip(self.keys[1:], self.pairs,
                                      key_columns[1:]):
            group = _find_sorted(pairs, self._pair(group, key, column))
        return group

    def matches(self, key_columns: Sequence[object]):
        """Every match of a probe batch, probe rows in order and each
        with the rows of its build group in arrival order: the group of
        each probe row that has one, the matches up to and including
        that row, and the probe row and the build row of every match."""
        group = self.groups_of(key_columns)
        probe_rows = np.flatnonzero(group >= 0)
        group = group[probe_rows]
        counts = self.counts[group]
        ends = np.cumsum(counts)
        probe_idx = np.repeat(probe_rows, counts)
        # Match m belongs to the probe row whose span [end - count, end)
        # holds m, and is that far into its group.
        build_idx = self.order[
            np.repeat(self.starts[group] - (ends - counts), counts)
            + np.arange(len(probe_idx))]
        return group, ends, probe_idx, build_idx


class HashJoin(PhysicalOperator):
    """Equality hash join; build side is the first child.

    Runs in batch mode when the probe side is batch mode (SQL Server's
    batch-mode hash join over columnstores). Build-side memory is
    reserved against the grant; overflow charges a Grace-hash spill of
    both sides.

    Build, probe and output stay in column arrays: the build rows are
    grouped by key once (:class:`_BuildSide`), each probe batch's keys
    map to build groups in one vectorised lookup, the matches expand
    into a pair of row-index arrays, and every output column is one
    gather per index piece. NULL keys match nothing.
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
        batches: List[Batch] = []
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
                batches.append(batch)
            ctx.charge_parallel_cpu(build_rows * cm.hash_cpu_ms_per_row, self.dop)
            build = _BuildSide(batches, self.child(0).output_columns,
                               self.build_keys) if build_rows else None
            del batches     # the rows live on in ``build``'s arrays
            yield from self._probe(ctx, cm, build, spilled)
        finally:
            if build_bytes:
                ctx.release_memory(build_bytes)

    def _probe(self, ctx: ExecutionContext, cm, build: Optional[_BuildSide],
               spilled: bool) -> Iterator[Batch]:
        #: Matches not yet emitted: (probe batch, build rows, probe rows).
        pieces: List[Tuple[Batch, np.ndarray, np.ndarray]] = []
        pending = 0
        for batch in self.child(1).execute(ctx):
            probe_cost = len(batch) * cm.hash_cpu_ms_per_row
            if self.mode == BATCH_MODE:
                probe_cost *= cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
            if spilled:
                probe_cost *= cm.spill_cpu_multiplier
                ctx.charge_spill(batch.payload_bytes())
            ctx.charge_parallel_cpu(probe_cost, self.dop)
            key_columns = [batch.column(key) for key in self.probe_keys]
            if any(isinstance(column, EncodedColumn) for column in key_columns):
                if len(key_columns) == 1:
                    note_code_hit(ctx)
                else:
                    note_code_fallback(
                        ctx, reason=("hash join: multi-column probe key "
                                     f"{self.probe_keys}"))
            if build is None:       # the probe child is drained all the same
                continue
            _, ends, probe_idx, build_idx = build.matches(key_columns)
            if not len(ends):
                continue
            done = 0
            for cut in _cuts(ends, pending):
                pieces.append((batch, build_idx[done:cut], probe_idx[done:cut]))
                yield self._output(build, pieces)
                pieces, pending, done = [], 0, cut
            if done < ends[-1]:
                pieces.append((batch, build_idx[done:], probe_idx[done:]))
                pending += ends[-1] - done
        if pieces:
            yield self._output(build, pieces)

    def _output(self, build: _BuildSide, pieces) -> Batch:
        build_idx = _concat([rows for _, rows, _ in pieces])
        return Batch({
            **_gather([(build.rows, build_idx)], self.child(0).output_columns),
            **_gather([(batch, rows) for batch, _, rows in pieces],
                      self.child(1).output_columns)})

    @cached_property
    def _label(self) -> str:
        """The text of :meth:`describe`, made once per operator."""
        return (f"HashJoin({self.build_keys} = {self.probe_keys}) "
                f"[{self.mode}, dop={self.dop}]")


class MergeJoin(PhysicalOperator):
    """Equality merge join over two inputs sorted on their join keys.

    Verifies the children's declared orderings and reserves no memory —
    the low-memory join enabled by B+ tree sort order, and what the cost
    model charges for. "Merge" is that cost label: the matches come from
    the hash join's kernel (:class:`_BuildSide` over the right input),
    left rows in order and each with its right matches in arrival order,
    which on sorted inputs is the order of a two-pointer merge. NULL
    keys match nothing.
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
        left = list(self.child(0).execute(ctx))
        right = list(self.child(1).execute(ctx))
        self.charge_rows(ctx, sum(map(len, left)) + sum(map(len, right)))
        if not left or not right:
            return
        left_names, right_names = (c.output_columns for c in self.children)
        probe = _one_batch(left, left_names)
        build = _BuildSide(right, right_names, self.right_keys)
        group, ends, probe_idx, build_idx = build.matches(
            [probe.column(key) for key in self.left_keys])
        if not len(ends):
            return
        # A batch closes after the key group that fills it: the left
        # rows of one key are adjacent and share their build group.
        group_ends = ends[np.append(group[1:] != group[:-1], True)]
        done = 0
        for cut in [*_cuts(group_ends, 0), ends[-1]]:
            if done < cut:
                yield Batch({
                    **_gather([(probe, probe_idx[done:cut])], left_names),
                    **_gather([(build.rows, build_idx[done:cut])],
                              right_names)})
                done = cut

    @cached_property
    def _label(self) -> str:
        """The text of :meth:`describe`, made once per operator."""
        return (f"MergeJoin({self.left_keys} = {self.right_keys}) "
                f"[{self.mode}, dop={self.dop}]")


class IndexNestedLoopJoin(PhysicalOperator):
    """For each outer row, seek a B+ tree on the inner table.

    The inner side is a seek operator (``inner``, the one a plan would
    run on that index, residual and bookmark lookups included) that is
    never executed on its own: every outer row supplies the bounds of
    one equality seek on the leading key columns matched by
    ``outer_keys``. This is the hybrid-plan workhorse of Section 5.3:
    selective dimension filters drive index seeks into large fact
    tables.
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
        self.outer_keys = list(outer_keys)
        self.inner = btree_seek(inner_table, inner_index, inner_columns,
                                residual=residual, prefix=inner_prefix)

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child(0).output_columns + self.inner.output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return self.child(0).output_ordering

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches.

        The seek of an outer row is charged when that row is reached,
        and a batch closes after the outer row that brings the pending
        count to ``DEFAULT_BATCH_ROWS``, so no seek runs ahead of the
        consumer of the rows before it.
        """
        inner = self.inner
        step = inner.chunk_step(ctx)
        #: Matches not yet emitted: the inner side as its output columns,
        #: the outer side as (outer batch, outer row per match).
        pending = PendingColumns(len(inner.columns))
        pieces: List[Tuple[Batch, List[int]]] = []
        for batch in self.child(0).execute(ctx):
            self.charge_rows(ctx, len(batch))
            rows: List[int] = []
            keys = zip(*[batch.column(key).tolist() for key in self.outer_keys])
            for row, key in enumerate(keys):
                if None in key:     # NULL equals nothing: no seek
                    continue
                before = pending.count
                for chunk in inner.entry_chunks(ctx, key, key):
                    step(chunk, pending)
                rows.extend(repeat(row, pending.count - before))
                if pending.count >= DEFAULT_BATCH_ROWS:
                    yield self._output(pieces + [(batch, rows)], pending)
                    pending = PendingColumns(len(inner.columns))
                    pieces, rows = [], []
            if rows:
                pieces.append((batch, rows))
        if pieces:
            yield self._output(pieces, pending)
        ctx.metrics.record_leaf_access("btree")

    def _output(self, pieces, pending: PendingColumns) -> Batch:
        columns = _gather(pieces, self.child(0).output_columns)
        columns.update(pending.batch(self.inner.output_columns).columns)
        return Batch(columns)

    def describe(self, ctx: Optional[ExecutionContext] = None) -> str:
        """One-line human-readable summary of this node."""
        inner = self.inner
        residual = inner.residual if ctx is None else with_values(
            inner.residual, ctx.params)
        where = "" if residual is None else f" where {residual}"
        head, tail = self._label_parts
        return f"{head}{where}{tail}"

    @cached_property
    def _label_parts(self) -> Tuple[str, str]:
        """The static text of :meth:`describe` before and after the
        inner residual, made once per operator."""
        inner = self.inner
        return (f"IndexNestedLoopJoin(outer {self.outer_keys} -> "
                f"{inner.table.name}.{inner.index.name}",
                f") [{self.mode}, dop={self.dop}]")

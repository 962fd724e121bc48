"""Aggregation operators: hash aggregate (with spill) and streaming
aggregate (exploiting input sort order).

These two implementations are the heart of the paper's Figure 4: with
enough working memory the vectorized hash aggregate over a columnstore
scan wins by ~5x, but when the number of groups pushes the hash table
past the memory grant the hash aggregate goes *disk-based* (spills), and
a B+ tree whose sort order enables the O(1)-memory streaming aggregate
wins by up to ~5x instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch, _object_column_bytes, rows_to_batch
from repro.engine.encoded import (
    EncodedColumn,
    note_code_fallback,
    note_code_hit,
)
from repro.engine.expressions import Expr, eval_batch
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import BATCH_MODE, PhysicalOperator

AGG_FUNCS = ("sum", "count", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: function, argument expression, output name.

    ``expr`` may be None only for ``count`` (COUNT(*)).
    """

    func: str
    expr: Optional[Expr]
    output: str

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise ExecutionError(f"unknown aggregate function {self.func!r}")
        if self.expr is None and self.func != "count":
            raise ExecutionError(f"{self.func} requires an argument")


class _GroupStates:
    """Accumulators of every group seen so far, one slot per group: the
    row count, and per aggregate (one array row each) the non-NULL
    count, the running sum and the running minimum or maximum."""

    def __init__(self, n_aggs: int, capacity: int = 16):
        self.totals = np.zeros(capacity, dtype=np.int64)
        self.counts = np.zeros((n_aggs, capacity), dtype=np.int64)
        self.sums = np.zeros((n_aggs, capacity), dtype=np.float64)
        self.best = np.full((n_aggs, capacity), None, dtype=object)

    def reserve(self, n_slots: int) -> None:
        """Make slots ``[0, n_slots)`` addressable (new ones are empty)."""
        capacity = len(self.totals)
        if n_slots <= capacity:
            return
        grown = _GroupStates(len(self.counts), max(n_slots, 2 * capacity))
        for name in ("totals", "counts", "sums", "best"):
            values = getattr(grown, name)
            values[..., :capacity] = getattr(self, name)
            setattr(self, name, values)

    def column(self, i: int, spec: AggregateSpec, n_slots: int) -> List[object]:
        """Aggregate ``i``'s output value for slots ``[0, n_slots)``."""
        counts = self.counts[i, :n_slots]
        if spec.func == "count":
            return (self.totals[:n_slots] if spec.expr is None
                    else counts).tolist()
        if spec.func in ("min", "max"):
            return self.best[i, :n_slots].tolist()
        # sum / avg of no non-NULL value is NULL.
        seen = counts > 0
        values = self.sums[i, :n_slots][seen]
        if spec.func == "avg":
            values = values / counts[seen]
        out = np.full(n_slots, None, dtype=object)
        out[seen] = values
        return out.tolist()


class _AggregateBase(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec], dop: int = 1):
        super().__init__(children=(child,), dop=dop)
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        if not self.aggregates and not self.group_by:
            raise ExecutionError("aggregate needs group keys or aggregates")

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.group_by + [a.output for a in self.aggregates]

    def _segments(self, batch: Batch, ctx: ExecutionContext, runs: bool
                  ) -> Tuple[List[Tuple[object, ...]], Optional[np.ndarray],
                             np.ndarray, np.ndarray]:
        """Cut a batch into one segment per group: ``(keys, order,
        starts, sizes)``, where ``order`` lists the row positions so that
        each group's rows are contiguous and in batch order (None when
        they already are) and segment ``j`` — the ``sizes[j]`` rows of
        ``keys[j]`` — begins at ``starts[j]`` of that arrangement.

        A scalar aggregate is one segment. With ``runs`` (sorted input)
        every run of equal keys is a segment, in batch order; otherwise
        the segments are the distinct keys in ascending code order."""
        if not self.group_by:
            return ([()], None, np.zeros(1, dtype=np.intp),
                    np.array([len(batch)]))
        codes, uniques = _factorize(batch, self.group_by, ctx)
        if runs:
            change = np.empty(len(codes), dtype=bool)
            change[0] = True
            np.not_equal(codes[1:], codes[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], len(codes))
            return ([uniques[c] for c in codes[starts].tolist()], None,
                    starts, ends - starts)
        sizes = np.bincount(codes, minlength=len(uniques))
        return (uniques, np.argsort(codes, kind="stable"),
                np.cumsum(sizes) - sizes, sizes)

    def _fold(self, states: _GroupStates, slots: np.ndarray, batch: Batch,
              order: Optional[np.ndarray], starts: np.ndarray,
              sizes: np.ndarray, ctx: ExecutionContext) -> None:
        """Fold one batch into ``states``: segment ``j`` of
        :meth:`_segments` into slot ``slots[j]``.

        Every argument is reduced over the segment starts and the
        batch's partial results are merged by slot. The arithmetic is
        fixed so that a result does not depend on how the input was
        batched, encoded or grouped: integers sum exactly in int64,
        floats with one ``sum()`` per contiguous segment (numpy's
        pairwise rounding depends on where a summation starts and
        ends), objects with Python's ``sum``/``min``/``max`` per
        segment, and partial sums are added to the state as float64 in
        batch order. An encoded argument is counted once per batch as a
        code-path hit or fallback: count/min/max reduce its codes (the
        dictionary is sorted, so the extreme code is the extreme value)
        and decode one value per group; sum/avg read the decoded values,
        which is a hit when they are integers and a fallback otherwise.
        """
        states.totals[slots] += sizes
        for i, spec in enumerate(self.aggregates):
            if spec.expr is None:
                continue
            values = eval_batch(spec.expr, batch, ctx)
            dictionary = valid = None
            if isinstance(values, EncodedColumn):
                if spec.func not in ("sum", "avg"):
                    note_code_hit(ctx)
                    dictionary, values = values.dictionary, values.codes
                    if dictionary.null_offset:
                        valid = values >= dictionary.null_offset
                else:
                    if values.dictionary.is_integral():
                        note_code_hit(ctx)
                    else:
                        note_code_fallback(
                            ctx, reason=f"aggregate {spec.func}"
                                        f"({spec.output}) on non-integer "
                                        "domain")
                    values = values.materialize()
            if dictionary is None and values.dtype == object:
                valid = values != None  # noqa: E711 - elementwise NULL test
            if order is not None:
                values = values[order]
                if valid is not None:
                    valid = valid[order]
            target, at, counts = slots, starts, sizes
            if valid is not None:
                # Only the non-NULL rows are reduced, and only the
                # segments that still have one.
                counts = np.add.reduceat(valid, starts, dtype=np.int64)
                values = values[valid]
                live = counts > 0
                target, counts = slots[live], counts[live]
                at = np.cumsum(counts) - counts
                if not len(target):
                    continue
            if spec.func in ("sum", "avg"):
                states.sums[i][target] += _segment_sums(values, at)
            elif spec.func in ("min", "max"):
                best = _segment_extremes(spec.func, values, at)
                if dictionary is not None:
                    best = dictionary.values[best]
                best = best.astype(object)
                # A slot holds a value once it has counted one.
                held = states.counts[i][target] > 0
                wins = np.less if spec.func == "min" else np.greater
                better = ~held
                better[held] = wins(best[held], states.best[i][target[held]])
                states.best[i][target[better]] = best[better]
            states.counts[i][target] += counts

    def _result(self, keys: List[Tuple[object, ...]], states: _GroupStates,
                ) -> List[Tuple[object, ...]]:
        """One output row per slot: ``keys[slot]`` + its aggregates."""
        if not keys:
            return []
        columns = list(zip(*keys)) if self.group_by else []
        columns += [states.column(i, spec, len(keys))
                    for i, spec in enumerate(self.aggregates)]
        return list(zip(*columns))


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sum of each segment of ``values`` as float64 (see ``_fold``)."""
    if values.dtype.kind in "iub":
        return np.add.reduceat(
            values, starts, dtype=np.int64).astype(np.float64)
    total = sum if values.dtype == object else np.sum
    return np.array([
        float(total(values[start:end])) for start, end in _bounds(values, starts)
    ], dtype=np.float64)


def _segment_extremes(func: str, values: np.ndarray,
                      starts: np.ndarray) -> np.ndarray:
    """Minimum or maximum of each segment of ``values``."""
    if values.dtype != object:
        reducer = np.minimum if func == "min" else np.maximum
        return reducer.reduceat(values, starts)
    pick = min if func == "min" else max
    out = np.empty(len(starts), dtype=object)
    out[:] = [pick(values[start:end]) for start, end in _bounds(values, starts)]
    return out


def _bounds(values: np.ndarray, starts: np.ndarray):
    return zip(starts.tolist(), starts[1:].tolist() + [len(values)])


class HashAggregate(_AggregateBase):
    """Hash-based aggregation with memory-grant accounting.

    The hash table's footprint grows with the number of distinct groups;
    once it exceeds the context's memory grant the operator switches to
    disk-based aggregation — it charges spill I/O for the rows processed
    after the switch and inflates their CPU — while still computing exact
    results in this simulation.
    """

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec], dop: int = 1):
        super().__init__(child, group_by, aggregates, dop)
        self.mode = child.mode
        self.spilled = False
        #: Real bytes a spill file would hold for the post-spill batches:
        #: encoded columns serialize their int32 codes (the shared
        #: dictionary lives in the segment, not the spill run), plain
        #: columns their materialized width. The *modeled* spill charge
        #: (``charge_spill``) always uses the decoded payload so figure
        #: metrics are mode-independent; these counters surface how much
        #: smaller the code-space spill actually is (EXPLAIN ANALYZE).
        self.spill_bytes_written = 0
        self.spill_bytes_decoded = 0

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        cm = ctx.cost_model
        entry_bytes = (
            len(self.group_by) * 16 + len(self.aggregates) * 24
            + cm.hash_entry_overhead_bytes
        )
        slot_of: Dict[Tuple[object, ...], int] = {}
        states = _GroupStates(len(self.aggregates))
        reserved = 0
        self.spilled = False
        self.spill_bytes_written = 0
        self.spill_bytes_decoded = 0
        # The hash-table grant must be returned even when the child (or
        # an aggregate expression) raises mid-stream.
        try:
            for batch in self.child().execute(ctx):
                self.charge_rows(ctx, len(batch))
                hash_cost = len(batch) * cm.hash_cpu_ms_per_row
                if self.mode == BATCH_MODE:
                    hash_cost *= cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
                if self.spilled:
                    hash_cost *= cm.spill_cpu_multiplier
                    payload = batch.payload_bytes()
                    ctx.charge_spill(payload)
                    self._serialize_spill_run(batch, payload)
                ctx.charge_parallel_cpu(hash_cost, self.dop)

                keys, *segments = self._segments(batch, ctx, runs=False)
                slots = [slot_of.get(key) for key in keys]
                if None in slots:
                    # One hash-table entry, and one grant request, per
                    # new group, in ascending key-code order.
                    for j, key in enumerate(keys):
                        if slots[j] is None:
                            slots[j] = slot_of[key] = len(slot_of)
                            if not self.spilled:
                                if ctx.acquire_memory(entry_bytes):
                                    reserved += entry_bytes
                                else:
                                    self.spilled = True
                    states.reserve(len(slot_of))
                self._fold(states, np.array(slots, dtype=np.intp), batch,
                           *segments, ctx)
            if not slot_of and not self.group_by:
                # A scalar aggregate answers one row even over no input
                # (count 0, the others NULL); it is not a hash-table
                # entry, so it takes no grant and no modeled cost.
                slot_of[()] = 0
            rows = self._result(list(slot_of), states)
            rows.sort(key=lambda r: tuple(
                (v is not None, v) for v in r[:len(self.group_by)]))
            result = rows_to_batch(rows, self.output_columns)
        finally:
            if reserved:
                ctx.release_memory(reserved)
        if result is not None:
            yield result

    def _serialize_spill_run(self, batch: Batch, decoded_payload: int) -> None:
        """Account the real size of one post-spill run written in code
        space: encoded columns contribute their int32 code bytes, plain
        columns their materialized width."""
        written = 0
        for arr in batch.columns.values():
            if isinstance(arr, EncodedColumn):
                written += arr.codes.nbytes
            elif arr.dtype == object:
                written += _object_column_bytes(arr, batch.length)
            else:
                written += arr.nbytes
        self.spill_bytes_written += written
        self.spill_bytes_decoded += decoded_payload

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        spill = ""
        if self.spilled:
            spill = " SPILLED"
            if self.spill_bytes_written:
                spill += (f"(wrote {self.spill_bytes_written}B coded"
                          f" of {self.spill_bytes_decoded}B decoded)")
        return (f"HashAggregate(by={self.group_by}, "
                f"aggs={[a.output for a in self.aggregates]}){spill} "
                f"[{self.mode}, dop={self.dop}]")


class StreamAggregate(_AggregateBase):
    """Streaming aggregation over input sorted by the group columns.

    Requires the child's ``output_ordering`` to start with the group-by
    columns. Uses O(1) working memory — the reason B+ tree sort order
    wins when memory is scarce (Figure 4).
    """

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec], dop: int = 1):
        super().__init__(child, group_by, aggregates, dop)
        self.mode = child.mode
        ordering = child.output_ordering
        if group_by and list(ordering[:len(group_by)]) != list(group_by):
            raise ExecutionError(
                f"StreamAggregate needs input sorted by {list(group_by)}, "
                f"child provides {ordering}")

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        cm = ctx.cost_model
        keys: List[Tuple[object, ...]] = []   # one per run, in arrival order
        states = _GroupStates(len(self.aggregates))
        for batch in self.child().execute(ctx):
            ctx.charge_parallel_cpu(
                len(batch) * cm.stream_agg_cpu_ms_per_row, self.dop)
            runs, *segments = self._segments(batch, ctx, runs=True)
            # A batch's first run continues the group the last batch
            # ended in when the keys are equal.
            continued = int(bool(keys) and runs[0] == keys[-1])
            first = len(keys) - continued
            keys += runs[continued:]
            states.reserve(len(keys))
            self._fold(states, np.arange(first, len(keys)), batch, *segments,
                       ctx)
        if not keys and not self.group_by:
            # Scalar aggregate over no input: one row (count 0, else NULL).
            keys.append(())
        result = rows_to_batch(self._result(keys, states), self.output_columns)
        if result is not None:
            yield result

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"StreamAggregate(by={self.group_by}, "
                f"aggs={[a.output for a in self.aggregates]}) "
                f"[{self.mode}, dop={self.dop}]")


def _factorize(batch: Batch, group_by: Sequence[str],
               ctx: Optional[ExecutionContext] = None
               ) -> Tuple[np.ndarray, List[Tuple[object, ...]]]:
    """Encode each row's group key as an integer code.

    Returns (codes per row, unique key tuples indexed by code).

    Dictionary-coded columns contribute their codes directly: the
    dictionary is sorted NULL-first, matching the rank order the decoded
    path assigns, so downstream grouping behaves identically while the
    key strings materialize only for the groups actually emitted.
    """
    per_column_codes = []
    per_column_values = []
    for name in group_by:
        values = batch.column(name)
        if isinstance(values, EncodedColumn):
            note_code_hit(ctx)
            codes = values.codes.astype(np.int64)
            decoded = values.dictionary.values.tolist()
        elif values.dtype == object:
            keyed = [(v is not None, v) for v in values]
            uniques = sorted(set(keyed))
            lookup = {k: i for i, k in enumerate(uniques)}
            codes = np.fromiter((lookup[k] for k in keyed), dtype=np.int64,
                                count=len(keyed))
            decoded = [u[1] for u in uniques]
        else:
            decoded_arr, codes = np.unique(values, return_inverse=True)
            decoded = decoded_arr.tolist()
        per_column_codes.append(codes)
        per_column_values.append(decoded)
    combined = per_column_codes[0].astype(np.int64)
    for codes, values in zip(per_column_codes[1:], per_column_values[1:]):
        combined = combined * len(values) + codes
    unique_combined, final_codes = np.unique(combined, return_inverse=True)
    # Decode each combined code back into the component key tuple.
    uniques: List[Tuple[object, ...]] = []
    for code in unique_combined.tolist():
        parts = []
        for values in reversed(per_column_values[1:]):
            code, part = divmod(code, len(values))
            parts.append(values[part])
        parts.append(per_column_values[0][code])
        uniques.append(tuple(reversed(parts)))
    return final_codes, uniques

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
    maybe_materialize,
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


class _GroupState:
    """Accumulator for one group across batches."""

    __slots__ = ("sums", "counts", "mins", "maxs", "total")

    def __init__(self, n_aggs: int):
        self.sums = [0.0] * n_aggs
        self.counts = [0] * n_aggs
        self.mins: List[object] = [None] * n_aggs
        self.maxs: List[object] = [None] * n_aggs
        self.total = 0


def _finalize(spec: AggregateSpec, state: _GroupState, i: int) -> object:
    if spec.func == "sum":
        return state.sums[i] if state.counts[i] else None
    if spec.func == "count":
        return state.total if spec.expr is None else state.counts[i]
    if spec.func == "avg":
        return state.sums[i] / state.counts[i] if state.counts[i] else None
    if spec.func == "min":
        return state.mins[i]
    if spec.func == "max":
        return state.maxs[i]
    raise ExecutionError(f"unknown aggregate {spec.func!r}")


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

    def _update_state(self, state: _GroupState,
                      arg_values: List[Optional[np.ndarray]],
                      indices: np.ndarray,
                      ctx: Optional[ExecutionContext] = None) -> None:
        """Fold the rows selected by ``indices`` into ``state``."""
        state.total += len(indices)
        for i, values in enumerate(arg_values):
            if values is None:
                continue
            if isinstance(values, EncodedColumn):
                if self._update_from_codes(state, i, values, indices, ctx):
                    continue
                note_code_fallback(
                    ctx, reason=f"aggregate {self.aggregates[i].func}"
                                f"({self.aggregates[i].output}) on "
                                "non-integer domain")
                # Materialize to the *decoded* representation: a numeric
                # dictionary decodes to a numeric array, so float sums
                # use the same pairwise numpy summation as the decoded
                # twin (sequential Python summation rounds differently).
                selected = maybe_materialize(values[indices])
            else:
                selected = values[indices]
            if selected.dtype == object:
                selected = np.array(
                    [v for v in selected if v is not None], dtype=object)
                if len(selected) == 0:
                    continue
                state.counts[i] += len(selected)
                spec = self.aggregates[i]
                if spec.func in ("sum", "avg"):
                    state.sums[i] += float(sum(selected))
                lo, hi = min(selected), max(selected)
            else:
                state.counts[i] += len(selected)
                state.sums[i] += float(selected.sum())
                lo = selected.min().item()
                hi = selected.max().item()
            if state.mins[i] is None or lo < state.mins[i]:
                state.mins[i] = lo
            if state.maxs[i] is None or hi > state.maxs[i]:
                state.maxs[i] = hi

    def _update_from_codes(self, state: _GroupState, i: int,
                           column: EncodedColumn, indices: np.ndarray,
                           ctx: Optional[ExecutionContext]) -> bool:
        """Fold an encoded argument into ``state`` purely in code space.

        min/max reduce over codes (the dictionary is sorted, so the
        extreme code is the extreme value) and decode one value each;
        count needs only the non-null code count; sum/avg use a bincount
        over codes dotted with the integer dictionary domain. Exactness
        rules keep both modes bit-identical: integer numeric
        dictionaries accumulate in int64 exactly like the decoded twin's
        ``selected.sum()``; all-integer object dictionaries accumulate
        in arbitrary-precision Python exactly like the decoded twin's
        ``sum()`` loop; float domains return False and materialize.
        """
        spec = self.aggregates[i]
        dictionary = column.dictionary
        needs_sum = spec.func in ("sum", "avg")
        domain = dictionary.integer_domain() if needs_sum else None
        if needs_sum and domain is None:
            return False
        codes = column.codes[indices]
        null_offset = dictionary.null_offset
        if null_offset:
            codes = codes[codes >= null_offset]
        note_code_hit(ctx)
        if len(codes) == 0:
            return True  # all NULL: nothing to fold, like the decoded path
        state.counts[i] += len(codes)
        if needs_sum:
            counts = np.bincount(
                codes - null_offset,
                minlength=len(dictionary.values) - null_offset)
            if isinstance(domain, np.ndarray):
                state.sums[i] += float(np.dot(counts, domain))
            else:
                state.sums[i] += float(sum(
                    value * int(count)
                    for value, count in zip(domain, counts.tolist())
                    if count))
        # mins/maxs track unconditionally, mirroring the decoded branches.
        lo = dictionary.values[int(codes.min())]
        hi = dictionary.values[int(codes.max())]
        if isinstance(lo, np.generic):
            lo = lo.item()
        if isinstance(hi, np.generic):
            hi = hi.item()
        if state.mins[i] is None or lo < state.mins[i]:
            state.mins[i] = lo
        if state.maxs[i] is None or hi > state.maxs[i]:
            state.maxs[i] = hi
        return True

    def _arg_arrays(self, batch: Batch,
                    ctx: Optional[ExecutionContext] = None
                    ) -> List[Optional[np.ndarray]]:
        return [
            eval_batch(spec.expr, batch, ctx) if spec.expr is not None else None
            for spec in self.aggregates
        ]

    def _emit(self, groups: Dict[Tuple[object, ...], _GroupState]
              ) -> Optional[Batch]:
        rows = []
        for key, state in groups.items():
            out = list(key)
            for i, spec in enumerate(self.aggregates):
                out.append(_finalize(spec, state, i))
            rows.append(tuple(out))
        rows.sort(key=lambda r: tuple(
            (v is not None, v) for v in r[:len(self.group_by)]))
        return rows_to_batch(rows, self.output_columns)


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
        groups: Dict[Tuple[object, ...], _GroupState] = {}
        reserved = 0
        self.spilled = False
        self.spill_bytes_written = 0
        self.spill_bytes_decoded = 0
        n_aggs = len(self.aggregates)
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

                arg_values = self._arg_arrays(batch, ctx)

                def on_new_group(state_key):
                    nonlocal reserved
                    state = _GroupState(n_aggs)
                    groups[state_key] = state
                    if not self.spilled:
                        if ctx.acquire_memory(entry_bytes):
                            reserved += entry_bytes
                        else:
                            self.spilled = True
                    return state

                if self._fold_batch_vectorized(batch, arg_values, groups,
                                               on_new_group, ctx):
                    continue
                for key, indices in _group_indices(batch, self.group_by, ctx).items():
                    state = groups.get(key)
                    if state is None:
                        state = on_new_group(key)
                    self._update_state(state, arg_values, indices, ctx)
            if not groups and not self.group_by:
                # A scalar aggregate answers one row even over no input
                # (count 0, the others NULL); it is not a hash-table
                # entry, so it takes no grant and no modeled cost.
                groups[()] = _GroupState(n_aggs)
            result = self._emit(groups)
        finally:
            if reserved:
                ctx.release_memory(reserved)
        if result is not None:
            yield result

    #: Ceiling on the (groups x dictionary) bincount matrix the
    #: vectorized fold may allocate per aggregate (int64 cells).
    _VECTOR_FOLD_MAX_CELLS = 1 << 24

    def _fold_batch_vectorized(self, batch: Batch,
                               arg_values: List[Optional[np.ndarray]],
                               groups: Dict[Tuple[object, ...], _GroupState],
                               on_new_group, ctx) -> bool:
        """Fold one batch with per-batch bincounts instead of per-group
        gathers, when every aggregate argument is an ``EncodedColumn``.

        One ``bincount`` over the composite ``group_code * |dict| +
        value_code`` yields the full (group x value) contingency matrix,
        from which counts, int64-exact sums (matrix-vector product with
        the integer dictionary domain — the same int64 arithmetic as the
        per-group ``np.dot``), and code-space min/max all fall out
        without touching row indices. Returns False when any argument is
        ineligible (plain array, float/object-int domain under sum/avg,
        oversized matrix); the caller then runs the per-group path,
        which produces bit-identical state.
        """
        if not self.group_by:
            return False
        specs = []
        for i, values in enumerate(arg_values):
            if values is None:
                continue
            spec = self.aggregates[i]
            if not isinstance(values, EncodedColumn):
                return False
            if spec.func in ("sum", "avg") and not isinstance(
                    values.dictionary.integer_domain(), np.ndarray):
                return False
            specs.append((i, spec, values))
        gcodes, uniques = _factorize(batch, self.group_by, ctx)
        k = len(uniques)
        for _, _, values in specs:
            if k * len(values.dictionary) > self._VECTOR_FOLD_MAX_CELLS:
                return False
        group_counts = np.bincount(gcodes, minlength=k)
        states = []
        for j, key in enumerate(uniques):
            state = groups.get(key)
            if state is None:
                state = on_new_group(key)
            state.total += int(group_counts[j])
            states.append(state)
        for i, spec, values in specs:
            dictionary = values.dictionary
            nv = len(dictionary)
            null_offset = dictionary.null_offset
            combined = gcodes * nv + values.codes
            mat = np.bincount(combined, minlength=k * nv).reshape(k, nv)
            nonnull = mat[:, null_offset:]
            note_code_hit(ctx)
            if nonnull.shape[1] == 0:
                continue  # all-NULL dictionary: nothing to fold
            counts = nonnull.sum(axis=1)
            sums = (nonnull @ dictionary.integer_domain()
                    if spec.func in ("sum", "avg") else None)
            occupied = nonnull > 0
            first = np.argmax(occupied, axis=1)
            last = (nonnull.shape[1] - 1
                    - np.argmax(occupied[:, ::-1], axis=1))
            for j in np.flatnonzero(counts).tolist():
                state = states[j]
                state.counts[i] += int(counts[j])
                if sums is not None:
                    state.sums[i] += float(sums[j])
                lo = dictionary.values[int(first[j]) + null_offset]
                hi = dictionary.values[int(last[j]) + null_offset]
                if isinstance(lo, np.generic):
                    lo = lo.item()
                if isinstance(hi, np.generic):
                    hi = hi.item()
                if state.mins[i] is None or lo < state.mins[i]:
                    state.mins[i] = lo
                if state.maxs[i] is None or hi > state.maxs[i]:
                    state.maxs[i] = hi
        return True

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
        current_key: Optional[Tuple[object, ...]] = None
        state: Optional[_GroupState] = None
        out_rows: List[Tuple[object, ...]] = []
        n_aggs = len(self.aggregates)
        for batch in self.child().execute(ctx):
            ctx.charge_parallel_cpu(
                len(batch) * cm.stream_agg_cpu_ms_per_row, self.dop)
            arg_values = self._arg_arrays(batch, ctx)
            # Group keys arrive in sorted runs: split the batch into runs.
            for key, indices in _ordered_group_runs(batch, self.group_by, ctx):
                if key != current_key:
                    if state is not None:
                        out_rows.append(self._finalize_row(current_key, state))
                    current_key = key
                    state = _GroupState(n_aggs)
                self._update_state(state, arg_values, indices, ctx)
        if state is None and not self.group_by:
            # Scalar aggregate over no input: one row (count 0, else NULL).
            current_key, state = (), _GroupState(n_aggs)
        if state is not None:
            out_rows.append(self._finalize_row(current_key, state))
        result = rows_to_batch(out_rows, self.output_columns)
        if result is not None:
            yield result

    def _finalize_row(self, key: Tuple[object, ...],
                      state: _GroupState) -> Tuple[object, ...]:
        out = list(key)
        for i, spec in enumerate(self.aggregates):
            out.append(_finalize(spec, state, i))
        return tuple(out)

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"StreamAggregate(by={self.group_by}, "
                f"aggs={[a.output for a in self.aggregates]}) "
                f"[{self.mode}, dop={self.dop}]")


def _group_indices(batch: Batch, group_by: Sequence[str],
                   ctx: Optional[ExecutionContext] = None
                   ) -> Dict[Tuple[object, ...], np.ndarray]:
    """Map each distinct key tuple to the row indices holding it."""
    if not group_by:
        return {(): np.arange(len(batch))}
    codes, uniques = _factorize(batch, group_by, ctx)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    out: Dict[Tuple[object, ...], np.ndarray] = {}
    for chunk in np.split(order, boundaries):
        key = uniques[int(codes[chunk[0]])]
        out[key] = chunk
    return out


def _ordered_group_runs(batch: Batch, group_by: Sequence[str],
                        ctx: Optional[ExecutionContext] = None):
    """Yield (key, indices) runs in batch order (input already sorted)."""
    if not group_by:
        yield (), np.arange(len(batch))
        return
    codes, uniques = _factorize(batch, group_by, ctx)
    n = len(codes)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(codes[1:], codes[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    for start, end in zip(starts, ends):
        yield uniques[int(codes[start])], np.arange(start, end)


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

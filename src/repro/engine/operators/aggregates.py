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
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch, _column_array, _object_column_bytes
from repro.engine.encoded import (
    EncodedColumn,
    note_code_fallback,
    note_code_hit,
)
from repro.engine.expressions import Expr, eval_batch
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import BATCH_MODE, PhysicalOperator
from repro.storage.compression import Dictionary

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
    count, the running sum and the running minimum or maximum.

    A sum is kept twice: in float64, and as an exact integer for as long
    as every value summed into the slot is an integer (``inexact`` is
    set by the first one that is not). The exact sum is held modulo
    2**64 in ``ints``; the float64 sum of the same values is far closer
    than 2**63 to it, so it tells how often ``ints`` wrapped (see
    :meth:`sum_values`), whatever the order the parts were added in."""

    def __init__(self, n_aggs: int, capacity: int = 16):
        self.totals = np.zeros(capacity, dtype=np.int64)
        self.counts = np.zeros((n_aggs, capacity), dtype=np.int64)
        self.sums = np.zeros((n_aggs, capacity), dtype=np.float64)
        self.ints = np.zeros((n_aggs, capacity), dtype=np.int64)
        self.inexact = np.zeros((n_aggs, capacity), dtype=bool)
        self.best = np.full((n_aggs, capacity), None, dtype=object)

    def reserve(self, n_slots: int) -> None:
        """Make slots ``[0, n_slots)`` addressable (new ones are empty)."""
        capacity = len(self.totals)
        if n_slots <= capacity:
            return
        grown = _GroupStates(len(self.counts), max(n_slots, 2 * capacity))
        for name in ("totals", "counts", "sums", "ints", "inexact", "best"):
            values = getattr(grown, name)
            values[..., :capacity] = getattr(self, name)
            setattr(self, name, values)

    def column(self, i: int, spec: AggregateSpec,
               slots: np.ndarray) -> List[object]:
        """Aggregate ``i``'s output value for ``slots``, in that order."""
        counts = self.counts[i][slots]
        if spec.func == "count":
            return (self.totals[slots] if spec.expr is None
                    else counts).tolist()
        if spec.func in ("min", "max"):
            return self.best[i][slots].tolist()
        # sum / avg of no non-NULL value is NULL.
        seen = counts > 0
        values = self.sum_values(i, slots, spec)[seen]
        if spec.func == "avg":
            values = values / counts[seen]
        if len(values) == len(slots):
            return values.tolist()
        out = np.full(len(slots), None, dtype=object)
        out[seen] = values
        return out.tolist()

    def add_sums(self, i: int, slots: np.ndarray, values: np.ndarray,
                 starts: np.ndarray) -> None:
        """Add the sum of each segment of ``values`` (see
        :meth:`_AggregateBase._fold`) to aggregate ``i`` of ``slots``."""
        floats, exact = _segment_sums(values, starts)
        self.sums[i][slots] += floats
        if exact is None:
            self.inexact[i][slots] = True
            return
        if exact.dtype == object:
            # Python ints: the non-integer segments are None.
            integral = exact != None  # noqa: E711 - elementwise None test
            self.inexact[i][slots[~integral]] = True
            slots = slots[integral]
            exact = np.array([(v + _HALF) % _WRAP - _HALF
                              for v in exact[integral]], dtype=np.int64)
        self.ints[i][slots] += exact    # modulo 2**64, without a warning

    def sum_values(self, i: int, slots: np.ndarray,
                   spec: AggregateSpec) -> np.ndarray:
        """Aggregate ``i``'s sums for ``slots``: the float64 sum where a
        value was not an integer, else the exact sum — for SUM the
        float64 it rounds to, and one beyond int64 is the statement's
        error; for AVG the Python int, which it divides.

        ``ints`` is the exact sum modulo 2**64. The float64 sum of the
        same values is off the exact one by ~2**-53 of their magnitudes
        times the rows summed, far less than 2**63, so rounding the
        difference to a multiple of 2**64 gives the wraps exactly."""
        sums, inexact = self.sums[i][slots], self.inexact[i][slots]
        n_inexact = np.count_nonzero(inexact)
        if n_inexact == len(slots):
            return sums
        ints = self.ints[i][slots]
        rounded = ints.astype(np.float64)
        wraps = np.rint((sums - rounded) / float(_WRAP))
        if n_inexact:
            wraps[inexact] = 0
            rounded[inexact] = sums[inexact]
        if spec.func == "sum":
            if np.count_nonzero(wraps):
                raise ExecutionError(f"integer overflow in sum({spec.expr})")
            return rounded
        exact = ~inexact
        out = sums.astype(object)
        out[exact] = [t + int(w) * _WRAP for t, w
                      in zip(ints[exact].tolist(), wraps[exact].tolist())]
        return out


#: An exact integer sum is held modulo 2**64 as an int64.
_WRAP = 1 << 64
_HALF = 1 << 63

#: A scalar aggregate's batch is one segment, starting at row 0, and its
#: one group is slot 0 (read-only: shared by every execution).
_ONE_SEGMENT = np.zeros(1, dtype=np.intp)
_ONE_SEGMENT.flags.writeable = False


class _AggregateBase(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec], dop: int = 1):
        super().__init__(children=(child,), dop=dop)
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        if not self.aggregates and not self.group_by:
            raise ExecutionError("aggregate needs group keys or aggregates")
        #: Whether a COUNT(*) reads the states' row totals, which are
        #: kept only then.
        self._counts_rows = any(spec.expr is None for spec in self.aggregates)

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.group_by + [a.output for a in self.aggregates]

    def _segments(self, batch: Batch, ctx: ExecutionContext, runs: bool
                  ) -> Tuple[List[_GroupColumn], Optional[np.ndarray],
                             np.ndarray, np.ndarray]:
        """Cut a batch into one segment per group: ``(keys, order,
        starts, sizes)``, where ``order`` lists the row positions so that
        each group's rows are contiguous and in batch order (None when
        they already are) and segment ``j`` — the ``sizes[j]`` rows whose
        key is ``values[parts[j]]`` in each column of ``keys`` — begins
        at ``starts[j]`` of that arrangement.

        A scalar aggregate is one segment and has no key columns. With
        ``runs`` (sorted input) every run of equal keys is a segment, in
        batch order; otherwise the segments are the distinct keys in
        ascending code order, and the stable sort that makes them
        contiguous runs on the narrowest unsigned dtype that holds the
        group numbers (numpy radix-sorts 8- and 16-bit keys)."""
        if not self.group_by:
            return [], None, _ONE_SEGMENT, np.array([len(batch)])
        groups, keys = _factorize(batch, self.group_by, ctx)
        if runs:
            change = np.empty(len(groups), dtype=bool)
            change[0] = True
            np.not_equal(groups[1:], groups[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], len(groups))
            run_groups = groups[starts]
            return ([key._replace(parts=key.parts[run_groups]) for key in keys],
                    None, starts, ends - starts)
        n_groups = len(keys[0].parts)
        groups = groups.astype(np.min_scalar_type(max(n_groups - 1, 0)))
        sizes = np.bincount(groups, minlength=n_groups)
        return (keys, np.argsort(groups, kind="stable"),
                np.cumsum(sizes) - sizes, sizes)

    def _fold(self, states: _GroupStates, slots: np.ndarray, batch: Batch,
              order: Optional[np.ndarray], starts: np.ndarray,
              sizes: np.ndarray, ctx: ExecutionContext) -> None:
        """Fold one batch into ``states``: segment ``j`` of
        :meth:`_segments` into slot ``slots[j]``.

        Every argument is reduced over the segment starts and the
        batch's partial results are merged by slot. The arithmetic is
        fixed so that a result does not depend on how the input was
        batched, encoded or grouped: integers sum exactly (modulo 2**64
        in int64, see :class:`_GroupStates`), floats with one ``sum()``
        per contiguous segment (numpy's pairwise rounding depends on
        where a summation starts and ends), objects with Python's
        ``sum``/``min``/``max`` per segment, and partial float sums are
        added to the state in batch order. An encoded argument is counted once per batch as a
        code-path hit or fallback: count/min/max reduce its codes (the
        dictionary is sorted, so the extreme code is the extreme value)
        and decode one value per group; sum/avg read the decoded values,
        which is a hit when they are integers and a fallback otherwise.
        """
        if self._counts_rows:
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
                states.add_sums(i, target, values, at)
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

    def _result(self, keys: List[List[object]], states: _GroupStates,
                slots: np.ndarray) -> Optional[Batch]:
        """One output row per slot of ``slots``, in that order: the
        slot's key (``keys`` holds each group column's values for
        ``slots``) and its aggregates; None for no slot."""
        if not len(slots):
            return None
        columns = keys + [states.column(i, spec, slots)
                          for i, spec in enumerate(self.aggregates)]
        return Batch({name: _column_array(values)
                      for name, values in zip(self.output_columns, columns)})


def _segment_sums(values: np.ndarray, starts: np.ndarray
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Sum of each segment of ``values`` (see ``_fold``): ``(floats,
    exact)``, the float64 sums and the exact integer ones — int64
    modulo 2**64 for an integer array, Python ints for an object array
    (None for a segment that holds a non-integer), None for floats."""
    if values.dtype.kind in "iub":
        return (np.add.reduceat(values, starts, dtype=np.float64),
                np.add.reduceat(values, starts, dtype=np.int64))
    if values.dtype != object:
        return np.array([
            float(np.sum(values[start:end]))
            for start, end in _bounds(values, starts)], dtype=np.float64), None
    sums = [sum(values[start:end]) for start, end in _bounds(values, starts)]
    exact = np.empty(len(sums), dtype=object)
    exact[:] = [v if isinstance(v, int) else None for v in sums]
    return np.array([float(v) for v in sums], dtype=np.float64), exact


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


class Spill:
    """One hash aggregate execution's spill, from the batch that did not
    fit the grant on: the real bytes a spill file would hold for the
    batches after it. Encoded columns serialize their int32 codes (the
    shared dictionary lives in the segment, not the spill run), plain
    columns their materialized width. The *modeled* spill charge
    (``charge_spill``) always uses the decoded payload so figure metrics
    are mode-independent; these counters surface how much smaller the
    code-space spill actually is (EXPLAIN ANALYZE)."""

    __slots__ = ("bytes_written", "bytes_decoded")

    def __init__(self):
        self.bytes_written = 0
        self.bytes_decoded = 0

    def add_run(self, batch: Batch, decoded_payload: int) -> None:
        """Account one post-spill run written in code space: encoded
        columns contribute their int32 code bytes, plain columns their
        materialized width."""
        written = 0
        for arr in batch.columns.values():
            if isinstance(arr, EncodedColumn):
                written += arr.codes.nbytes
            elif arr.dtype == object:
                written += _object_column_bytes(arr, batch.length)
            else:
                written += arr.nbytes
        self.bytes_written += written
        self.bytes_decoded += decoded_payload


class HashAggregate(_AggregateBase):
    """Hash-based aggregation with memory-grant accounting.

    The hash table's footprint grows with the number of distinct groups;
    once it exceeds the context's memory grant the operator switches to
    disk-based aggregation — it charges spill I/O for the rows processed
    after the switch and inflates their CPU — while still computing exact
    results in this simulation. Whether an execution spilled is that
    execution's: its :class:`Spill` is kept in the context
    (:meth:`spill_of`), never on the operator.
    """

    def __init__(self, child: PhysicalOperator, group_by: Sequence[str],
                 aggregates: Sequence[AggregateSpec], dop: int = 1):
        super().__init__(child, group_by, aggregates, dop)
        self.mode = child.mode

    def spill_of(self, ctx: ExecutionContext) -> Optional[Spill]:
        """The spill of this operator's execution under ``ctx``; None
        when it kept within the grant."""
        return ctx.operator_state.get(self)

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        cm = ctx.cost_model
        entry_bytes = (
            len(self.group_by) * 16 + len(self.aggregates) * 24
            + cm.hash_entry_overhead_bytes
        )
        # A scalar aggregate is one group: one slot of state, its slot
        # and segment start constant; the table only counts it.
        scalar = not self.group_by
        table = _SlotTable(len(self.group_by))
        states = _GroupStates(len(self.aggregates), 1 if scalar else 16)
        reserved = 0
        spill = None
        # The hash-table grant must be returned even when the child (or
        # an aggregate expression) raises mid-stream.
        try:
            for batch in self.child().execute(ctx):
                self.charge_rows(ctx, len(batch))
                hash_cost = len(batch) * cm.hash_cpu_ms_per_row
                if self.mode == BATCH_MODE:
                    hash_cost *= cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
                if spill is not None:
                    hash_cost *= cm.spill_cpu_multiplier
                    payload = batch.payload_bytes()
                    ctx.charge_spill(payload)
                    spill.add_run(batch, payload)
                ctx.charge_parallel_cpu(hash_cost, self.dop)

                keys, *segments = self._segments(batch, ctx, runs=False)
                known = table.size
                slots = table.slots(keys)
                if table.size > known:
                    # One hash-table entry, and one grant request, per
                    # new group, in ascending key-code order (the order
                    # the new slots were handed out in).
                    for _ in range(table.size - known):
                        if spill is not None:
                            break
                        if ctx.acquire_memory(entry_bytes):
                            reserved += entry_bytes
                        else:
                            spill = ctx.operator_state[self] = Spill()
                    states.reserve(table.size)
                self._fold(states, slots, batch, *segments, ctx)
            if scalar:
                # A scalar aggregate answers one row even over no input
                # (count 0, the others NULL); it is not a hash-table
                # entry, so it takes no grant and no modeled cost.
                result = self._result([], states, _ONE_SEGMENT)
            else:
                order = table.ordered()
                result = self._result(table.keys(order), states, order)
        finally:
            if reserved:
                ctx.release_memory(reserved)
        if result is not None:
            yield result

    def describe(self, ctx: Optional[ExecutionContext] = None) -> str:
        """One-line human-readable summary of this node."""
        spill = None if ctx is None else self.spill_of(ctx)
        head, tail = self._label_parts
        if spill is None:
            return head + tail
        text = " SPILLED"
        if spill.bytes_written:
            text += (f"(wrote {spill.bytes_written}B coded"
                     f" of {spill.bytes_decoded}B decoded)")
        return head + text + tail

    @cached_property
    def _label_parts(self) -> Tuple[str, str]:
        """The static text of :meth:`describe` before and after an
        execution's spill, made once per operator."""
        return (f"HashAggregate(by={self.group_by}, "
                f"aggs={[a.output for a in self.aggregates]})",
                f" [{self.mode}, dop={self.dop}]")


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
        # Per group column, the key of every run so far, in arrival order.
        keys: List[List[object]] = [[] for _ in self.group_by]
        n_runs = 0
        states = _GroupStates(len(self.aggregates))
        for batch in self.child().execute(ctx):
            ctx.charge_parallel_cpu(
                len(batch) * cm.stream_agg_cpu_ms_per_row, self.dop)
            runs, *segments = self._segments(batch, ctx, runs=True)
            run_keys = [run.values[run.parts].tolist() for run in runs]
            # A batch's first run continues the group the last batch
            # ended in when the keys are equal.
            continued = int(n_runs > 0 and tuple(k[0] for k in run_keys)
                            == tuple(k[-1] for k in keys))
            first = n_runs - continued
            n_runs = first + len(segments[1])
            for held, new in zip(keys, run_keys):
                held += new[continued:]
            states.reserve(n_runs)
            self._fold(states, np.arange(first, n_runs), batch, *segments,
                       ctx)
        if not n_runs and not self.group_by:
            # Scalar aggregate over no input: one row (count 0, else NULL).
            n_runs = 1
        result = self._result(keys, states, np.arange(n_runs))
        if result is not None:
            yield result

    @cached_property
    def _label(self) -> str:
        """The text of :meth:`describe`, made once per operator."""
        return (f"StreamAggregate(by={self.group_by}, "
                f"aggs={[a.output for a in self.aggregates]}) "
                f"[{self.mode}, dop={self.dop}]")


class _GroupColumn(NamedTuple):
    """One group column of a batch as :func:`_factorize` numbers it."""

    #: The column's distinct values in the batch, ascending, NULL first.
    values: np.ndarray
    #: Per group (or run), the position of its value in ``values``.
    parts: np.ndarray
    #: The dictionary of an encoded column, and the code of each value.
    dictionary: Optional[Dictionary]
    codes: Optional[np.ndarray]


def _factorize(batch: Batch, group_by: Sequence[str],
               ctx: Optional[ExecutionContext] = None
               ) -> Tuple[np.ndarray, List[_GroupColumn]]:
    """Number each row's group key: ``(groups, columns)``.

    Groups are numbered densely in ascending key order (NULL first,
    column by column); ``columns`` holds one :class:`_GroupColumn` per
    key column, whose ``parts`` give each group's value. Several columns
    combine in mixed radix over the values each has in the batch and are
    split back apart with one ``divmod`` per column.

    A dictionary-coded column is numbered on its codes: the dictionary is
    sorted NULL-first, the rank order the decoded path assigns, and one
    ``bincount`` finds the codes present, so only the values of the
    batch's groups are decoded.
    """
    numbered = []
    row_parts = []
    for name in group_by:
        values = batch.column(name)
        dictionary = codes = None
        if isinstance(values, EncodedColumn):
            note_code_hit(ctx)
            dictionary = values.dictionary
            present = np.bincount(values.codes,
                                  minlength=len(dictionary)) > 0
            codes = np.flatnonzero(present)
            parts = (np.cumsum(present) - 1)[values.codes]
            distinct = dictionary.values[codes]
        elif values.dtype == object:
            keyed = [(v is not None, v) for v in values]
            uniques = sorted(set(keyed))
            lookup = {k: i for i, k in enumerate(uniques)}
            parts = np.fromiter((lookup[k] for k in keyed), dtype=np.int64,
                                count=len(keyed))
            distinct = np.empty(len(uniques), dtype=object)
            distinct[:] = [u[1] for u in uniques]
        else:
            distinct, parts = np.unique(values, return_inverse=True)
        numbered.append((distinct, dictionary, codes))
        row_parts.append(parts)
    if len(numbered) == 1:
        groups = row_parts[0]
        group_parts = [np.arange(len(numbered[0][0]))]
    else:
        combined = row_parts[0].astype(np.int64)
        for parts, (distinct, _, _) in zip(row_parts[1:], numbered[1:]):
            combined = combined * len(distinct) + parts
        combined, groups = np.unique(combined, return_inverse=True)
        group_parts = []
        for distinct, _, _ in reversed(numbered[1:]):
            combined, parts = np.divmod(combined, len(distinct))
            group_parts.append(parts)
        group_parts.append(combined)
        group_parts.reverse()
    return groups, [_GroupColumn(distinct, parts, dictionary, codes)
                    for (distinct, dictionary, codes), parts
                    in zip(numbered, group_parts)]


#: Group and value numbers stay below 2**31, so a (group so far, value
#: number) pair packs into one int64.
_PAIR_RADIX = 1 << 31


class _KeyDomain:
    """The distinct values of one key met so far, numbered in the order
    they were first met.

    The non-NULL values are kept sorted, so a batch's values are found
    with one ``searchsorted``. Values of one dtype kind compare as
    numbers; values of different kinds (an int column that arrives as
    Python objects in another batch) compare as Python objects, so
    ``1 == 1.0`` as in a dict. A dictionary-coded column also keeps the
    number of every code of each dictionary it met, so the values of one
    dictionary are looked up once however many batches share it.
    """

    def __init__(self):
        self.values: Optional[np.ndarray] = None   # sorted, non-NULL
        self.numbers = np.zeros(0, dtype=np.int64)  # the number of each
        self.null = -1                              # NULL's, once met
        self.size = 0
        self._codes: Dict[int, Tuple[Dictionary, np.ndarray]] = {}

    def number(self, column: _GroupColumn) -> np.ndarray:
        """The number of each of ``column.values``."""
        if column.dictionary is None:
            return self.find(column.values)
        held = self._codes.get(id(column.dictionary))
        if held is None:
            held = self._codes[id(column.dictionary)] = (
                column.dictionary,
                np.full(len(column.dictionary), -1, dtype=np.int64))
        known = held[1]
        numbers = known[column.codes]
        unmet = numbers < 0
        if unmet.any():
            numbers[unmet] = known[column.codes[unmet]] = self.find(
                column.values[unmet])
        return numbers

    def find(self, values: np.ndarray) -> np.ndarray:
        """The number of each of ``values`` (distinct, NULL only first);
        values not met before are numbered next, in the order given."""
        numbers = np.empty(len(values), dtype=np.int64)
        skip = int(values.dtype == object and len(values) > 0
                   and values[0] is None)
        if skip:
            if self.null < 0:
                self.null, self.size = self.size, self.size + 1
            numbers[0] = self.null
        known, rest = self._comparable(values[skip:])
        at = np.searchsorted(known, rest)
        hit = at < len(known)
        hit[hit] = known[at[hit]] == rest[hit]
        numbers[skip:][hit] = self.numbers[at[hit]]
        fresh = np.flatnonzero(~hit)
        if len(fresh):
            new = self.size + np.arange(len(fresh))
            self.size += len(fresh)
            numbers[skip + fresh] = new
            order = np.argsort(rest[fresh], kind="stable")
            added = rest[fresh][order]
            where = np.searchsorted(known, added)
            self.values = np.insert(known, where, added)
            self.numbers = np.insert(self.numbers, where, new[order])
        return numbers

    def find_all(self, values: np.ndarray) -> np.ndarray:
        """:meth:`find` for values that may repeat; new values are
        numbered in the order of their first occurrence."""
        distinct, first, inverse = np.unique(
            values, return_index=True, return_inverse=True)
        met = np.argsort(first)
        numbers = np.empty(len(distinct), dtype=np.int64)
        numbers[met] = self.find(distinct[met])
        return numbers[inverse]

    def _comparable(self, values: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """The known values and ``values`` in one dtype."""
        known = self.values
        if known is None or not len(known):
            self.values = values[:0]
            return self.values, values
        if known.dtype == values.dtype:
            return known, values
        kind = known.dtype.kind
        common = (np.result_type(known.dtype, values.dtype)
                  if kind == values.dtype.kind and kind in "biuf"
                  else np.dtype(object))
        self.values = known.astype(common)
        return self.values, values.astype(common)

    def ranks(self) -> np.ndarray:
        """The rank of each number in value order, NULL first."""
        ordered = self.numbers
        if self.null >= 0:
            ordered = np.concatenate([[self.null], ordered])
        ranks = np.empty(self.size, dtype=np.int64)
        ranks[ordered] = np.arange(self.size)
        return ranks


class _SlotTable:
    """A hash aggregate's groups: slots handed out in the order groups
    are first met (ascending key order within a batch), with each
    group's key.

    Each group column numbers its values in a :class:`_KeyDomain`; every
    further column folds (group so far, number in this column) into one
    int64, numbered by a domain of its own, so the last domain's numbers
    are the slots. No group is looked up one at a time.
    """

    def __init__(self, n_columns: int):
        self.columns = [_KeyDomain() for _ in range(n_columns)]
        self.pairs = [_KeyDomain() for _ in range(n_columns - 1)]
        #: Per group column, each slot's value and its number there.
        self.values: List[List[object]] = [[] for _ in range(n_columns)]
        self.numbers: List[List[np.ndarray]] = [[] for _ in range(n_columns)]
        self.size = 0

    def slots(self, keys: Sequence[_GroupColumn]) -> np.ndarray:
        """The slot of each group of a batch (:func:`_factorize`'s
        columns); groups not met before take the next slots, in order."""
        if not keys:            # a scalar aggregate is one group
            self.size = 1
            return _ONE_SEGMENT
        numbers = [domain.number(key)[key.parts]
                   for domain, key in zip(self.columns, keys)]
        slots = numbers[0]
        for domain, column in zip(self.pairs, numbers[1:]):
            slots = domain.find_all(slots * _PAIR_RADIX + column)
        new = slots >= self.size
        if new.any():
            self.size += int(np.count_nonzero(new))
            for key, number, values, held in zip(keys, numbers, self.values,
                                                 self.numbers):
                values += key.values[key.parts[new]].tolist()
                held.append(number[new])
        return slots

    def ordered(self) -> np.ndarray:
        """Every slot, in ascending key order (NULL first)."""
        if not self.size or not self.columns:
            return np.arange(self.size)
        ranks = [domain.ranks()[np.concatenate(numbers)]
                 for domain, numbers in zip(self.columns, self.numbers)]
        return np.lexsort(ranks[::-1])

    def keys(self, slots: np.ndarray) -> List[List[object]]:
        """Each group column's values for ``slots``, in that order."""
        at = slots.tolist()
        return [[values[i] for i in at] for values in self.values]

"""Sort operator with memory-grant accounting and spill.

Figure 3 of the paper contrasts plans that must sort (CSI scan + sort, or
B+ tree on the filter column + sort) with plans that exploit B+ tree sort
order (no sort at all, near-zero query memory). Figure 4's disk-based
aggregation behaviour comes from the same grant/spill machinery shared
with the hash aggregate.

The sort is a blocking operator: it drains its child, reserves workspace
memory for the materialized input, and — when the memory grant is
insufficient — charges an external-merge-sort spill (write + re-read of
the input) plus extra CPU, while still producing exact results.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import math

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import Batch, concat_batches
from repro.engine.encoded import EncodedColumn, note_code_hit
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import PhysicalOperator


class SortKey:
    """One ORDER BY term: a column name and direction."""

    __slots__ = ("column", "descending")

    def __init__(self, column: str, descending: bool = False):
        self.column = column
        self.descending = descending

    def __repr__(self) -> str:
        return f"{self.column} {'DESC' if self.descending else 'ASC'}"


class Sort(PhysicalOperator):
    """Full sort of the child's output by one or more keys.

    Sorting happens in *code space* whenever a key column arrives
    encoded: the per-segment dictionaries are sorted ascending with NULL
    first, and ``concat_batches`` preserves that invariant when it
    merges dictionaries across rowgroups, so ordering by the int32 codes
    produces exactly the permutation the decoded rank path computes
    (equal value iff equal code, and ``np.lexsort`` is stable either
    way). That is the code-space sort legality rule: dictionary sort
    order must equal value order — which :meth:`Dictionary.build` and
    the derived numeric code spaces guarantee by construction.

    ``limit`` (set by the materializer when a TOP sits directly above)
    enables the TOP-N fast path: a single encoded or integer key selects
    the first ``limit`` rows with ``np.partition`` instead of fully
    sorting, yielding the same rows in the same order as the full stable
    sort. Modeled costs are charged for the full sort either way — the
    fast path changes wall-clock only.
    """

    def __init__(self, child: PhysicalOperator, keys: Sequence[SortKey],
                 dop: int = 1, limit: Optional[int] = None):
        super().__init__(children=(child,), dop=dop)
        if not keys:
            raise ExecutionError("Sort needs at least one key")
        self.keys = list(keys)
        self.mode = child.mode
        self.limit = limit

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child().output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        if any(k.descending for k in self.keys):
            return []
        return [k.column for k in self.keys]

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        merged = concat_batches(self.child().execute(ctx))
        if merged is None:
            return
        n = len(merged)
        payload = merged.payload_bytes()
        in_memory = ctx.acquire_memory(payload)
        try:
            if not in_memory:
                # External merge sort: the whole input is written to tempdb
                # run files and read back during the merge.
                ctx.charge_spill(payload)
            cm = ctx.cost_model
            sort_cost = (n * max(1.0, math.log2(max(n, 2)))
                         * cm.sort_cpu_ms_per_row_log)
            if not in_memory:
                sort_cost *= cm.spill_cpu_multiplier
            ctx.charge_parallel_cpu(sort_cost, self.dop)

            order = self._argsort(merged, ctx)
            result = merged.take(order)
        finally:
            # The grant must be returned even when sorting raises or the
            # generator is closed before exhaustion.
            if in_memory:
                ctx.release_memory(payload)
        yield result

    def _argsort(self, batch: Batch, ctx: Optional[ExecutionContext] = None
                 ) -> np.ndarray:
        top_n = self._top_n_order(batch, ctx)
        if top_n is not None:
            return top_n
        # np.lexsort uses the last key as primary: feed keys reversed.
        arrays = []
        for key in reversed(self.keys):
            values = batch.column(key.column)
            if isinstance(values, EncodedColumn):
                # Code-space sort: dictionary order == value order, so
                # the int32 codes are already rank keys (NULL first).
                note_code_hit(ctx)
                values = values.codes
            else:
                values = _sortable_array(values)
            if key.descending:
                values = _descending_view(values)
            arrays.append(values)
        return np.lexsort(arrays)

    def _top_n_order(self, batch: Batch,
                     ctx: Optional[ExecutionContext]) -> Optional[np.ndarray]:
        """TOP-N selection when the one key is encoded (its codes order
        as its values do) or a plain integer column; None when the full
        sort must run."""
        if (self.limit is None or len(self.keys) != 1
                or not 0 < self.limit < len(batch)):
            return None
        key = self.keys[0]
        values = batch.column(key.column)
        if isinstance(values, EncodedColumn):
            note_code_hit(ctx)
            values = values.codes
        elif values.dtype.kind not in "iu":
            return None
        if key.descending:
            values = _descending_view(values)
        return _top_n(values, self.limit)

    def describe(self, ctx: Optional[ExecutionContext] = None) -> str:
        """One-line human-readable summary of this node."""
        head, tail = self._label_parts
        limit = f", top={self.limit}" if self.limit is not None else ""
        return f"{head}{limit}{tail}"

    @cached_property
    def _label_parts(self) -> Tuple[str, str]:
        """The static text of :meth:`describe` before and after the
        limit (set after the sort is built, when a TOP sits on it)."""
        return f"Sort({self.keys}", f") [{self.mode}, dop={self.dop}]"


def _sortable_array(values: np.ndarray) -> np.ndarray:
    """Object arrays (strings, NULLs) sort via rank codes; NULLs first."""
    if values.dtype != object:
        return values
    keyed = [(v is not None, v) for v in values]
    order = sorted(range(len(keyed)), key=lambda i: keyed[i])
    ranks = np.empty(len(values), dtype=np.int64)
    rank = 0
    previous = None
    for position, i in enumerate(order):
        if position > 0 and keyed[i] != previous:
            rank += 1
        ranks[i] = rank
        previous = keyed[i]
    return ranks


def _top_n(keys: np.ndarray, limit: int) -> np.ndarray:
    """The first ``limit`` positions of a stable ascending sort of
    ``keys`` (``0 < limit < len(keys)``): every row below the limit-th
    smallest key, then the first rows equal to it in input order, and
    that prefix stable-sorted — ties resolve to input order as in the
    full sort."""
    kth = np.partition(keys, limit - 1)[limit - 1]
    chosen = keys < kth
    ties = np.flatnonzero(keys == kth)
    chosen[ties[:limit - np.count_nonzero(chosen)]] = True
    prefix = np.flatnonzero(chosen)
    return prefix[np.argsort(keys[prefix], kind="stable")]


def _descending_view(values: np.ndarray) -> np.ndarray:
    """Keys whose ascending order is the descending order of ``values``.
    Integers (and the rank codes ``_sortable_array`` gives objects) are
    inverted bitwise: ``~x`` is ``-x - 1`` for signed and ``max - x`` for
    unsigned integers, so unlike negation it cannot overflow at
    ``INT64_MIN`` or above ``2**63``."""
    if values.dtype.kind == "f":
        return -values
    return ~values

"""The hash aggregate's grouping as it was before dense-code grouping,
kept as the reference.

``reference_factorize`` is ``_factorize`` as it was: group keys combined
in mixed radix over whole dictionaries, ranked by ``np.unique`` and
decoded back into key tuples with one ``divmod`` per (batch, group).
``ReferenceHashAggregate.execute`` is ``HashAggregate.execute`` as it
was: a ``slot_of`` dict from key tuple to slot, looked up once per
(batch, group), one grant request per new group in ascending key order,
and the result rows sorted by key in Python. The fold itself
(``_fold``, ``_GroupStates``) is the engine's; only the grouping around
it is the old one.

``tests/test_topn_and_grouping.py`` compares the operator against these
on the same inputs: rows, slot order, the ``acquire_memory`` sequence
and the spill flag.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import Batch, rows_to_batch
from repro.engine.encoded import EncodedColumn, note_code_hit
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import HashAggregate
from repro.engine.operators.aggregates import Spill, _GroupStates
from repro.engine.operators.base import BATCH_MODE


def reference_factorize(batch: Batch, group_by: Sequence[str],
                        ctx: Optional[ExecutionContext] = None
                        ) -> Tuple[np.ndarray, List[Tuple[object, ...]]]:
    """(code of each row, unique key tuples indexed by code)."""
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
    uniques: List[Tuple[object, ...]] = []
    for code in unique_combined.tolist():
        parts = []
        for values in reversed(per_column_values[1:]):
            code, part = divmod(code, len(values))
            parts.append(values[part])
        parts.append(per_column_values[0][code])
        uniques.append(tuple(reversed(parts)))
    return final_codes, uniques


class ReferenceHashAggregate(HashAggregate):
    """``HashAggregate`` with the old grouping; after ``execute``,
    ``slot_keys`` lists the key of every slot in slot order."""

    slot_keys: List[Tuple[object, ...]] = []

    def _reference_segments(self, batch, ctx):
        if not self.group_by:
            return ([()], None, np.zeros(1, dtype=np.intp),
                    np.array([len(batch)]))
        codes, uniques = reference_factorize(batch, self.group_by, ctx)
        sizes = np.bincount(codes, minlength=len(uniques))
        return (uniques, np.argsort(codes, kind="stable"),
                np.cumsum(sizes) - sizes, sizes)

    def execute(self, ctx: ExecutionContext):
        cm = ctx.cost_model
        entry_bytes = (
            len(self.group_by) * 16 + len(self.aggregates) * 24
            + cm.hash_entry_overhead_bytes
        )
        slot_of: Dict[Tuple[object, ...], int] = {}
        states = _GroupStates(len(self.aggregates))
        reserved = 0
        spill = None
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

                keys, *segments = self._reference_segments(batch, ctx)
                slots = [slot_of.get(key) for key in keys]
                if None in slots:
                    for j, key in enumerate(keys):
                        if slots[j] is None:
                            slots[j] = slot_of[key] = len(slot_of)
                            if spill is None:
                                if ctx.acquire_memory(entry_bytes):
                                    reserved += entry_bytes
                                else:
                                    spill = ctx.operator_state[self] = (
                                        Spill())
                    states.reserve(len(slot_of))
                self._fold(states, np.array(slots, dtype=np.intp), batch,
                           *segments, ctx)
            if not slot_of and not self.group_by:
                slot_of[()] = 0
            self.slot_keys = list(slot_of)
            keys = list(slot_of)
            rows = []
            if keys:
                every = np.arange(len(keys))
                columns = list(zip(*keys)) if self.group_by else []
                columns += [states.column(i, spec, every)
                            for i, spec in enumerate(self.aggregates)]
                rows = list(zip(*columns))
            rows.sort(key=lambda r: tuple(
                (v is not None, v) for v in r[:len(self.group_by)]))
            result = rows_to_batch(rows, self.output_columns)
        finally:
            if reserved:
                ctx.release_memory(reserved)
        if result is not None:
            yield result

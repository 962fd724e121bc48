"""The segmented aggregate fold against the fold it replaced.

``reference_fold`` is the per-group fold ``HashAggregate`` and
``StreamAggregate`` ran before the segmented one: one Python call per
(batch, group), each gathering the group's rows and reducing them with
decoded arithmetic. It is kept here as the reference: over random inputs
the operators must produce its rows bit for bit (floats compared by
their bytes) and charge what it charges — the same ``QueryMetrics``,
including the batch at which a small grant spills.
"""

import dataclasses
import itertools
import struct

import numpy as np
from hypothesis import given, strategies as st

from repro.engine.batch import Batch, batch_to_rows
from repro.engine.encoded import EncodedColumn, maybe_materialize
from repro.engine.expressions import Arithmetic, ColumnRef, Literal, eval_batch
from repro.engine.metrics import ExecutionContext
from repro.engine.operators import AggregateSpec, HashAggregate, StreamAggregate
from repro.engine.operators.base import BATCH_MODE, PhysicalOperator
from repro.storage.compression import Dictionary
from tests.oracle import examples

#: Counted per (batch, encoded argument) now, per (batch, group) then.
COUNTERS = ("code_path_hits", "code_path_fallbacks")


def null_first(key):
    return tuple((v is not None, v) for v in key)


class _State:
    def __init__(self, n_aggs):
        self.sums = [0.0] * n_aggs
        #: The exact sum while every value summed is an integer (the
        #: ``sqlite3`` rule), else None.
        self.ints = [0] * n_aggs
        self.counts = [0] * n_aggs
        self.mins = [None] * n_aggs
        self.maxs = [None] * n_aggs
        self.total = 0


def _update(state, specs, args, indices):
    state.total += len(indices)
    for i, values in enumerate(args):
        if values is None:
            continue
        selected = values[indices]
        if selected.dtype == object:
            selected = np.array(
                [v for v in selected if v is not None], dtype=object)
            if len(selected) == 0:
                continue
            state.counts[i] += len(selected)
            if specs[i].func in ("sum", "avg"):
                total = sum(selected)
                state.sums[i] += float(total)
                _add_exact(state, i, total)
            lo, hi = min(selected), max(selected)
        else:
            state.counts[i] += len(selected)
            state.sums[i] += float(selected.sum())
            _add_exact(state, i, sum(selected.tolist()))
            lo, hi = selected.min().item(), selected.max().item()
        if state.mins[i] is None or lo < state.mins[i]:
            state.mins[i] = lo
        if state.maxs[i] is None or hi > state.maxs[i]:
            state.maxs[i] = hi


def _add_exact(state, i, total):
    if state.ints[i] is not None:
        state.ints[i] = total + state.ints[i] if type(total) is int else None


def _finalize(spec, state, i):
    total = state.sums[i] if state.ints[i] is None else state.ints[i]
    if spec.func == "sum":
        return float(total) if state.counts[i] else None
    if spec.func == "count":
        return state.total if spec.expr is None else state.counts[i]
    if spec.func == "avg":
        return total / state.counts[i] if state.counts[i] else None
    return state.mins[i] if spec.func == "min" else state.maxs[i]


def reference_fold(op, ctx):
    """The rows ``op.execute(ctx)`` must produce, charging ``ctx`` what it
    must charge; returns ``(rows, spilled)``."""
    cm, specs, hashed = ctx.cost_model, op.aggregates, isinstance(op, HashAggregate)
    entry_bytes = (len(op.group_by) * 16 + len(specs) * 24
                   + cm.hash_entry_overhead_bytes)
    groups, runs, reserved, spilled = {}, [], 0, False
    for batch in op.child().execute(ctx):
        if hashed:
            op.charge_rows(ctx, len(batch))
            cost = len(batch) * cm.hash_cpu_ms_per_row
            if op.mode == BATCH_MODE:
                cost *= cm.batch_cpu_ms_per_row / cm.row_cpu_ms_per_row
            if spilled:
                cost *= cm.spill_cpu_multiplier
                ctx.charge_spill(batch.payload_bytes())
            ctx.charge_parallel_cpu(cost, op.dop)
        else:
            ctx.charge_parallel_cpu(
                len(batch) * cm.stream_agg_cpu_ms_per_row, op.dop)
        args = [None if spec.expr is None
                else maybe_materialize(eval_batch(spec.expr, batch))
                for spec in specs]
        keys = list(zip(*(maybe_materialize(batch.column(name)).tolist()
                          for name in op.group_by))) or [()] * len(batch)
        if hashed:
            positions = {}
            for at, key in enumerate(keys):
                positions.setdefault(key, []).append(at)
            for key in sorted(positions, key=null_first):
                if key not in groups:
                    groups[key] = _State(len(specs))
                    if not spilled:
                        if ctx.acquire_memory(entry_bytes):
                            reserved += entry_bytes
                        else:
                            spilled = True
                _update(groups[key], specs, args, np.array(positions[key]))
        else:
            for key, run in itertools.groupby(range(len(keys)),
                                              key=keys.__getitem__):
                if not runs or runs[-1][0] != key:
                    runs.append((key, _State(len(specs))))
                _update(runs[-1][1], specs, args, np.array(list(run)))
    ctx.release_memory(reserved)
    if hashed:
        runs = sorted(groups.items(), key=lambda item: null_first(item[0]))
    if not runs and not op.group_by:
        runs = [((), _State(len(specs)))]
    return [key + tuple(_finalize(spec, state, i)
                        for i, spec in enumerate(specs))
            for key, state in runs], spilled


# ------------------------------------------------------------------ inputs

class Batches(PhysicalOperator):
    """Hands out prepared batches, claiming to be sorted by ``ordering``."""

    mode = BATCH_MODE

    def __init__(self, batches, ordering=()):
        super().__init__()
        self.batches, self.ordering = batches, list(ordering)

    @property
    def output_columns(self):
        return self.batches[0].column_names()

    @property
    def output_ordering(self):
        return self.ordering

    def execute(self, ctx):
        yield from self.batches


def object_array(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def make_columns(rng, n_rows, n_groups):
    """Group keys and one argument of every kind the fold distinguishes."""
    g = rng.integers(0, n_groups, n_rows)
    ints = rng.integers(-2 ** 40, 2 ** 40, n_rows)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-8, 12, n_rows)
    few = rng.integers(0, 9, n_rows)
    # NULLs scattered, and NULL for every row of the even groups: those
    # groups have no value to sum, and batches where nothing is left.
    null = (rng.random(n_rows) < 0.3) | (g % 2 == 0)

    def nullable(values):
        return object_array([None if gone else value
                             for value, gone in zip(values.tolist(), null)])
    return {
        "g": g,
        "h": nullable(np.char.add("k", (g % 3).astype(str))),
        "i": ints,
        "f": floats,
        "ni": nullable(ints),
        "nf": nullable(floats),
        "few_i": few * 1000 - 4000,
        "few_f": few * 0.1,
        "few_ni": nullable(few - 4),
        "s": object_array([f"s{v}" for v in few.tolist()]),
        "ns": nullable(np.char.add("s", few.astype(str))),
        "nothing": object_array([None] * n_rows),
    }


ARGUMENTS = ("i", "f", "ni", "nf", "few_i", "few_f", "few_ni", "s", "ns",
             "nothing")
#: Low-cardinality columns a columnstore hands out dictionary-coded: an
#: integer, a float and an object (nullable integer, string) dictionary.
ENCODABLE = ("few_i", "few_f", "few_ni", "s", "ns", "nothing", "h")


def specs_for():
    specs = [AggregateSpec("count", None, "n"),
             AggregateSpec("sum", Arithmetic("*", ColumnRef("i"), Literal(2)),
                           "sum_expr")]
    for name in ARGUMENTS:
        functions = ("count", "min", "max")
        if name not in ("s", "ns"):
            functions += ("sum", "avg")
        specs += [AggregateSpec(func, ColumnRef(name), f"{func}_{name}")
                  for func in functions]
    return specs


def cut(columns, order, size, encoded):
    batches = []
    for start in range(0, len(order), size):
        rows = order[start:start + size]
        batch = {name: values[rows] for name, values in columns.items()}
        if encoded:
            for name in ENCODABLE:   # a dictionary per batch, as per segment
                dictionary = Dictionary.build(batch[name])
                batch[name] = EncodedColumn(
                    dictionary.encode(batch[name]), dictionary)
        batches.append(Batch(batch))
    return batches


def bits(rows):
    return [tuple(struct.pack(">d", v) if isinstance(v, float) else v
                  for v in row) for row in rows]


def metrics_of(ctx):
    return {name: value
            for name, value in dataclasses.asdict(ctx.metrics).items()
            if name not in COUNTERS}


def engine_fold(op, ctx):
    """``op.execute(ctx)`` in ``reference_fold``'s shape."""
    rows = [row for batch in op.execute(ctx)
            for row in batch_to_rows(batch, op.output_columns)]
    # A stream never spills, and keeps no spill record.
    return rows, ctx.operator_state.get(op) is not None


@examples(60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(1, 1), (6, 1), (40, 2), (40, 7), (300, 50),
                              (9000, 4), (9000, 3000)]),
       size=st.sampled_from([1, 7, 4096]),
       group_by=st.sampled_from([(), ("g",), ("h",), ("g", "h")]),
       operator=st.sampled_from([HashAggregate, StreamAggregate]),
       encoded=st.booleans(),
       grant=st.sampled_from([None, 2_000]))
def test_fold_equals_the_reference(seed, shape, size, group_by, operator,
                                   encoded, grant):
    n_rows, n_groups = shape
    if size == 1:
        n_rows = min(n_rows, 300)
    rng = np.random.default_rng(seed)
    columns = make_columns(rng, n_rows, n_groups)
    order = np.arange(n_rows)
    if operator is StreamAggregate:     # sorted input, equal keys adjacent
        keys = list(zip(*(columns[name].tolist() for name in group_by)))
        order = np.array(sorted(order.tolist(),
                                key=lambda at: null_first(keys[at])),
                         dtype=np.intp) if group_by else order
    batches = cut(columns, order, size, encoded)

    def run(execute):
        op = operator(Batches(batches, group_by), list(group_by), specs_for())
        ctx = ExecutionContext(memory_grant_bytes=grant)
        return execute(op, ctx), metrics_of(ctx), ctx.memory_in_use

    (rows, spilled), metrics, in_use = run(engine_fold)
    (want_rows, want_spilled), want_metrics, _ = run(reference_fold)
    assert bits(rows) == bits(want_rows)
    assert [list(map(type, row)) for row in rows] \
        == [list(map(type, row)) for row in want_rows]
    assert spilled == want_spilled
    assert metrics == want_metrics
    assert in_use == 0


def test_a_small_grant_spills_mid_stream():
    """The example the property cannot promise to draw: the grant holds
    some of the groups, so the fold starts in memory and spills at the
    batch the reference does."""
    columns = make_columns(np.random.default_rng(3), 9000, 3000)
    batches = cut(columns, np.arange(9000), 4096, encoded=True)
    operator = HashAggregate(Batches(batches), ["g"], specs_for())

    def run(execute):
        ctx = ExecutionContext(memory_grant_bytes=2_000_000)
        return execute(operator, ctx), metrics_of(ctx)

    (rows, spilled), metrics = run(engine_fold)
    (want_rows, want_spilled), want_metrics = run(reference_fold)
    assert spilled and want_spilled
    assert metrics["spilled_bytes"] > 0
    assert 0 < metrics["memory_peak_bytes"] <= 2_000_000
    assert bits(rows) == bits(want_rows)
    assert metrics == want_metrics

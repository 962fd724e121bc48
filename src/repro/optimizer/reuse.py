"""Plan reuse: a SELECT template whose slots are comparison values keeps
its operator trees, and an execution runs a kept tree with its values.

The executor keeps them on the template (the one the
:class:`~repro.sql.cache.StatementCache` holds). A kept tree holds a
``Param(slot)`` wherever the template has a slot, and runs with the
execution's values as ``ctx.params``.

**Reusable.** Decided at a template's first successful bind
(:func:`analyse`): every slot is the value side of a top-level WHERE
conjunct ``column op ?`` (``op`` one of ``= < <= > >=``, the column on
either side) or ``column BETWEEN ? AND ?``. No slot sits in TOP, IN,
arithmetic, the select list or ON. The column is not DATE-typed (the
binder converts date strings by value). It is named by no other WHERE
conjunct, or by exactly one other slot conjunct that bounds it from the
opposite side (``col >= ? AND col < ?``): two bounds on one side would
intersect into a range whose source depends on the values.

**Bound once per value types.** The template keeps the statement bound
with a ``Param`` in each slot. The binder's checks on a value (a string
against a number column, a number against a VARCHAR) depend only on its
type, so once a bind of some value types succeeded, a later execution
with the same types is not bound: its WHERE is rebuilt from the kept one
(:func:`rebound`, ``expressions.with_values``). Other types bind, and
fail, as before.

**Equality-only templates** skip the optimizer too. When every slot is a
``column = ?`` value, the optimizer sees a value only through
``ColumnStats.equality_selectivity``, a constant unless the value is a
number outside ``[min, max]``. A *signature*, per slot the value's type
and that bit (``ColumnStats.outside_range``), then decides the plan: a
plan is kept under ``(catalog, options, signature)``, options being the
run's ``(cold, memory_grant_bytes, concurrent_queries)``. A later
execution with that signature (:func:`reuse_plan`) is neither bound,
optimized nor materialized, and reports the kept plan, whose estimates
are the ones optimizing it would produce.

**Range templates** (and equality plans whose optimization reported a
missing index, so that the report repeats) are optimized on every
execution, by the unchanged optimizer, on their own values. The fresh
plan's :meth:`~repro.optimizer.plans.PlannedQuery.decisions` (what the
materializer builds from it, estimates and values left out) key the
kept tree, under ``(catalog, decisions)``: an execution whose plan
decides as a kept one did runs that tree, and reports its fresh plan, so
EXPLAIN, estimates, Query Store and charges are those of an uncached
execution. A sweep of one ``col < ?`` text therefore flips plan and dop
where literal texts do.

**Valid.** A tree is used only while ``database.table(t)``,
``catalog.stats(t)`` and ``catalog.indexes_for(t)`` return the very
objects it was costed on, for every table it reads (the calls the
optimizer makes, so DDL, ``refresh()``, an auto-stats rebuild or a
rematerialised ``dm_*`` view retire it exactly when replanning would
see a change), and while each table's primary is the one its clustered
seeks were built over.

**Kept.** The execution that keeps a tree copies its plan once with the
kept ``Param`` conjuncts in place of its own (:func:`_parametrize`),
builds the copy's tree, and runs it. A plan the copy cannot express is
run but not kept: a ``BETWEEN ? AND ?`` whose equal values made a point
that a composite-key seek continues past.

**Shared.** The tree holds no per-execution state, so sessions run it at
once.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core.errors import CatalogError
from repro.core.types import TypeKind
from repro.engine.expressions import (
    _FLIPPED,
    Between,
    ColumnRange,
    ColumnRef,
    Comparison,
    Literal,
    Param,
    conjuncts,
    make_and,
    with_values,
)
from repro.optimizer.plans import AccessPathNode, PlannedQuery
from repro.sql.ast import SelectStmt
from repro.sql.parser import Template, instantiate, slot_index

#: Value types a signature classes; any other takes the range path.
_CLASSED_TYPES = frozenset((int, float, str, bool, type(None)))
#: Comparison operators whose value a slot may be, by the side of the
#: column they bound (the column on the left).
_LOWER, _UPPER = frozenset((">", ">=")), frozenset(("<", "<="))
_OPS = _LOWER | _UPPER | {"="}


class _Marker:
    """Stands in slot ``index``'s value when :func:`analyse` binds a
    template once to learn where each slot lands."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class TemplatePlans:
    """A reusable template: what it binds to, where its slots land, and
    its kept trees (``key -> _Entry``, least recently used first; the
    statement cache inserts, touches and evicts them)."""

    __slots__ = ("tables", "slots", "positions", "equality_only", "bound",
                 "parts", "types", "entries")

    def __init__(self, tables: Tuple, slots: Tuple, positions: Tuple,
                 equality_only: bool, bound):
        #: ``((name, Table), ...)``: the tables the template bound to.
        self.tables = tables
        #: Per slot, in slot order: ``(table name, column)``.
        self.slots = slots
        #: Positions in the bound WHERE of the conjuncts holding slots.
        self.positions = positions
        #: Whether every slot is a ``column = ?`` value.
        self.equality_only = equality_only
        #: The bound statement with ``Param(slot)`` in each slot, and
        #: the conjuncts of its WHERE.
        self.bound = bound
        self.parts = tuple(conjuncts(bound.where))
        #: Value-type tuples a bind of this template has accepted.
        self.types: set = set()
        self.entries: "OrderedDict[tuple, _Entry]" = OrderedDict()


class _Entry:
    """One kept plan, the operator tree built from it, and the catalog
    objects it was costed on."""

    __slots__ = ("planned", "root", "cost_model", "design")

    def __init__(self, planned, root, cost_model, design):
        #: The plan with a ``Param`` for each slot, and its operators.
        self.planned = planned
        self.root = root
        self.cost_model = cost_model
        #: ``((name, TableStats, descriptor list, primary), ...)``.
        self.design = design


def _bounds(conj) -> Optional[Tuple[str, Tuple[Tuple[object, str], ...]]]:
    """``(column name, ((value side, op with the column on the left),
    ...))`` of a conjunct a slot may be the value of, else None."""
    if isinstance(conj, Between):
        if isinstance(conj.subject, ColumnRef):
            return conj.subject.name, ((conj.low, ">="), (conj.high, "<="))
        return None
    if not isinstance(conj, Comparison) or conj.op not in _OPS:
        return None
    if isinstance(conj.left, ColumnRef):
        return conj.left.name, ((conj.right, conj.op),)
    if isinstance(conj.right, ColumnRef):
        return conj.right.name, ((conj.left, _FLIPPED[conj.op]),)
    return None


def _marker(node) -> Optional[int]:
    """The slot a bound value side holds, else None."""
    if isinstance(node, Literal) and isinstance(node.value, _Marker):
        return node.value.index
    return None


def analyse(template: Template, binder) -> Optional[TemplatePlans]:
    """The template's :class:`TemplatePlans` if it is reusable (see the
    module docstring), else None. Binds the template once with a marker
    in each slot to find the bound conjunct and column of every slot."""
    statement = template.statement
    if not isinstance(statement, SelectStmt):
        return None
    in_bounds = 0
    for conj in conjuncts(statement.where):
        found = _bounds(conj)
        if found is not None:
            in_bounds += sum(slot_index(value) is not None
                             for value, _ in found[1])
    if in_bounds != template.n_slots:
        return None
    bound = binder.bind(instantiate(
        template, [_Marker(i) for i in range(template.n_slots)]))
    parts = conjuncts(bound.where)
    named = Counter(name for conj in parts for name in set(conj.columns()))
    slots = [None] * template.n_slots
    sides: Dict[str, list] = {}
    positions, params = [], list(parts)
    for position, conj in enumerate(parts):
        found = _bounds(conj)
        if found is None or any(_marker(value) is None
                                for value, _ in found[1]):
            continue
        column, values = found
        alias, name = column.split(".", 1)
        table = bound.table_by_alias(alias).table
        if table.schema.column(name).col_type.kind is TypeKind.DATE:
            return None
        for value, _ in values:
            slots[_marker(value)] = (table.name, name)
        sides.setdefault(column, []).append(
            "both" if len(values) > 1 or values[0][1] == "=" else
            "lower" if values[0][1] in _LOWER else "upper")
        positions.append(position)
        params[position] = _with_params(conj)
    for column, bounded in sides.items():
        if named[column] != len(bounded) or len(bounded) > 1 and \
                sorted(bounded) != ["lower", "upper"]:
            return None
    if None in slots:
        return None
    equality_only = all(isinstance(parts[p], Comparison) and
                        parts[p].op == "=" for p in positions)
    return TemplatePlans(_tables(bound), tuple(slots), tuple(positions),
                         equality_only,
                         replace(bound, where=make_and(params)))


def _with_params(conj):
    """A slot conjunct with ``Param(slot)`` for each marker."""
    changes = {name: Param(_marker(getattr(conj, name)))
               for name in ("left", "right", "low", "high")
               if _marker(getattr(conj, name, None)) is not None}
    return replace(conj, **changes)


def _tables(bound) -> Tuple:
    """``((name, Table), ...)`` of the distinct tables ``bound`` reads."""
    return tuple({bound_table.table.name: bound_table.table
                  for bound_table in bound.tables}.items())


def _same_tables(plans: TemplatePlans, database) -> bool:
    """Whether every table the template bound to is still the one its
    name resolves to."""
    try:
        return all(database.table(name) is table
                   for name, table in plans.tables)
    except CatalogError:
        return False


def _signature(plans: TemplatePlans, values: Sequence[object],
               stats: Dict[str, object]) -> Optional[tuple]:
    """Per slot ``(type, outside [min, max])``, or None when a value is
    not one a signature classes."""
    signature = []
    for (table, column), value in zip(plans.slots, values):
        kind = type(value)
        if kind not in _CLASSED_TYPES or value != value:      # NaN
            return None
        try:
            outside = stats[table].columns[column].outside_range(value)
        except TypeError:       # the optimizer raises it; let it
            return None
        signature.append((kind, outside))
    return tuple(signature)


def _valid(entry: Optional[_Entry], plans: TemplatePlans, catalog,
           stats: Dict[str, object]) -> bool:
    """Whether ``entry`` was costed on the catalog objects and built over
    the primaries that are current."""
    if entry is None or entry.cost_model is not catalog.database.cost_model:
        return False
    tables = dict(plans.tables)
    return all(stats[name] is table_stats
               and catalog.indexes_for(name) is indexes
               and tables[name].primary is primary
               for name, table_stats, indexes, primary in entry.design)


def reuse_plan(template: Template, values: Sequence[object],
               options: tuple, catalog) -> Optional[_Entry]:
    """The kept plan and tree of an equality-only template valid for
    ``values`` and ``options``, or None when it holds none."""
    plans = template.plans
    if not plans or not plans.equality_only or not plans.entries or \
            not _same_tables(plans, catalog.database):
        return None
    stats = {name: catalog.stats(name) for name, _ in plans.tables}
    key = (catalog, options, _signature(plans, values, stats))
    entry = plans.entries.get(key)
    if not _valid(entry, plans, catalog, stats):
        return None
    catalog.database.statement_cache.plan_hit(plans, key)
    return entry


def rebound(template: Template, values: Sequence[object], database):
    """The template's bound statement with ``values`` in its WHERE, made
    from the one kept with parameters; None when no bind of these value
    types succeeded, or a table it bound to was replaced."""
    plans = template.plans
    if not plans or tuple(map(type, values)) not in plans.types or \
            not _same_tables(plans, database):
        return None
    parts = list(plans.parts)
    for position in plans.positions:
        parts[position] = with_values(parts[position], values)
    bound = object.__new__(plans.bound.__class__)
    bound.__dict__.update(plans.bound.__dict__)
    bound.where = make_and(parts)
    return bound


def kept_tree(template: Template, values: Sequence[object], options: tuple,
              catalog, binder, bound, planned: PlannedQuery,
              reported_missing_index: bool, materialize) -> Optional[_Entry]:
    """After ``bound`` was optimized into ``planned``: analyse the
    template if it was not yet analysed against these tables, then
    return the kept tree this execution runs with its values. That is
    one kept earlier for a plan that decides as ``planned`` does, or one
    built and kept now; None when the template is not reusable or the
    plan cannot be kept. Counts the execution as one plan hit or miss."""
    plans = template.plans
    if plans is False:
        return None
    if plans is None or bound.tables is not plans.bound.tables and \
            plans.tables != _tables(bound):
        plans = template.plans = analyse(template, binder) or False
        if not plans:
            return None
    plans.types.add(tuple(map(type, values)))
    cache = catalog.database.statement_cache
    stats = {name: catalog.stats(name) for name, _ in plans.tables}
    signature = _signature(plans, values, stats) if \
        plans.equality_only and not reported_missing_index else None
    if signature is not None:
        key = (catalog, options, signature)
    else:
        key = (catalog, planned.decisions())
        entry = plans.entries.get(key)
        if _valid(entry, plans, catalog, stats):
            cache.plan_hit(plans, key)
            return entry
    entry = None
    if not planned.uses_hypothetical:
        shared = _parametrize(plans, bound, planned)
        if shared is not None:
            design = tuple((name, stats[name], catalog.indexes_for(name),
                            table.primary) for name, table in plans.tables)
            entry = _Entry(shared, materialize(shared),
                           catalog.database.cost_model, design)
    cache.keep_plan(plans, key, entry)
    return entry


def _parametrize(plans: TemplatePlans, bound, planned: PlannedQuery
                 ) -> Optional[PlannedQuery]:
    """A copy of ``planned`` with the kept ``Param`` conjuncts in place
    of ``bound``'s slot conjuncts: in a leaf's residual, and in the
    ranges a seek or segment elimination made of them. None if a slot
    conjunct is in no leaf, or a composite-key seek continues past a
    range that is a point only for these values."""
    where = conjuncts(bound.where)
    swaps = {id(where[p]): plans.parts[p] for p in plans.positions}
    placed = set()
    root = _copy(planned.root, swaps, placed)
    if len(placed) != len(swaps) or any(
            not r.is_point for leaf in root.leaves()
            for r in (leaf.seek_ranges or ())[:-1]):
        return None
    return PlannedQuery(root, planned.est_cost, planned.est_rows,
                        planned.uses_hypothetical)


def _copy(node, swaps: Dict[int, object], placed: set):
    clone = object.__new__(node.__class__)
    clone.__dict__.update(node.__dict__)
    clone.inputs = [_copy(child, swaps, placed) for child in node.inputs]
    if isinstance(node, AccessPathNode):
        parts = conjuncts(node.residual)
        placed.update(id(part) for part in parts if id(part) in swaps)
        clone.residual = make_and([swaps.get(id(part), part)
                                   for part in parts])
        ranges = {}
        for r in [*node.ranges.values(), *(node.seek_ranges or ())]:
            ranges.setdefault(id(r), _param_range(r, swaps))
        clone.ranges = {c: ranges[id(r)] for c, r in node.ranges.items()}
        if node.seek_ranges is not None:
            clone.seek_ranges = [ranges[id(r)] for r in node.seek_ranges]
    return clone


def _param_range(column_range: ColumnRange, swaps: Dict[int, object]
                 ) -> ColumnRange:
    """``column_range`` made again from the kept conjuncts its sources
    swap to: their ``Param`` values as its bounds. A slot's column is
    bounded by its slot conjuncts alone, at most one per side, so each
    bound comes from one of them."""
    if not column_range.sources or id(column_range.sources[0]) not in swaps:
        return column_range
    sources = tuple(swaps[id(conj)] for conj in column_range.sources)
    made = ColumnRange(sources=sources)
    for conj in sources:
        for value, op in _bounds(conj)[1]:
            if op not in _UPPER:
                made.low, made.low_inclusive = value, op != ">"
            if op not in _LOWER:
                made.high, made.high_inclusive = value, op != "<"
    return made

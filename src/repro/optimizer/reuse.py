"""Plan reuse: an equality-only SELECT is planned once per template.

A point lookup's B+ seek is a small part of its statement; binding and
optimizing it again for every key is most of the rest. For one class of
statement template the plan cannot depend on the values beyond a small
*signature*, so the executor keeps the plan on the template (the one the
:class:`~repro.sql.cache.StatementCache` already holds) and a later
execution with values of the same signature copies it instead of binding
and optimizing.

**Reusable.** Decided at a template's first successful bind
(:func:`analyse`): every slot is the value side of a top-level
``column = ?`` conjunct of WHERE (no slot in TOP, IN, BETWEEN, a range,
arithmetic, the select list or ON), and that column is not DATE-typed
and is named by no other WHERE conjunct. The optimizer then sees a value
only through ``ColumnStats.equality_selectivity``, which is a constant
unless the value is a number outside ``[min, max]``.

**Signature.** Per slot, the value's type and that out-of-range bit
(``ColumnStats.outside_range``); a plan is kept under ``(catalog,
options, signature)``, options being the run's ``(cold,
memory_grant_bytes, concurrent_queries)`` and the catalog the one whose
statistics it was costed on (sessions share one; executors made apart
keep apart plans instead of replacing each other's). Values of other
types (and NaN) are not classed: such a statement takes the uncached
path.

**Valid.** A plan is used only while ``database.table(t)``,
``catalog.stats(t)`` and ``catalog.indexes_for(t)`` return the very
objects it was costed on, for every table it reads — the calls the
optimizer itself makes, so DDL, ``refresh()``, an auto-stats rebuild or
a rematerialised ``dm_*`` view retire it exactly when replanning would
see a change. A plan whose optimization reported a missing index is not
kept, so ``dm_db_missing_index_details`` counts every execution.

**Hit.** The plan's nodes are copied; each leaf's residual is rebuilt
with the new values (the binder's orientation kept) and its ranges are
re-extracted from that residual through
:func:`~repro.optimizer.optimizer.access_ranges`, so a seek still drops
the conjuncts it folds by identity. Estimates, costs and the plan shape
are the cached ones, which for a reusable template are what optimizing
these values would produce.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.core.errors import CatalogError
from repro.core.types import TypeKind
from repro.engine.expressions import (
    ColumnRef,
    Comparison,
    Literal,
    conjuncts,
    extract_column_ranges,
    make_and,
)
from repro.optimizer.optimizer import access_ranges, bare_ranges
from repro.optimizer.plans import PlannedQuery
from repro.sql.ast import SelectStmt
from repro.sql.parser import Template, instantiate, slot_index

#: Value types a signature classes; any other takes the uncached path.
_CLASSED_TYPES = frozenset((int, float, str, bool, type(None)))


class _Marker:
    """Stands in slot ``index``'s value when :func:`analyse` binds a
    template once to learn where each slot lands."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class TemplatePlans:
    """A reusable template: what it binds to, where its slots land, and
    its plans (``(catalog, options, signature) -> _Entry``, least
    recently used first; the statement cache inserts, touches and evicts
    them)."""

    __slots__ = ("tables", "slots", "entries")

    def __init__(self, tables: Tuple, slots: Tuple):
        #: ``((name, Table), ...)``: the tables the template bound to.
        self.tables = tables
        #: Per slot, in slot order: ``(position of its conjunct in the
        #: bound WHERE, table name, column)``.
        self.slots = slots
        self.entries: "OrderedDict[tuple, _Entry]" = OrderedDict()


class _Entry:
    """One cached plan and the catalog objects it was costed on."""

    __slots__ = ("planned", "cost_model", "design", "leaves")

    def __init__(self, planned, cost_model, design, leaves):
        self.planned = planned
        self.cost_model = cost_model
        #: ``((name, TableStats, descriptor list), ...)``.
        self.design = design
        #: ``id(leaf) -> parts`` of its residual: a conjunct kept as it
        #: is, or ``(slot, column, column_left)`` for a slot's equality.
        self.leaves = leaves


def _equality_sides(conj) -> Optional[Tuple[ColumnRef, object]]:
    """``(column, other side)`` of a ``column = x`` / ``x = column``
    comparison, else None."""
    if not isinstance(conj, Comparison) or conj.op != "=":
        return None
    if isinstance(conj.left, ColumnRef):
        return conj.left, conj.right
    if isinstance(conj.right, ColumnRef):
        return conj.right, conj.left
    return None


def analyse(template: Template, binder) -> Optional[TemplatePlans]:
    """The template's :class:`TemplatePlans` if it is reusable (see the
    module docstring), else None. Binds the template once with a marker
    in each slot to find the bound conjunct and column of every slot."""
    statement = template.statement
    if not isinstance(statement, SelectStmt):
        return None
    in_equalities = 0
    for conj in conjuncts(statement.where):
        sides = _equality_sides(conj)
        if sides is not None and slot_index(sides[1]) is not None:
            in_equalities += 1
    if in_equalities != template.n_slots:
        return None
    bound = binder.bind(instantiate(
        template, [_Marker(i) for i in range(template.n_slots)]))
    parts = conjuncts(bound.where)
    named = Counter(name for conj in parts for name in set(conj.columns()))
    slots = [None] * template.n_slots
    for position, conj in enumerate(parts):
        sides = _equality_sides(conj)
        if sides is None or not isinstance(sides[1], Literal) or \
                not isinstance(sides[1].value, _Marker):
            continue
        column = sides[0].name
        alias, name = column.split(".", 1)
        table = bound.table_by_alias(alias).table
        if named[column] != 1 or \
                table.schema.column(name).col_type.kind is TypeKind.DATE:
            return None
        slots[sides[1].value.index] = (position, table.name, name)
    return TemplatePlans(_tables(bound), tuple(slots))


def _tables(bound) -> Tuple:
    """``((name, Table), ...)`` of the distinct tables ``bound`` reads."""
    return tuple({bound_table.table.name: bound_table.table
                  for bound_table in bound.tables}.items())


def _signature(plans: TemplatePlans, values: Sequence[object],
               stats: Dict[str, object]) -> Optional[tuple]:
    """Per slot ``(type, outside [min, max])``, or None when a value is
    not one a signature classes."""
    signature = []
    for (_, table, column), value in zip(plans.slots, values):
        kind = type(value)
        if kind not in _CLASSED_TYPES or value != value:      # NaN
            return None
        try:
            outside = stats[table].columns[column].outside_range(value)
        except TypeError:       # the optimizer raises it; let it
            return None
        signature.append((kind, outside))
    return tuple(signature)


def reuse_plan(template: Template, values: Sequence[object],
               options: tuple, catalog) -> Optional[PlannedQuery]:
    """The template's cached plan rebuilt for ``values``, or None when
    it holds no plan valid for them and ``options``."""
    plans = template.plans
    if not plans or not plans.entries:
        return None
    database = catalog.database
    try:
        if any(database.table(name) is not table
               for name, table in plans.tables):
            return None
    except CatalogError:
        return None
    stats = {name: catalog.stats(name) for name, _ in plans.tables}
    key = (catalog, options, _signature(plans, values, stats))
    entry = plans.entries.get(key)
    if entry is None or entry.cost_model is not database.cost_model:
        return None
    for name, table_stats, indexes in entry.design:
        if stats[name] is not table_stats or \
                catalog.indexes_for(name) is not indexes:
            return None
    database.statement_cache.plan_hit(plans, key)
    planned = entry.planned
    return PlannedQuery(
        root=_rebuild(planned.root, entry.leaves, values),
        est_cost=planned.est_cost, est_rows=planned.est_rows,
        uses_hypothetical=planned.uses_hypothetical)


def keep_plan(template: Template, values: Sequence[object], options: tuple,
              catalog, binder, bound, planned: PlannedQuery,
              reported_missing_index: bool) -> None:
    """After ``bound`` was optimized into ``planned``: analyse the
    template if it was not yet analysed against these tables, and keep
    the plan on it when it is reusable."""
    plans = template.plans
    if plans is False:
        return
    if plans is None or plans.tables != _tables(bound):
        plans = template.plans = analyse(template, binder) or False
        if not plans:
            return
    database = catalog.database
    design = tuple((name, catalog.stats(name), catalog.indexes_for(name))
                   for name, _ in plans.tables)
    signature = _signature(plans, values,
                           {name: stats for name, stats, _ in design})
    entry = None
    if signature is not None and not reported_missing_index:
        leaves = _leaf_parts(plans, bound, planned)
        if leaves is not None:
            entry = _Entry(planned, database.cost_model, design, leaves)
    database.statement_cache.keep_plan(
        plans, (catalog, options, signature), entry)


def _leaf_parts(plans: TemplatePlans, bound, planned: PlannedQuery
                ) -> Optional[Dict[int, list]]:
    """``id(leaf) -> parts`` for every leaf of ``planned`` (see
    :class:`_Entry`); None if a slot's conjunct is in no leaf residual."""
    where = conjuncts(bound.where)
    slot_of = {}
    for slot, (position, _, _) in enumerate(plans.slots):
        conj = where[position]
        sides = _equality_sides(conj)
        if sides is None or not isinstance(sides[1], Literal):
            return None
        slot_of[id(conj)] = (slot, sides[0], sides[0] is conj.left)
    leaves, placed = {}, set()
    for leaf in planned.root.leaves():
        parts = leaves[id(leaf)] = []
        for part in conjuncts(leaf.residual):
            slot = slot_of.get(id(part))
            if slot is not None:
                placed.add(id(part))
            parts.append(part if slot is None else slot)
    return leaves if len(placed) == len(slot_of) else None


def _rebuild(node, leaves: Dict[int, list], values: Sequence[object]):
    """A copy of the plan under ``node`` whose leaves' residuals and
    ranges are made from ``values``."""
    clone = object.__new__(node.__class__)
    clone.__dict__.update(node.__dict__)
    parts = leaves.get(id(node))
    if parts is None:
        clone.inputs = [_rebuild(child, leaves, values)
                        for child in node.inputs]
        return clone
    clone.residual = make_and([
        part if part.__class__ is not tuple else _equality(part, values)
        for part in parts])
    if node.ranges:
        ranges, clone.seek_ranges = access_ranges(
            node.descriptor,
            bare_ranges(extract_column_ranges(clone.residual)))
        clone.ranges = ranges or {}
    return clone


def _equality(part: tuple, values: Sequence[object]) -> Comparison:
    slot, column, column_left = part
    value = Literal(values[slot])
    if column_left:
        return Comparison("=", column, value)
    return Comparison("=", value, column)

"""Plan reuse: an equality-only SELECT is planned and built once per
template.

For one class of statement template the plan cannot depend on the
values beyond a small *signature*, so the executor keeps the plan and
the operator tree made from it on the template (the one the
:class:`~repro.sql.cache.StatementCache` holds), and a later execution
with values of the same signature runs that tree with its values.

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
optimizer makes, so DDL, ``refresh()``, an auto-stats rebuild or a
rematerialised ``dm_*`` view retire it exactly when replanning would
see a change — and while each table's primary is the one its tree's
clustered seeks were built over. A plan whose optimization reported a
missing index is not kept, so ``dm_db_missing_index_details`` counts
every execution.

**Kept.** The miss that keeps a plan copies it once with ``Param(slot)``
for each slot's value (:func:`_parametrize`) and runs the copy's tree.

**Hit.** Nothing is copied or built: the executor runs the kept tree
with the values as ``ctx.params``, which a seek's bounds, a columnstore
scan's elimination ranges and a residual read as they run. Estimates,
costs and plan shape are the cached ones: for a reusable template, what
optimizing these values would produce. The tree holds no per-execution
state, so sessions run it at once.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.core.errors import CatalogError
from repro.core.types import TypeKind
from repro.engine.expressions import (
    ColumnRange,
    ColumnRef,
    Comparison,
    Literal,
    Param,
    conjuncts,
    make_and,
)
from repro.optimizer.plans import AccessPathNode, PlannedQuery
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
    """One cached plan, the operator tree built from it, and the catalog
    objects it was costed on."""

    __slots__ = ("planned", "root", "cost_model", "design")

    def __init__(self, planned, root, cost_model, design):
        #: The plan with a ``Param`` for each slot, and its operators.
        self.planned = planned
        self.root = root
        self.cost_model = cost_model
        #: ``((name, TableStats, descriptor list, primary), ...)``.
        self.design = design


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
               options: tuple, catalog) -> Optional[_Entry]:
    """The template's cached plan and tree valid for ``values`` and
    ``options``, or None when it holds none."""
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
    tables = dict(plans.tables)
    for name, table_stats, indexes, primary in entry.design:
        if stats[name] is not table_stats or \
                catalog.indexes_for(name) is not indexes or \
                tables[name].primary is not primary:
            return None
    database.statement_cache.plan_hit(plans, key)
    return entry


def keep_plan(template: Template, values: Sequence[object], options: tuple,
              catalog, binder, bound, planned: PlannedQuery,
              reported_missing_index: bool, materialize) -> Optional[_Entry]:
    """After ``bound`` was optimized into ``planned``: analyse the
    template if it was not yet analysed against these tables, and keep
    the plan and its tree (built by ``materialize``) on it when it is
    reusable. Returns the entry kept (None if none), which this
    execution runs."""
    plans = template.plans
    if plans is False:
        return None
    if plans is None or plans.tables != _tables(bound):
        plans = template.plans = analyse(template, binder) or False
        if not plans:
            return None
    database = catalog.database
    design = tuple((name, catalog.stats(name), catalog.indexes_for(name),
                    table.primary) for name, table in plans.tables)
    signature = _signature(plans, values,
                           {name: stats for name, stats, _, _ in design})
    entry = None
    if signature is not None and not reported_missing_index and \
            not planned.uses_hypothetical:
        shared = _parametrize(plans, bound, planned)
        if shared is not None:
            entry = _Entry(shared, materialize(shared), database.cost_model,
                           design)
    database.statement_cache.keep_plan(
        plans, (catalog, options, signature), entry)
    return entry


def _parametrize(plans: TemplatePlans, bound, planned: PlannedQuery
                 ) -> Optional[PlannedQuery]:
    """A copy of ``planned`` with ``Param(slot)`` for each slot's value:
    in the slot's equality conjunct, which must be in a leaf's residual,
    and in the range a seek or segment elimination made of it alone (no
    other conjunct names its column). None if a conjunct is in no leaf."""
    where, swaps = conjuncts(bound.where), {}
    for slot, (position, _, _) in enumerate(plans.slots):
        conj = where[position]
        sides = _equality_sides(conj)
        if sides is None or not isinstance(sides[1], Literal):
            return None
        column, param = sides[0], Param(slot)
        swaps[id(conj)] = (Comparison("=", column, param)
                           if column is conj.left
                           else Comparison("=", param, column)), param
    placed = set()
    root = _copy(planned.root, swaps, placed)
    if len(placed) != len(swaps):
        return None
    return PlannedQuery(root, planned.est_cost, planned.est_rows,
                        planned.uses_hypothetical)


def _copy(node, swaps: Dict[int, tuple], placed: set):
    clone = object.__new__(node.__class__)
    clone.__dict__.update(node.__dict__)
    clone.inputs = [_copy(child, swaps, placed) for child in node.inputs]
    if isinstance(node, AccessPathNode):
        parts = conjuncts(node.residual)
        placed.update(id(part) for part in parts if id(part) in swaps)
        clone.residual = make_and([swaps[id(part)][0] if id(part) in swaps
                                   else part for part in parts])
        ranges = {}
        for r in [*node.ranges.values(), *(node.seek_ranges or ())]:
            conj, param = swaps.get(id(r.sources[0]) if r.sources else None,
                                    (None, None))
            ranges.setdefault(id(r), r if conj is None else ColumnRange(
                param, param, sources=(conj,)))
        clone.ranges = {c: ranges[id(r)] for c, r in node.ranges.items()}
        if node.seek_ranges is not None:
            clone.seek_ranges = [ranges[id(r)] for r in node.seek_ranges]
    return clone

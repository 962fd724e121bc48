"""Cost-based query optimizer.

Planning pipeline for a bound SELECT:

1. **Access path selection** per table: enumerate the table's indexes
   (materialized plus any hypothetical ones injected by a what-if
   session), derive sargable ranges from the table-local conjuncts, and
   cost heap scan vs B+ tree seek/scan (with bookmark lookups when not
   covering) vs columnstore scan (with segment-elimination credit when
   the CSI is sorted on the ranged column).
2. **Join ordering**: greedy left-deep construction starting from the
   smallest filtered input, choosing hash / merge / index-nested-loop per
   edge by estimated cost.
3. **Aggregation strategy**: streaming aggregate when the input ordering
   covers the GROUP BY prefix, hash aggregate otherwise — with an
   expected-spill penalty when the estimated hash table exceeds the
   memory grant (Figure 4's regime change).
4. **Sort avoidance**: ORDER BY satisfied by the input ordering skips the
   sort (Figure 3's design (c)).
5. **Row-goal**: TOP limits propagate into the final cost.

The same planner serves normal execution, what-if costing (hypothetical
descriptors), and DTA's configuration search.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import OptimizerError
from repro.engine.expressions import (
    ColumnRange,
    Expr,
    conjuncts,
    extract_column_ranges,
    key_prefix_ranges,
    make_and,
)
from repro.optimizer import cost_model as cm
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostingOptions
from repro.optimizer.plans import (
    KIND_BTREE,
    KIND_CSI,
    KIND_HEAP,
    AccessPathNode,
    AggregateNode,
    FilterNode,
    IndexDescriptor,
    JoinNode,
    PlanNode,
    PlannedQuery,
    ProjectNode,
    SortNode,
    TopNode,
)
from repro.sql.binder import BoundSelect, JoinEdge

#: A sargable predicate must be at least this selective (estimated
#: fraction of rows) before an unserved access path is reported to
#: ``dm_db_missing_index_details`` — scans over unselective predicates
#: are the right plan, not a missing index.
MISSING_INDEX_SELECTIVITY_THRESHOLD = 0.25


class Optimizer:
    """Plans bound SELECT statements against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        options: Optional[CostingOptions] = None,
        extra_indexes: Optional[Dict[str, List[IndexDescriptor]]] = None,
        design_override: Optional[Dict[str, List[IndexDescriptor]]] = None,
        telemetry=None,
    ):
        self.catalog = catalog
        self.options = options or CostingOptions(
            cost_model=catalog.database.cost_model)
        #: Hypothetical indexes to consider in addition to the real design.
        self.extra_indexes = extra_indexes or {}
        #: Full replacement design per table (what-if configurations).
        self.design_override = design_override or {}
        #: Optional :class:`~repro.storage.telemetry.Telemetry` sink for
        #: missing-index observations. The Executor passes the database's
        #: telemetry; what-if sessions and DTA leave it None so
        #: hypothetical probing never pollutes the DMVs.
        self.telemetry = telemetry
        #: Whether planning reported a missing index; such a plan is
        #: never reused, so the report repeats with every execution.
        self.reported_missing_index = False

    # ------------------------------------------------------------ surface
    def optimize(self, bound: BoundSelect) -> PlannedQuery:
        """Plan a bound SELECT; returns the chosen plan and cost."""
        root = self._plan_joins(bound)
        root = self._plan_aggregation(bound, root)
        root = self._plan_order_and_top(bound, root)
        root = self._plan_projection(bound, root)
        uses_hypothetical = any(
            leaf.descriptor.hypothetical for leaf in root.leaves())
        return PlannedQuery(
            root=root, est_cost=root.est_cost, est_rows=root.est_rows,
            uses_hypothetical=uses_hypothetical,
        )

    def _indexes_for(self, table_name: str) -> List[IndexDescriptor]:
        if table_name in self.design_override:
            return list(self.design_override[table_name])
        indexes = list(self.catalog.indexes_for(table_name))
        indexes.extend(self.extra_indexes.get(table_name, []))
        return indexes

    # ---------------------------------------------------------- predicates
    def _split_local_predicates(self, bound: BoundSelect):
        """Partition WHERE conjuncts into per-alias and multi-alias sets."""
        local: Dict[str, List[Expr]] = {t.alias: [] for t in bound.tables}
        residual: List[Expr] = []
        for conj in conjuncts(bound.where):
            aliases = {
                name.split(".", 1)[0] for name in conj.columns()
            }
            if len(aliases) == 1:
                local[aliases.pop()].append(conj)
            else:
                residual.append(conj)
        return local, residual

    # --------------------------------------------------------- access paths
    def _plan_access_path(self, bound: BoundSelect, alias: str,
                          local_conjuncts: List[Expr]) -> AccessPathNode:
        bound_table = bound.table_by_alias(alias)
        table = bound_table.table
        stats = self.catalog.stats(table.name)
        table_rows = max(1, stats.row_count)
        needed = bound.referenced_columns(alias)
        if not needed:
            needed = [table.schema.columns[0].name]
        predicate = make_and(local_conjuncts)
        qualified_ranges = extract_column_ranges(predicate)
        ranges = bare_ranges(qualified_ranges)
        selectivity = stats.selectivity(qualified_ranges)
        out_rows = max(1.0, table_rows * selectivity)
        column_bytes = self.catalog.column_bytes(table.name)
        row_bytes = self.catalog.row_bytes(table.name)

        best: Optional[AccessPathNode] = None
        for descriptor in self._indexes_for(table.name):
            node = self._cost_one_path(
                alias, descriptor, table_rows, row_bytes, column_bytes,
                needed, ranges, stats, predicate, out_rows)
            if node is None:
                continue
            if best is None or node.est_cost < best.est_cost:
                best = node
        if best is None:
            raise OptimizerError(
                f"no usable access path for table {table.name!r}")
        self._observe_missing_index(table, ranges, needed, selectivity, best)
        return best

    def _observe_missing_index(self, table, ranges, needed, selectivity,
                               best) -> None:
        """Report to ``dm_db_missing_index_details`` when the chosen path
        settles for a scan despite a selective sargable predicate that no
        materialized B+ tree can seek.

        Observation-only (never affects the plan or its cost), and active
        only for real executions: what-if sessions plan with
        ``extra_indexes``/``design_override`` and no telemetry, so
        hypothetical probing records nothing.
        """
        if self.telemetry is None or self.extra_indexes or self.design_override:
            return
        if not ranges or best.access == "seek":
            return
        if selectivity > MISSING_INDEX_SELECTIVITY_THRESHOLD:
            return
        database = self.catalog.database
        if database.is_system_view(table.name):
            return
        # Served when any materialized B+ tree can seek on a ranged
        # leading key column — choosing a scan anyway means the index
        # exists but lost on cost, which is not a missing index.
        for descriptor in self.catalog.indexes_for(table.name):
            if descriptor.kind != KIND_BTREE or not descriptor.key_columns:
                continue
            if descriptor.key_columns[0] in ranges:
                return
        equality = tuple(sorted(
            c for c, r in ranges.items() if r.is_point))
        inequality = tuple(sorted(
            c for c, r in ranges.items() if not r.is_point))
        included = tuple(
            c for c in needed if c not in equality and c not in inequality)
        self.reported_missing_index = True
        self.telemetry.record_missing_index(
            table.name, equality, inequality, included,
            selectivity=selectivity)

    def _cost_one_path(self, alias, descriptor, table_rows, row_bytes,
                       column_bytes, needed, ranges, stats, predicate,
                       out_rows) -> Optional[AccessPathNode]:
        options = self.options
        node_ranges, seek_ranges = access_ranges(descriptor, ranges)
        if descriptor.kind == KIND_HEAP:
            node = AccessPathNode(alias, descriptor, "scan", list(needed),
                                  ranges=node_ranges, residual=predicate)
            node.est_cost = cm.cost_heap_scan(
                options, descriptor, table_rows, row_bytes, out_rows)
            node.est_rows = out_rows
            node.dop = cm.choose_dop(options, table_rows)
            return node

        if descriptor.kind == KIND_BTREE:
            seek_fraction = 1.0
            for key_column, key_range in zip(descriptor.key_columns,
                                             seek_ranges or ()):
                if key_column in stats.columns:
                    seek_fraction *= stats.column(
                        key_column).range_selectivity(key_range)
            if seek_ranges:
                rows_scanned = max(1.0, table_rows * seek_fraction)
                access = "seek"
            else:
                if not descriptor.is_primary and not descriptor.covers(needed):
                    # A full scan of a non-covering secondary with lookups
                    # is never competitive; skip it.
                    return None
                rows_scanned = float(table_rows)
                access = "scan"
            covering = descriptor.covers(needed)
            lookup_rows = 0.0 if covering else rows_scanned
            entry_bytes = cm.btree_entry_bytes(
                descriptor, row_bytes, column_bytes)
            height = max(2, int(math.log(max(table_rows, 2), 64)) + 1)
            node = AccessPathNode(
                alias, descriptor, access, list(needed),
                ranges=node_ranges, residual=predicate,
                needs_lookup=not covering,
            )
            node.seek_ranges = seek_ranges
            node.est_cost = cm.cost_btree_access(
                options, descriptor, rows_scanned, entry_bytes,
                lookup_rows=lookup_rows, tree_height=height)
            node.est_rows = out_rows
            node.dop = cm.choose_dop(options, rows_scanned)
            return node

        if descriptor.kind == KIND_CSI:
            if not descriptor.covers(needed):
                return None
            range_column = None
            selectivity = 1.0
            for column, column_range in ranges.items():
                if descriptor.sorted_on == column:
                    range_column = column
                    selectivity = stats.column(column).range_selectivity(
                        column_range)
                    break
            read_fraction = cm.csi_read_fraction(
                descriptor, range_column, selectivity)
            read_bytes = {
                c: descriptor.column_sizes.get(
                    c, table_rows * column_bytes.get(c, 8))
                for c in needed
            }
            node = AccessPathNode(
                alias, descriptor, "scan", list(needed),
                ranges=node_ranges, residual=predicate)
            node.est_cost = cm.cost_csi_scan(
                options, descriptor, table_rows, read_bytes, read_fraction)
            node.est_rows = out_rows
            node.dop = cm.choose_dop(options, table_rows * read_fraction)
            return node

        return None

    # --------------------------------------------------------------- joins
    def _plan_joins(self, bound: BoundSelect) -> PlanNode:
        local, residual = self._split_local_predicates(bound)
        paths = {
            alias: self._plan_access_path(bound, alias, local[alias])
            for alias in (t.alias for t in bound.tables)
        }
        if len(paths) == 1:
            root = next(iter(paths.values()))
        else:
            root = self._greedy_join_order(bound, paths)
        post = make_and(residual)
        if post is not None:
            node = FilterNode(root, post)
            node.est_rows = max(1.0, root.est_rows * 0.3)
            node.est_cost = root.est_cost + cm.cost_filter(
                self.options, root.est_rows, root.mode, root.dop)
            node.dop = root.dop
            root = node
        return root

    def _greedy_join_order(self, bound: BoundSelect,
                           paths: Dict[str, AccessPathNode]) -> PlanNode:
        remaining = dict(paths)
        # Start from the most selective (fewest estimated rows) input.
        start = min(remaining, key=lambda a: (remaining[a].est_rows,
                                              remaining[a].est_cost))
        current: PlanNode = remaining.pop(start)
        joined = {start}
        while remaining:
            candidates = []
            for alias, path in remaining.items():
                edges = _edges_between(bound.join_edges, joined, alias)
                if not edges:
                    continue
                join = self._best_join(bound, current, alias, path, edges)
                candidates.append((join.est_cost, alias, join))
            if not candidates:
                # Disconnected table: cartesian via hash join on a dummy
                # equality is not supported; pick any remaining and
                # cross-hash-join on first edge-less pairing.
                raise OptimizerError(
                    "query's join graph is disconnected; cross joins are "
                    "not supported")
            candidates.sort(key=lambda c: c[0])
            _, alias, join = candidates[0]
            current = join
            joined.add(alias)
            del remaining[alias]
        return current

    def _best_join(self, bound: BoundSelect, current: PlanNode, alias: str,
                   path: AccessPathNode, edges: List[JoinEdge]) -> JoinNode:
        options = self.options
        left_keys = []
        right_keys = []
        for edge in edges:
            if edge.right_alias == alias:
                left_keys.append(edge.left_qualified)
                right_keys.append(edge.right_qualified)
            else:
                left_keys.append(edge.right_qualified)
                right_keys.append(edge.left_qualified)

        table = bound.table_by_alias(alias).table
        stats = self.catalog.stats(table.name)
        join_col = right_keys[0].split(".", 1)[1]
        distinct = max(1, stats.column(join_col).n_distinct
                       if join_col in stats.columns else 1)
        out_rows = max(1.0, current.est_rows * path.est_rows / max(
            distinct, 1))
        out_rows = min(out_rows, current.est_rows * max(
            1.0, path.est_rows))

        candidates: List[JoinNode] = []

        # Hash join: build on the smaller side.
        if path.est_rows <= current.est_rows:
            build, probe = path, current
            build_keys, probe_keys = right_keys, left_keys
        else:
            build, probe = current, path
            build_keys, probe_keys = left_keys, right_keys
        hash_node = JoinNode("hash", build, probe, build_keys, probe_keys)
        hash_node.est_rows = out_rows
        hash_node.est_cost = (
            build.est_cost + probe.est_cost
            + cm.cost_hash_join(options, build.est_rows, probe.est_rows,
                                out_rows, probe.mode))
        hash_node.dop = max(build.dop, probe.dop)
        candidates.append(hash_node)

        # Index nested loop: inner B+ tree keyed on the join column.
        inl = self._try_inl(current, path, left_keys, right_keys, out_rows,
                            stats)
        if inl is not None:
            candidates.append(inl)

        # Merge join when both orderings already match the join keys.
        left_order = getattr(current, "output_ordering", [])
        right_order = getattr(path, "output_ordering", [])
        if (list(left_order[:len(left_keys)]) == left_keys
                and list(right_order[:len(right_keys)]) == right_keys):
            merge = JoinNode("merge", current, path, left_keys, right_keys)
            merge.est_rows = out_rows
            merge.est_cost = (
                current.est_cost + path.est_cost
                + cm.cost_merge_join(options, current.est_rows,
                                     path.est_rows, out_rows))
            merge.dop = max(current.dop, path.dop)
            candidates.append(merge)

        return min(candidates, key=lambda node: node.est_cost)

    def _try_inl(self, current: PlanNode, path: AccessPathNode,
                 left_keys: List[str], right_keys: List[str],
                 out_rows: float, stats) -> Optional[JoinNode]:
        """The cheapest nested-loop join into a B+ tree keyed on the join
        column: ``path`` — its columns and its residual, the inner
        table's local predicates that ``out_rows`` assumes — as a seek
        on that index per outer row."""
        if len(right_keys) != 1:
            return None
        join_col = right_keys[0].split(".", 1)[1]
        best: Optional[JoinNode] = None
        for descriptor in self._indexes_for(path.descriptor.table_name):
            if descriptor.kind != KIND_BTREE:
                continue
            if not descriptor.key_columns or \
                    descriptor.key_columns[0] != join_col:
                continue
            covering = descriptor.covers(path.columns)
            matches = max(0.001, stats.row_count / max(
                1, stats.column(join_col).n_distinct))
            inner_path = AccessPathNode(
                path.alias, descriptor, "seek", list(path.columns),
                ranges=None, residual=path.residual,
                needs_lookup=not covering)
            inner_path.est_rows = matches
            node = JoinNode("inl", current, inner_path,
                            left_keys, right_keys)
            node.est_rows = out_rows
            node.est_cost = current.est_cost + cm.cost_inl_join(
                self.options, current.est_rows, matches, not covering)
            node.dop = current.dop
            if best is None or node.est_cost < best.est_cost:
                best = node
        return best

    # ---------------------------------------------------------- aggregation
    def _plan_aggregation(self, bound: BoundSelect,
                          root: PlanNode) -> PlanNode:
        if not bound.is_aggregate:
            return root
        options = self.options
        ordering = getattr(root, "output_ordering", [])
        group_by = bound.group_by
        can_stream = bool(group_by) and list(
            ordering[:len(group_by)]) == list(group_by)
        n_groups = self._estimate_groups(bound, root)
        if can_stream:
            stream_cost = cm.cost_stream_aggregate(
                options, root.est_rows, root.dop)
            hash_cost, spill = cm.cost_hash_aggregate(
                options, root.est_rows, n_groups, root.mode, root.dop,
                n_aggregates=max(1, len(bound.aggregates)))
            if stream_cost <= hash_cost:
                node = AggregateNode("stream", root, group_by,
                                     bound.aggregates)
                node.est_cost = root.est_cost + stream_cost
            else:
                node = AggregateNode("hash", root, group_by,
                                     bound.aggregates, spill_expected=spill)
                node.est_cost = root.est_cost + hash_cost
        else:
            hash_cost, spill = cm.cost_hash_aggregate(
                options, root.est_rows, n_groups, root.mode, root.dop,
                n_aggregates=max(1, len(bound.aggregates)))
            node = AggregateNode("hash", root, group_by, bound.aggregates,
                                 spill_expected=spill)
            node.est_cost = root.est_cost + hash_cost
        node.est_rows = n_groups if group_by else 1.0
        node.dop = root.dop
        return node

    def _estimate_groups(self, bound: BoundSelect, root: PlanNode) -> float:
        if not bound.group_by:
            return 1.0
        total = 1.0
        for qualified in bound.group_by:
            alias, column = qualified.split(".", 1)
            table = bound.table_by_alias(alias).table
            stats = self.catalog.stats(table.name)
            if column in stats.columns:
                total *= max(1, stats.column(column).n_distinct)
        return min(total, max(1.0, root.est_rows))

    # --------------------------------------------------------- order / top
    def _plan_order_and_top(self, bound: BoundSelect,
                            root: PlanNode) -> PlanNode:
        options = self.options
        if bound.order_by:
            ordering = getattr(root, "output_ordering", [])
            wanted = [name for name, _ in bound.order_by]
            any_desc = any(desc for _, desc in bound.order_by)
            already = (not any_desc
                       and list(ordering[:len(wanted)]) == wanted)
            if not already:
                row_bytes = max(16, 12 * len(root.output_columns))
                cost, spill = cm.cost_sort(
                    options, root.est_rows, row_bytes, root.dop)
                node = SortNode(root, list(bound.order_by),
                                spill_expected=spill)
                node.est_rows = root.est_rows
                node.est_cost = root.est_cost + cost
                node.dop = root.dop
                root = node
        if bound.top is not None:
            node = TopNode(root, bound.top)
            node.est_rows = min(root.est_rows, bound.top)
            node.est_cost = root.est_cost
            node.dop = root.dop
            root = node
        return root

    def _plan_projection(self, bound: BoundSelect,
                         root: PlanNode) -> PlanNode:
        outputs = [(out.name, out.source) for out in bound.outputs]
        node = ProjectNode(root, outputs)
        node.est_rows = root.est_rows
        node.est_cost = root.est_cost
        node.dop = root.dop
        return node


def bare_ranges(qualified: Dict[str, ColumnRange]) -> Dict[str, ColumnRange]:
    """``alias.column -> range`` with the aliases stripped, for matching
    index key columns."""
    return {name.split(".", 1)[1]: column_range
            for name, column_range in qualified.items()}


def access_ranges(descriptor: IndexDescriptor,
                  ranges: Dict[str, ColumnRange]
                  ) -> Tuple[Optional[Dict[str, ColumnRange]],
                             Optional[List[ColumnRange]]]:
    """``(ranges, seek_ranges)`` of an access path through ``descriptor``
    given its table's bare-column ranges: a B+ tree seeks the key prefix
    (composite-key sargability: points, optionally ending in one range),
    a columnstore eliminates segments on every ranged column, a heap
    uses none."""
    if descriptor.kind == KIND_BTREE:
        seek_ranges = key_prefix_ranges(descriptor.key_columns, ranges)
        if not seek_ranges:
            return None, None
        return dict(zip(descriptor.key_columns, seek_ranges)), seek_ranges
    if descriptor.kind == KIND_CSI:
        return ranges or None, None
    return None, None


def _edges_between(edges: Sequence[JoinEdge], joined: set,
                   alias: str) -> List[JoinEdge]:
    out = []
    for edge in edges:
        if edge.left_alias in joined and edge.right_alias == alias:
            out.append(edge)
        elif edge.right_alias in joined and edge.left_alias == alias:
            out.append(edge)
    return out

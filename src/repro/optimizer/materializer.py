"""Materializer: convert an optimizer plan into executable operators.

Only plans whose leaves reference *materialized* index descriptors can be
materialized; attempting to execute a plan that touches a hypothetical
index raises — exactly the boundary between DTA's what-if costing and
real execution.
"""

from __future__ import annotations


from repro.core.errors import OptimizerError
from repro.engine.expressions import ColumnRef
from repro.engine.operators import (
    ColumnstoreScan,
    Filter,
    HashAggregate,
    HashJoin,
    HeapScan,
    IndexNestedLoopJoin,
    MergeJoin,
    PhysicalOperator,
    Project,
    Sort,
    SortKey,
    StreamAggregate,
    Top,
)
from repro.engine.operators.scans import btree_seek
from repro.optimizer.plans import (
    KIND_BTREE,
    KIND_CSI,
    KIND_HEAP,
    AccessPathNode,
    AggregateNode,
    FilterNode,
    JoinNode,
    PlanNode,
    PlannedQuery,
    ProjectNode,
    SortNode,
    TopNode,
)
from repro.storage.database import Database


class Materializer:
    """Builds operator trees from plans for one database."""

    def __init__(self, database: Database):
        self.database = database

    def materialize(self, planned: PlannedQuery) -> PhysicalOperator:
        """Build the executable operator tree for a planned query."""
        if planned.uses_hypothetical:
            raise OptimizerError(
                "plan references hypothetical indexes and cannot execute")
        return self._build(planned.root)

    def _build(self, node: PlanNode) -> PhysicalOperator:
        op = self._build_op(node)
        # Pair the operator with the plan node it came from so EXPLAIN
        # ANALYZE can print estimated vs actual rows side by side.
        op.plan_node = node
        return op

    def _build_op(self, node: PlanNode) -> PhysicalOperator:
        if isinstance(node, AccessPathNode):
            return self._build_access(node)
        if isinstance(node, FilterNode):
            op = Filter(self._build(node.inputs[0]), node.predicate,
                        dop=node.dop)
            return op
        if isinstance(node, JoinNode):
            return self._build_join(node)
        if isinstance(node, AggregateNode):
            child = self._build(node.inputs[0])
            cls = StreamAggregate if node.strategy == "stream" else HashAggregate
            return cls(child, node.group_by, node.aggregates, dop=node.dop)
        if isinstance(node, SortNode):
            child = self._build(node.inputs[0])
            keys = [SortKey(name, descending) for name, descending in node.keys]
            return Sort(child, keys, dop=node.dop)
        if isinstance(node, TopNode):
            child = self._build(node.inputs[0])
            if isinstance(child, Sort):
                # TOP directly over a sort: let the sort select the
                # first N rows by partition instead of fully ordering
                # the input. Same rows, same modeled costs — wall-clock
                # only.
                child.limit = node.limit
            return Top(child, node.limit, dop=node.dop)
        if isinstance(node, ProjectNode):
            child = self._build(node.inputs[0])
            outputs = [(name, ColumnRef(source))
                       for name, source in node.outputs]
            return Project(child, outputs, dop=node.dop)
        raise OptimizerError(f"cannot materialize {type(node).__name__}")

    def _build_access(self, node: AccessPathNode) -> PhysicalOperator:
        descriptor = node.descriptor
        table = self.database.table(descriptor.table_name)
        prefix = f"{node.alias}."
        if descriptor.kind == KIND_HEAP:
            return HeapScan(table, node.columns, residual=node.residual,
                            prefix=prefix, dop=node.dop)
        if descriptor.kind == KIND_BTREE:
            return btree_seek(
                table, descriptor.physical, node.columns,
                key_ranges=node.seek_ranges, residual=node.residual,
                prefix=prefix, dop=node.dop)
        if descriptor.kind == KIND_CSI:
            index = descriptor.physical
            pushdown = None
            if node.ranges:
                pushdown = {
                    column: column_range.as_bounds()
                    for column, column_range in node.ranges.items()
                }
            return ColumnstoreScan(
                table, index, node.columns, pushdown_ranges=pushdown,
                residual=node.residual, prefix=prefix, dop=node.dop)
        raise OptimizerError(f"unknown descriptor kind {descriptor.kind!r}")

    def _build_join(self, node: JoinNode) -> PhysicalOperator:
        if node.method == "hash":
            build = self._build(node.inputs[0])
            probe = self._build(node.inputs[1])
            return HashJoin(build, probe, node.left_keys, node.right_keys,
                            dop=node.dop)
        if node.method == "merge":
            left = self._build(node.inputs[0])
            right = self._build(node.inputs[1])
            return MergeJoin(left, right, node.left_keys, node.right_keys,
                             dop=node.dop)
        if node.method == "inl":
            outer = self._build(node.inputs[0])
            inner = node.inputs[1]
            if not isinstance(inner, AccessPathNode):
                raise OptimizerError("INL join inner must be an access path")
            table = self.database.table(inner.descriptor.table_name)
            index = inner.descriptor.physical
            return IndexNestedLoopJoin(
                outer, table, index,
                outer_keys=node.left_keys,
                inner_columns=inner.columns,
                inner_prefix=f"{inner.alias}.",
                residual=inner.residual,
                dop=node.dop,
            )
        raise OptimizerError(f"unknown join method {node.method!r}")

"""Plan descriptors: index metadata and logical-physical plan trees.

The optimizer plans against :class:`IndexDescriptor` metadata rather than
physical index objects. This indirection is what makes the what-if API
possible: a *hypothetical* index is just a descriptor with estimated size
and no physical structure behind it (Chaudhuri & Narasayya's AutoAdmin
design, which DTA builds on). Plans over hypothetical descriptors can be
costed but not executed; plans over materialized descriptors are handed
to the materializer for execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.expressions import ColumnRange, Expr, resolve
from repro.engine.operators.aggregates import AggregateSpec

KIND_HEAP = "heap"
KIND_BTREE = "btree"
KIND_CSI = "csi"


@dataclass
class IndexDescriptor:
    """Metadata describing one index (real or hypothetical)."""

    name: str
    table_name: str
    kind: str  # heap | btree | csi
    is_primary: bool
    key_columns: List[str] = field(default_factory=list)
    included_columns: List[str] = field(default_factory=list)
    #: Columns stored by a columnstore index.
    csi_columns: List[str] = field(default_factory=list)
    size_bytes: int = 0
    #: Per-column compressed sizes for CSIs — the what-if API extension of
    #: Section 4.2 (the optimizer needs them because a CSI scan reads only
    #: the referenced columns).
    column_sizes: Dict[str, int] = field(default_factory=dict)
    #: Column the underlying data was sorted on when the CSI was built,
    #: enabling segment elimination on that column (Figure 2).
    sorted_on: Optional[str] = None
    hypothetical: bool = False
    #: The physical structure (HeapFile / B+ tree / ColumnstoreIndex);
    #: None for hypothetical indexes.
    physical: object = None

    def covers(self, columns: Sequence[str]) -> bool:
        """Can this index produce ``columns`` without a base-table lookup?"""
        if self.kind == KIND_HEAP:
            return True
        if self.kind == KIND_CSI:
            return all(c in self.csi_columns for c in columns)
        if self.is_primary:
            return True
        covered = set(self.key_columns) | set(self.included_columns)
        return all(c in covered for c in columns)

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        role = "primary" if self.is_primary else "secondary"
        hypo = " (hypothetical)" if self.hypothetical else ""
        if self.kind == KIND_CSI:
            return f"{self.name}: {role} columnstore{hypo}"
        if self.kind == KIND_BTREE:
            inc = f" INCLUDE {self.included_columns}" if self.included_columns else ""
            return f"{self.name}: {role} btree({self.key_columns}){inc}{hypo}"
        return f"{self.name}: heap{hypo}"

    def ddl(self) -> str:
        """CREATE INDEX-style rendering for advisor reports."""
        if self.kind == KIND_CSI:
            scope = "CLUSTERED" if self.is_primary else "NONCLUSTERED"
            return (f"CREATE {scope} COLUMNSTORE INDEX {self.name} "
                    f"ON {self.table_name}")
        if self.kind == KIND_BTREE:
            scope = "CLUSTERED" if self.is_primary else "NONCLUSTERED"
            keys = ", ".join(self.key_columns)
            inc = (f" INCLUDE ({', '.join(self.included_columns)})"
                   if self.included_columns else "")
            return (f"CREATE {scope} INDEX {self.name} ON "
                    f"{self.table_name} ({keys}){inc}")
        return f"-- {self.table_name} stored as heap"


# --------------------------------------------------------------- plan nodes
class PlanNode:
    """A node in the optimizer's chosen plan."""

    def __init__(self, inputs: Sequence["PlanNode"] = ()):
        self.inputs: List[PlanNode] = list(inputs)
        self.est_rows: float = 0.0
        self.est_cost: float = 0.0  # cumulative, ms of serial-equivalent work
        self.mode: str = "row"
        self.dop: int = 1

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        raise NotImplementedError

    def walk(self):
        """Pre-order traversal of this subtree."""
        yield self
        for node in self.inputs:
            yield from node.walk()

    def leaves(self) -> List["AccessPathNode"]:
        """All access-path leaf nodes in this subtree."""
        return [n for n in self.walk() if isinstance(n, AccessPathNode)]

    def explain(self, indent: int = 0, params: Sequence[object] = ()) -> str:
        """Indented, human-readable plan-tree rendering; ``params`` are
        the values of a cached plan's parameters (see
        :class:`PlannedQuery`)."""
        lines = [" " * indent + self.describe(params)]
        for node in self.inputs:
            lines.append(node.explain(indent + 2, params))
        return "\n".join(lines)

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        return (f"{type(self).__name__} rows={self.est_rows:.0f} "
                f"cost={self.est_cost:.2f}")


class AccessPathNode(PlanNode):
    """Leaf: read one table through one index."""

    def __init__(
        self,
        alias: str,
        descriptor: IndexDescriptor,
        access: str,  # 'scan' | 'seek'
        columns: List[str],  # bare column names to produce
        ranges: Optional[Dict[str, ColumnRange]] = None,
        residual: Optional[Expr] = None,
        needs_lookup: bool = False,
    ):
        super().__init__(())
        self.alias = alias
        self.descriptor = descriptor
        self.access = access
        self.columns = columns
        self.ranges = ranges or {}
        self.residual = residual
        self.needs_lookup = needs_lookup
        #: Ordered per-key-column ranges for a composite B+ tree seek
        #: (points followed by at most one non-point range).
        self.seek_ranges: Optional[List[ColumnRange]] = None
        self.mode = "batch" if descriptor.kind == KIND_CSI else "row"

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return [f"{self.alias}.{c}" for c in self.columns]

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        if self.descriptor.kind == KIND_BTREE:
            return [f"{self.alias}.{c}" for c in self.descriptor.key_columns]
        return []

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        lookup = " +lookup" if self.needs_lookup else ""
        bounds = ""
        if self.ranges:
            bounds = " " + ", ".join(
                f"{c}:[{resolve(r.low, params)}..{resolve(r.high, params)}]"
                for c, r in self.ranges.items())
        return (f"{self.access.upper()} {self.alias} via "
                f"{self.descriptor.describe()}{bounds}{lookup} "
                f"rows={self.est_rows:.0f} cost={self.est_cost:.3f} "
                f"dop={self.dop}")


class JoinNode(PlanNode):
    """A join in the chosen plan (hash, merge, or index nested loop)."""
    def __init__(self, method: str, left: PlanNode, right: PlanNode,
                 left_keys: List[str], right_keys: List[str]):
        super().__init__((left, right))
        self.method = method  # hash | merge | inl
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.mode = right.mode if method == "hash" else "row"

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.inputs[0].output_columns + self.inputs[1].output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        if self.method == "merge":
            return self.left_keys
        if self.method == "inl":
            ordering = getattr(self.inputs[0], "output_ordering", [])
            return list(ordering)
        return []

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        return (f"{self.method.upper()} JOIN {self.left_keys}="
                f"{self.right_keys} rows={self.est_rows:.0f} "
                f"cost={self.est_cost:.3f}")


class FilterNode(PlanNode):
    """Residual predicate applied above a join (multi-table conjuncts)."""

    def __init__(self, child: PlanNode, predicate: Expr):
        super().__init__((child,))
        self.predicate = predicate
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.inputs[0].output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return getattr(self.inputs[0], "output_ordering", [])

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        return (f"FILTER {self.predicate} rows={self.est_rows:.0f} "
                f"cost={self.est_cost:.3f}")


class AggregateNode(PlanNode):
    """Aggregation in the chosen plan (hash or streaming)."""
    def __init__(self, strategy: str, child: PlanNode, group_by: List[str],
                 aggregates: List[AggregateSpec], spill_expected: bool = False):
        super().__init__((child,))
        self.strategy = strategy  # hash | stream
        self.group_by = group_by
        self.aggregates = aggregates
        self.spill_expected = spill_expected
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.group_by + [a.output for a in self.aggregates]

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        if self.strategy == "stream":
            return self.group_by
        return []

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        spill = " SPILL" if self.spill_expected else ""
        return (f"{self.strategy.upper()} AGG by={self.group_by}{spill} "
                f"rows={self.est_rows:.0f} cost={self.est_cost:.3f}")


class SortNode(PlanNode):
    """An explicit sort in the chosen plan."""
    def __init__(self, child: PlanNode, keys: List[Tuple[str, bool]],
                 spill_expected: bool = False):
        super().__init__((child,))
        self.keys = keys
        self.spill_expected = spill_expected
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.inputs[0].output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        if any(desc for _, desc in self.keys):
            return []
        return [name for name, _ in self.keys]

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        spill = " SPILL" if self.spill_expected else ""
        return (f"SORT {self.keys}{spill} rows={self.est_rows:.0f} "
                f"cost={self.est_cost:.3f}")


class TopNode(PlanNode):
    """Row-limit (TOP/LIMIT) node in the chosen plan."""
    def __init__(self, child: PlanNode, limit: int):
        super().__init__((child,))
        self.limit = limit
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.inputs[0].output_columns

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return getattr(self.inputs[0], "output_ordering", [])

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        return f"TOP {self.limit} rows={self.est_rows:.0f} cost={self.est_cost:.3f}"


class ProjectNode(PlanNode):
    """Final projection mapping internal names to output names."""

    def __init__(self, child: PlanNode, outputs: List[Tuple[str, str]]):
        # outputs: (display name, source column)
        super().__init__((child,))
        self.outputs = outputs
        self.mode = child.mode

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return [name for name, _ in self.outputs]

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        child_order = getattr(self.inputs[0], "output_ordering", [])
        renames = {source: name for name, source in self.outputs}
        out = []
        for column in child_order:
            if column not in renames:
                break
            out.append(renames[column])
        return out

    def describe(self, params: Sequence[object] = ()) -> str:
        """One-line human-readable summary of this node."""
        return (f"PROJECT {[n for n, _ in self.outputs]} "
                f"rows={self.est_rows:.0f} cost={self.est_cost:.3f}")


@dataclass
class PlannedQuery:
    """The optimizer's result: a plan tree and its estimated cost.

    A kept plan (:mod:`repro.optimizer.reuse`) has a ``Param(i)`` where
    its template has a slot; one execution's view of it shares the tree
    and carries that execution's ``params``, which its text shows. A
    plan whose execution ran a kept operator tree carries them too, for
    the operators' descriptions."""

    root: PlanNode
    est_cost: float
    est_rows: float
    uses_hypothetical: bool
    params: Sequence[object] = ()

    def with_params(self, params: Sequence[object]) -> "PlannedQuery":
        """This plan as the execution with ``params`` reports it."""
        return PlannedQuery(self.root, self.est_cost, self.est_rows,
                            self.uses_hypothetical, params)

    def decisions(self) -> tuple:
        """What the materializer builds from this plan, without its
        estimates and its values: per node, in pre-order, its kind, mode,
        dop and fan-in, and a leaf's index, access, columns and lookup, a
        join's method and keys, an aggregate's strategy, a spill flag,
        and the shape of every seek and elimination range (which bounds
        are open or inclusive, which are points). Two optimizations of
        one bound statement that decide alike build alike, so one
        operator tree serves both with its values as parameters."""
        return tuple(_decisions(node) for node in self.root.walk())

    def explain(self) -> str:
        """Indented, human-readable plan-tree rendering."""
        return self.root.explain(params=self.params)

    def index_kinds_at_leaves(self) -> List[str]:
        """Index kind per leaf — the Figure 10 statistic."""
        return [leaf.descriptor.kind for leaf in self.root.leaves()]

    def is_hybrid(self) -> bool:
        """True when both a B+ tree/heap row-store leaf and a columnstore
        leaf appear in the same plan (Figure 10's 'hybrid plans')."""
        kinds = set(self.index_kinds_at_leaves())
        return KIND_CSI in kinds and (KIND_BTREE in kinds or KIND_HEAP in kinds)

    def referenced_indexes(self) -> List[IndexDescriptor]:
        """Descriptors of every index the plan reads."""
        return [leaf.descriptor for leaf in self.root.leaves()]


def _range_shape(column_range: ColumnRange) -> tuple:
    """The value-free shape of a seek or elimination range."""
    return (column_range.low is None, column_range.high is None,
            column_range.low_inclusive, column_range.high_inclusive,
            column_range.is_point)


def _decisions(node: PlanNode) -> tuple:
    """One node's part of :meth:`PlannedQuery.decisions`."""
    made = (type(node), node.mode, node.dop, len(node.inputs))
    if isinstance(node, AccessPathNode):
        descriptor = node.descriptor
        return made + (
            node.alias, descriptor.table_name, descriptor.name,
            descriptor.kind, node.access, tuple(node.columns),
            node.needs_lookup,
            tuple((column, _range_shape(column_range))
                  for column, column_range in node.ranges.items()),
            None if node.seek_ranges is None else tuple(
                _range_shape(column_range)
                for column_range in node.seek_ranges))
    if isinstance(node, JoinNode):
        return made + (node.method, tuple(node.left_keys),
                       tuple(node.right_keys))
    if isinstance(node, AggregateNode):
        return made + (node.strategy, node.spill_expected)
    if isinstance(node, SortNode):
        return made + (node.spill_expected,)
    return made

"""Physical operators for the repro execution engine."""

from repro.engine.operators.base import (
    BATCH_MODE,
    ROW_MODE,
    PhysicalOperator,
)
from repro.engine.operators.scans import (
    BTreeSeek,
    ColumnstoreScan,
    HeapScan,
    SecondaryBTreeSeek,
)
from repro.engine.operators.filters import Filter, Project, Top
from repro.engine.operators.sorts import Sort, SortKey
from repro.engine.operators.aggregates import (
    AggregateSpec,
    HashAggregate,
    StreamAggregate,
)
from repro.engine.operators.joins import (
    HashJoin,
    IndexNestedLoopJoin,
    MergeJoin,
)

__all__ = [
    "BATCH_MODE",
    "ROW_MODE",
    "PhysicalOperator",
    "BTreeSeek",
    "ColumnstoreScan",
    "HeapScan",
    "SecondaryBTreeSeek",
    "Filter",
    "Project",
    "Top",
    "Sort",
    "SortKey",
    "AggregateSpec",
    "HashAggregate",
    "StreamAggregate",
    "HashJoin",
    "IndexNestedLoopJoin",
    "MergeJoin",
]

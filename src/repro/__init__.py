"""repro: a reproduction of "Columnstore and B+ tree - Are Hybrid
Physical Designs Important?" (SIGMOD 2018).

Public API highlights:

* :class:`repro.Database` / :class:`repro.Table` — the storage engine
  (heap, clustered/secondary B+ trees, primary/secondary columnstores).
* :class:`repro.Executor` — SQL execution with the paper's observables
  (elapsed time, CPU time, data read, memory, spills, plan shape).
* :class:`repro.TuningAdvisor` / :class:`repro.Workload` — the extended
  Database Engine Tuning Advisor recommending hybrid designs.
* :class:`repro.WhatIfSession` — hypothetical-index costing.
* :class:`repro.ConcurrencySimulator` — the multi-client discrete-event
  simulator behind the mixed-workload experiments.
* :mod:`repro.engine.dmv` — always-on DMV-style system views
  (``dm_db_index_usage_stats`` and friends), queryable through SQL and
  exportable as JSON or Prometheus text.
"""

from repro.advisor.advisor import (
    MODE_BTREE_ONLY,
    MODE_CSI_ONLY,
    MODE_HYBRID,
    Recommendation,
    TuningAdvisor,
)
from repro.advisor.workload import Workload, WorkloadStatement
from repro.core.schema import Column, SchemaBuilder, TableSchema
from repro.core.types import BIGINT, DATE, INT, XML, decimal, varchar
from repro.engine.concurrency import (
    ConcurrencySimulator,
    SimulationResult,
    StatementProfile,
)
from repro.engine.analyze import AnalyzedQuery
from repro.engine.dmv import (
    SYSTEM_VIEW_NAMES,
    dmv_snapshot,
    dmv_to_prometheus,
    unused_index_report,
)
from repro.engine.costs import DEFAULT_COST_MODEL, CostModel
from repro.engine.executor import Executor, QueryResult
from repro.engine.locks import READ_COMMITTED, SERIALIZABLE, SNAPSHOT
from repro.engine.metrics import ExecutionContext, OperatorSpan, QueryMetrics
from repro.engine.query_store import QueryStore
from repro.optimizer.catalog import Catalog
from repro.optimizer.whatif import (
    Configuration,
    WhatIfSession,
    hypothetical_btree,
    hypothetical_columnstore,
)
from repro.storage.checker import CheckResult, check_database, check_table
from repro.storage.database import Database
from repro.storage.faults import (
    INJECTION_POINTS,
    FaultInjector,
    InjectedFault,
)
from repro.storage.table import Table
from repro.storage.telemetry import (
    IndexUsageStats,
    LogicalClock,
    MissingIndexDetails,
    Telemetry,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyzedQuery",
    "BIGINT",
    "DATE",
    "INT",
    "OperatorSpan",
    "QueryStore",
    "XML",
    "Catalog",
    "CheckResult",
    "Column",
    "Configuration",
    "ConcurrencySimulator",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Database",
    "ExecutionContext",
    "Executor",
    "FaultInjector",
    "INJECTION_POINTS",
    "IndexUsageStats",
    "InjectedFault",
    "LogicalClock",
    "MODE_BTREE_ONLY",
    "MODE_CSI_ONLY",
    "MODE_HYBRID",
    "QueryMetrics",
    "QueryResult",
    "READ_COMMITTED",
    "Recommendation",
    "SERIALIZABLE",
    "SNAPSHOT",
    "SYSTEM_VIEW_NAMES",
    "SchemaBuilder",
    "SimulationResult",
    "StatementProfile",
    "MissingIndexDetails",
    "Table",
    "TableSchema",
    "Telemetry",
    "TuningAdvisor",
    "WhatIfSession",
    "Workload",
    "WorkloadStatement",
    "check_database",
    "check_table",
    "decimal",
    "dmv_snapshot",
    "dmv_to_prometheus",
    "hypothetical_btree",
    "hypothetical_columnstore",
    "unused_index_report",
    "varchar",
]

"""EXPLAIN ANALYZE: annotated plan trees from operator spans.

The paper's methodology attributes every experiment to per-query CPU,
elapsed time, data read, and memory obtained from the Query Store and
DMVs (Sections 3.1, 5.2.1). :class:`AnalyzedQuery` turns one executed
statement's :class:`~repro.engine.metrics.OperatorSpan` tree into the
equivalent of SQL Server's *actual execution plan*: every node shows the
optimizer's estimated rows next to the rows it actually produced, plus
the elapsed/CPU/I-O/memory/spill charges attributed to it.

Two renderings are provided:

* :meth:`AnalyzedQuery.format` — an indented text tree for terminals;
* :meth:`AnalyzedQuery.to_chrome_trace` — Chrome trace-event JSON
  (load ``chrome://tracing`` or https://ui.perfetto.dev) laying the
  plan out on the statement's modeled timeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.metrics import OperatorSpan


class AnalyzedQuery:
    """One executed statement plus its per-operator actuals."""

    def __init__(self, sql: str, result):
        self.sql = sql
        self.result = result
        self.root_span: Optional[OperatorSpan] = result.root_span

    # ------------------------------------------------------------- text
    def format(self) -> str:
        """Indented plan tree with estimated vs actual rows and the
        per-node self charges, headed by the statement totals."""
        metrics = self.result.metrics
        lines = [
            f"EXPLAIN ANALYZE {self.sql}",
            (f"statement: elapsed={metrics.elapsed_ms:.3f} ms  "
             f"cpu={metrics.cpu_ms:.3f} ms  "
             f"read={metrics.data_read_mb:.3f} MB  "
             f"mem peak={metrics.memory_peak_bytes} B  "
             f"spilled={metrics.spilled_bytes} B  "
             f"rows={metrics.rows_returned}"),
        ]
        wait_profile = getattr(self.result, "wait_profile", None)
        if wait_profile:
            # Real blocking observed while the statement ran (wall
            # clock, observation-only) — absent entirely on an
            # uncontended run so default output stays unchanged.
            waits = "  ".join(
                f"{wait_type}={row['count']}x/{row['wait_ms']:.3f} ms"
                for wait_type, row in wait_profile.items())
            lines.append(f"waits: {waits}")
        if self.root_span is None:
            lines.append("(no span data recorded)")
            return "\n".join(lines)
        overhead = self.root_span
        lines.append(
            f"statement overhead (parse/plan/DML): "
            f"elapsed={overhead.elapsed_ms:.3f} ms "
            f"cpu={overhead.cpu_ms:.3f} ms")
        for span in overhead.children:
            self._format_span(span, 0, lines)
        return "\n".join(lines)

    def _format_span(self, span: OperatorSpan, depth: int,
                     lines: List[str]) -> None:
        pad = "  " * depth
        lines.append(f"{pad}{span.label}")
        est = _estimated_rows(span)
        est_text = f"{est:.0f}" if est is not None else "?"
        batches = "batch" if span.batches_out == 1 else "batches"
        lines.append(
            f"{pad}  est rows={est_text}  actual rows={span.rows_out} "
            f"({span.batches_out} {batches})")
        detail = (f"{pad}  self: elapsed={span.elapsed_ms:.3f} ms "
                  f"cpu={span.cpu_ms:.3f} ms "
                  f"read={span.data_read_mb:.3f} MB "
                  f"pages={span.pages_read}")
        if span.memory_peak_bytes:
            detail += f" mem={span.memory_peak_bytes} B"
        if span.spilled_bytes:
            detail += f" spilled={span.spilled_bytes} B"
        if span.segments_read or span.segments_skipped:
            detail += (f" segments={span.segments_read}"
                       f"(+{span.segments_skipped} skipped)")
        if span.code_path_hits or span.code_path_fallbacks:
            detail += (f" code-path={span.code_path_hits}h/"
                       f"{span.code_path_fallbacks}f")
        lines.append(detail)
        if span.fallback_reasons:
            # Name the operator/predicate that forced each encoded-column
            # materialization: encoded-coverage regressions should be
            # readable in plan output, not a silent counter bump.
            for reason, count in sorted(span.fallback_reasons.items()):
                lines.append(f"{pad}  fallback x{count}: {reason}")
        for child in span.children:
            self._format_span(child, depth + 1, lines)
        # Plan subtrees that never executed (e.g. below a TOP 0) still
        # deserve a mention so the tree matches the optimizer's shape.
        operator = span.operator
        if operator is not None:
            executed = {id(c.operator) for c in span.children}
            for child_op in getattr(operator, "children", ()):
                if id(child_op) not in executed:
                    lines.append(f"{pad}  {child_op.describe()}"
                                 f"  [never executed]")

    # ----------------------------------------------------------- trace
    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON for the statement's modeled timeline.

        Each span becomes one complete ("X") event whose duration is its
        inclusive modeled elapsed time; children are laid out
        sequentially inside their parent with the parent's self time at
        the end, so the nesting in the trace viewer mirrors the plan
        tree. Timestamps are *modeled* milliseconds (scaled to trace
        microseconds), not wall clock.
        """
        events: List[Dict[str, object]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": f"repro EXPLAIN ANALYZE: {self.sql[:120]}"},
        }]
        if self.root_span is not None:
            self._layout(self.root_span, 0.0, events)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def _layout(self, span: OperatorSpan, start_ms: float,
                events: List[Dict[str, object]]) -> float:
        cursor = start_ms
        for child in span.children:
            cursor = self._layout(child, cursor, events)
        end_ms = cursor + span.elapsed_ms
        est = _estimated_rows(span)
        events.append({
            "name": span.label or "<statement>",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round(start_ms * 1000.0, 3),
            "dur": round((end_ms - start_ms) * 1000.0, 3),
            "args": {
                "rows_out": span.rows_out,
                "batches_out": span.batches_out,
                "est_rows": est,
                "self_elapsed_ms": round(span.elapsed_ms, 6),
                "self_cpu_ms": round(span.cpu_ms, 6),
                "self_data_read_mb": round(span.data_read_mb, 6),
                "pages_read": span.pages_read,
                "spilled_bytes": span.spilled_bytes,
                "memory_peak_bytes": span.memory_peak_bytes,
                "mode": span.mode,
                "dop": span.dop,
            },
        })
        return end_ms


def _estimated_rows(span: OperatorSpan) -> Optional[float]:
    """Optimizer row estimate for a span's operator, when the
    materializer recorded the plan-node pairing."""
    plan_node = getattr(span.operator, "plan_node", None)
    if plan_node is None:
        return None
    return float(plan_node.est_rows)

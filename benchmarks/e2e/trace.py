"""Span tracing applied from outside the engine.

``Tracer.install()`` wraps a fixed table of the engine's public
callables (``TRACE_TABLE``) with timing wrappers and ``uninstall()``
puts the originals back; nothing under ``src/`` knows about it. Module
functions that other modules import by name (``parse`` is bound in
``repro.engine.executor`` and ``repro.server.session``) are replaced on
every ``repro.*`` module attribute that is the original object, so no
call path escapes the wrapper.

A span is one activation of a wrapped callable: name, layer, start, end,
parent span, statement id, busy time and self time. A generator is one
span whose busy time is the sum of its ``next()`` resumes, so a
200 000-row scan is one span, not 200 000. Self time is busy time minus
the busy time of the spans opened while it was on the stack; on one
thread the self times of a statement's spans therefore sum to its root
span exactly. Spans stay in memory until ``chrome_trace()`` /
``summary()`` are called.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

# (module, class name or None, attribute, kind, span name, layer)
# kind: call | gen (generator function) | ctx (returns a context manager)
#       | pool (BufferPool.get_or_load: the loader argument is a child span)
TRACE_TABLE: List[Tuple[str, Optional[str], str, str, str, str]] = [
    ("repro.server.session", "Session", "execute", "call",
     "Session.execute", "server.session"),
    ("repro.server.scheduler", "AdmissionController", "admit", "ctx",
     "AdmissionController.admit", "server.scheduler"),
    ("repro.sql.lexer", None, "tokenize", "call", "tokenize", "sql.lexer"),
    ("repro.sql.parser", None, "parse", "call", "parse", "sql.parser"),
    ("repro.sql.binder", "Binder", "bind", "call",
     "Binder.bind", "sql.binder"),
    ("repro.optimizer.optimizer", "Optimizer", "optimize", "call",
     "Optimizer.optimize", "optimizer.optimizer"),
    ("repro.optimizer.materializer", "Materializer", "materialize", "call",
     "Materializer.materialize", "optimizer.materializer"),
    ("repro.engine.executor", "Executor", "execute", "call",
     "Executor.execute", "engine.executor"),
    ("repro.storage.events", "EventStream", "emit", "call",
     "EventStream.emit", "storage.events"),
    ("repro.storage.timeseries", "TelemetryHistory", "maybe_sample", "call",
     "TelemetryHistory.maybe_sample", "storage.timeseries"),
    ("repro.storage.waits", "WaitStatsCollector", "statement", "ctx",
     "WaitStatsCollector.statement", "storage.waits"),
    ("repro.storage.heap", "HeapFile", "scan", "gen",
     "HeapFile.scan", "storage.heap"),
    ("repro.storage.columnstore", "ColumnstoreIndex", "scan", "gen",
     "ColumnstoreIndex.scan", "storage.columnstore.scan"),
    ("repro.storage.bufferpool", "BufferPool", "get_or_load", "pool",
     "BufferPool.get_or_load", "storage.bufferpool"),
    ("repro.storage.wal", "WriteAheadLog", "commit", "call",
     "WriteAheadLog.commit", "storage.wal"),
    ("repro.storage.database", "Database", "checkpoint", "call",
     "Database.checkpoint", "storage.pages.checkpoint"),
    ("repro.storage.recovery", None, "recover", "call",
     "recover", "storage.recovery"),
    ("repro.storage.pages", None, "load_snapshot", "call",
     "load_snapshot", "storage.recovery.snapshot_load"),
    ("repro.storage.pages", None, "load_snapshot_paged", "call",
     "load_snapshot_paged", "storage.recovery.snapshot_load"),
    ("repro.storage.wal", None, "read_wal", "call",
     "read_wal", "storage.recovery.redo"),
    ("repro.storage.checker", None, "check_database", "call",
     "check_database", "storage.recovery.check"),
]
for _cls in ("PrimaryBTreeIndex", "SecondaryBTreeIndex",
             "PagedPrimaryBTreeIndex", "PagedSecondaryBTreeIndex"):
    for _attr, _layer in (("seek_range", "storage.btree.seek"),
                          ("scan", "storage.btree.scan")):
        TRACE_TABLE.append(("repro.storage.btree", _cls, _attr, "gen",
                            f"{_cls}.{_attr}", _layer))
for _cls in ("PrimaryBTreeIndex", "SecondaryBTreeIndex"):
    for _attr in ("insert", "update", "delete"):
        TRACE_TABLE.append(("repro.storage.btree", _cls, _attr, "call",
                            f"{_cls}.{_attr}", "storage.btree.dml"))
for _attr in ("insert", "update", "update_many", "delete", "delete_many"):
    TRACE_TABLE.append(("repro.storage.columnstore", "ColumnstoreIndex",
                        _attr, "call", f"ColumnstoreIndex.{_attr}",
                        "storage.columnstore.dml"))
for _attr in ("insert_row", "update_rids", "delete_rids"):
    TRACE_TABLE.append(("repro.storage.table", "Table", _attr, "call",
                        f"Table.{_attr}", "storage.table"))

#: Layer of the loader a buffer-pool miss runs (snapshot read + decode).
FAULT_LAYER = "storage.bufferpool.fault"


class _Frame:
    __slots__ = ("name", "layer", "span_id", "parent_id", "stmt", "start",
                 "end", "busy", "child", "t0")

    def __init__(self, name, layer, span_id, parent_id, stmt, start):
        self.name = name
        self.layer = layer
        self.span_id = span_id
        self.parent_id = parent_id
        self.stmt = stmt
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.t0 = 0.0


class Tracer:
    """Installs the wrappers and collects the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._local = threading.local()
        self._ids = 0
        self._stmts = 0
        self._id_lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str, layer: str) -> _Frame:
        """New frame under the current top of this thread's stack. A frame
        with no parent is the root of a new statement."""
        stack = self._stack()
        with self._id_lock:
            self._ids += 1
            span_id = self._ids
            if stack:
                stmt = stack[-1].stmt
            else:
                self._stmts += 1
                stmt = self._stmts
        parent_id = stack[-1].span_id if stack else 0
        return _Frame(name, layer, span_id, parent_id, stmt, _now())

    def _resume(self, frame: _Frame) -> None:
        self._stack().append(frame)
        frame.t0 = _now()

    def _suspend(self, frame: _Frame) -> None:
        end = _now()
        elapsed = end - frame.t0
        stack = self._stack()
        stack.pop()
        frame.busy += elapsed
        frame.end = end
        if stack:
            stack[-1].child += elapsed

    def _close(self, frame: _Frame) -> None:
        self.spans.append((
            frame.span_id, frame.parent_id, frame.stmt, frame.name,
            frame.layer, threading.get_ident(), frame.start, frame.end,
            frame.busy, frame.busy - frame.child))

    def span(self, name: str, layer: str):
        """Context manager recording one span (used by the wrappers and by
        the harness for work it wants on the same timeline)."""
        return _Span(self, name, layer)

    # ------------------------------------------------------------- wrappers
    def _wrap_call(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name, layer)
            tracer._resume(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._suspend(frame)
                tracer._close(frame)
        return traced

    def _wrap_gen(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            frame = None
            try:
                while True:
                    if frame is None:
                        frame = tracer._open(name, layer)
                    tracer._resume(frame)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._suspend(frame)
                    yield item
            finally:
                inner.close()
                if frame is not None:
                    tracer._close(frame)
        return traced

    def _wrap_ctx(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedContext(tracer, fn(*args, **kwargs), name, layer)
        return traced

    def _wrap_pool(self, fn: Callable, name: str, layer: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(pool, page, loader, *args, **kwargs):
            def traced_loader():
                with tracer.span("BufferPool.fault", FAULT_LAYER):
                    return loader()
            with tracer.span(name, layer):
                return fn(pool, page, traced_loader, *args, **kwargs)
        return traced

    # ---------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every callable in ``TRACE_TABLE``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrap = {"call": self._wrap_call, "gen": self._wrap_gen,
                "ctx": self._wrap_ctx, "pool": self._wrap_pool}
        for module_name, cls_name, attr, kind, name, layer in TRACE_TABLE:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__.get(attr)
                if original is None:        # inherited: the base is wrapped
                    continue
                self._patch(owner, attr, original,
                            wrap[kind](original, name, layer))
                continue
            original = getattr(module, attr)
            traced = wrap[kind](original, name, layer)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").split(".")[0] == "repro"
                        and getattr(other, attr, None) is original):
                    self._patch(other, attr, original, traced)

    def _patch(self, owner: object, attr: str, original, traced) -> None:
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original callable."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- reporting
    def statements(self, root_name: str) -> Dict[int, float]:
        """Statement id -> busy seconds of its root span, for the roots
        named ``root_name``."""
        return {span[2]: span[8] for span in self.spans
                if span[1] == 0 and span[3] == root_name}

    def summary(self, root_name: str) -> Dict[str, object]:
        """Per-layer self seconds and span counts inside the statements
        rooted at ``root_name``, plus the worst relative difference
        between a statement's root span and the sum of its self times
        (spans recorded on other threads, such as morsel workers, root
        their own statements and are reported under ``other_threads``)."""
        roots = self.statements(root_name)
        self_s: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        names: Dict[str, int] = {}
        per_stmt: Dict[int, float] = {}
        other: Dict[str, float] = {}
        for (_sid, _parent, stmt, name, layer, _tid, _start, _end, _busy,
             self_time) in self.spans:
            if stmt not in roots:
                other[layer] = other.get(layer, 0.0) + self_time
                continue
            self_s[layer] = self_s.get(layer, 0.0) + self_time
            counts[layer] = counts.get(layer, 0) + 1
            names[name] = names.get(name, 0) + 1
            per_stmt[stmt] = per_stmt.get(stmt, 0.0) + self_time
        worst = 0.0
        for stmt, total in roots.items():
            if total > 0:
                worst = max(worst, abs(per_stmt.get(stmt, 0.0) - total) / total)
        return {
            "statements": len(roots),
            "statement_s": sum(roots.values()),
            "self_s": self_s,
            "span_counts": counts,
            "name_counts": names,
            "other_threads_self_s": other,
            "worst_self_sum_error": worst,
        }

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[6] for span in self.spans)
        events = []
        for (span_id, parent, stmt, name, layer, tid, start, end, busy,
             self_time) in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"span": span_id, "parent": parent, "stmt": stmt,
                         "busy_us": round(busy * 1e6, 3),
                         "self_us": round(self_time * 1e6, 3)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Span:
    __slots__ = ("tracer", "name", "layer", "frame")

    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.frame = None

    def __enter__(self):
        self.frame = self.tracer._open(self.name, self.layer)
        self.tracer._resume(self.frame)
        return self

    def __exit__(self, *exc):
        self.tracer._suspend(self.frame)
        self.tracer._close(self.frame)
        return False


class _TracedContext:
    """A context manager whose enter and exit are each one span, so the
    time spent queueing in ``admit`` is separate from the body's."""

    __slots__ = ("tracer", "inner", "name", "layer")

    def __init__(self, tracer: Tracer, inner, name: str, layer: str):
        self.tracer = tracer
        self.inner = inner
        self.name = name
        self.layer = layer

    def __enter__(self):
        with self.tracer.span(self.name, self.layer):
            return self.inner.__enter__()

    def __exit__(self, *exc):
        with self.tracer.span(self.name + ".exit", self.layer):
            return self.inner.__exit__(*exc)

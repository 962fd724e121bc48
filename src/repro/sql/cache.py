"""Per-database statement cache: SQL text -> parsed statement, memoised.

Parsing is a pure function of the text and the parameter values, so its
result is cached in two steps that share one LRU:

* **raw text** -> ``(template, values)``. A text seen before costs one
  dict hit plus :func:`~repro.sql.parser.instantiate` and never reaches
  the lexer. ``values`` are the literals found in the text, with a
  placeholder for each ``?`` the caller fills.
* **normalised key** -> template. A new text is tokenized once and its
  number and string literals are replaced by typed markers
  (:func:`~repro.sql.parser.normalise`), so texts that differ only in
  their constants -- all the TCP frontend ever sends -- share one parse.

A template holds no catalog reference (names are resolved by the binder,
after the cache), so nothing that happens to the database can make an
entry stale and there is no invalidation. Text that does not tokenize or
parse is not cached and raises what the uncached
:func:`~repro.sql.parser.parse` raises.

A template also carries its reusable plans (:mod:`repro.optimizer.reuse`
decides what they are and when one is valid). They are kept here, under
this cache's lock and counters, at most ``PLANS_PER_TEMPLATE`` per
template, and leave with the template: evicting a template evicts its
plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence, Tuple

from repro.sql.lexer import tokenize
from repro.sql.parser import (
    Template,
    fill,
    instantiate,
    normalise,
    parse_template,
)


class StatementCache:
    """Entry-capped LRU of templates, shared by a database's sessions."""

    #: Most entries kept, raw texts and normalised keys together.
    CAPACITY = 4096
    #: Longer texts (bulk INSERTs) are parsed without being cached: they
    #: do not repeat, and their size is what an entry cap cannot bound.
    MAX_TEXT_CHARS = 4096
    #: Most plans kept per template (one per option set and value
    #: signature, or per plan decisions), least recently used evicted
    #: first.
    PLANS_PER_TEMPLATE = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        #: Lookups answered without parsing / lookups that parsed.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: UTF-8 bytes of the raw texts currently retained as keys.
        self.bytes_cached = 0
        #: Executions of a reusable SELECT that ran a kept tree / that
        #: built one; plans dropped for the cap or with a template.
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that did not parse (0 before any)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def plan_hit_ratio(self) -> float:
        """Fraction of reusable executions that took a cached plan."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    @property
    def plans_cached(self) -> int:
        """Plans held by the templates this cache holds."""
        with self._lock:
            templates = {id(t): t for t in (
                value[0] if isinstance(key, str) else value
                for key, value in self._entries.items())}
        return sum(len(t.plans.entries) for t in templates.values()
                   if t.plans)

    def plan_hit(self, plans, key) -> None:
        """Count a hit on ``plans.entries[key]`` and mark it most recently
        used."""
        with self._lock:
            self.plan_hits += 1
            if key in plans.entries:
                plans.entries.move_to_end(key)

    def keep_plan(self, plans, key, entry) -> None:
        """Count a reusable statement that built its tree and keep the
        plan under ``key`` (``entry`` None: counted, not kept)."""
        with self._lock:
            self.plan_misses += 1
            if entry is None:
                return
            entries = plans.entries
            entries[key] = entry
            entries.move_to_end(key)
            while len(entries) > self.PLANS_PER_TEMPLATE:
                entries.popitem(last=False)
                self.plan_evictions += 1

    def statement(self, sql: str, params: Sequence[object] = ()):
        """What ``parse(sql, params)`` returns, parsing only when the
        text's template is not cached."""
        template, values = self.lookup(sql)
        return instantiate(template, fill(values, params))

    def lookup(self, sql: str) -> Tuple[Template, Sequence[object]]:
        """The text's template and the values found in the text for its
        slots (:data:`~repro.sql.parser.UNBOUND` where the text has a
        ``?``); ``statement`` is a view of this."""
        entries = self._entries
        with self._lock:
            entry = entries.get(sql)
            if entry is not None:
                entries.move_to_end(sql)
                self.hits += 1
                return entry
        tokens = tokenize(sql)
        key, values = normalise(tokens)
        with self._lock:
            template = entries.get(key)
        parsed = template is None
        if parsed:
            template = parse_template(tokens, slot_literals=True)
        entry = (template, values)
        with self._lock:
            if parsed:
                self.misses += 1
            else:
                self.hits += 1
            if len(sql) <= self.MAX_TEXT_CHARS:
                self._store(key, template)
                if sql not in entries:
                    self.bytes_cached += len(sql.encode())
                self._store(sql, entry)
        return entry

    def _store(self, key: object, value: object) -> None:
        """Insert or refresh one entry and evict down to the cap (the
        caller holds the lock)."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.CAPACITY:
            evicted, value = entries.popitem(last=False)
            self.evictions += 1
            if isinstance(evicted, str):
                self.bytes_cached -= len(evicted.encode())
            elif value.plans:
                self.plan_evictions += len(value.plans.entries)
                value.plans = None

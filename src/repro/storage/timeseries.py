"""Deterministic time-series telemetry history keyed to the LogicalClock.

The DMVs expose *point-in-time* snapshots; the ROADMAP's closed-loop
online tuner (per *Predictive Indexing*, PAPERS.md) needs a *history* —
"waits per interval", "statements per interval", "buffer-pool hit rate
over time" — to detect workload drift. SQL Server ships this as the
Query Store's fixed-duration runtime intervals and as management-pack
telemetry collection; this module is the repro analog.

:class:`TelemetryHistory` retains up to ``retention`` interval samples,
one per ``interval`` *logical-clock ticks* — i.e. per executed
statements, never per wall second. The executor calls
:meth:`maybe_sample` after each statement; when the clock has crossed
an interval boundary one sample is taken. Because sampling is keyed to
the deterministic statement sequence, two identical runs produce the
same number of samples at the same clock stamps with the same counter
values — :meth:`digest` proves it.

Determinism split, same contract as the rest of the observability
stack:

* The **deterministic core** of each sample — clock stamp, statements
  per interval, wait *counts* per type, event counts, buffer-pool
  hit/miss counts — enters :meth:`digest`.
* The **wall-clock overlay** — per-type wait milliseconds and the
  sample's ``wall_time_s`` — rides along for operators (the
  ``repro monitor`` top-waits panel and Prometheus histograms read it)
  but is excluded from the digest, so determinism tests hold on real,
  jittery hardware.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from typing import Dict, List, Optional

#: Sample every this-many statements by default. Small enough that the
#: short serving benches produce several samples, large enough that
#: per-statement overhead stays negligible.
DEFAULT_SAMPLE_INTERVAL = 16

#: Retain this many interval samples by default (older samples fall off
#: the front) — mirrors the Query Store's bounded runtime-interval
#: retention.
DEFAULT_RETENTION = 256


class TelemetryHistory:
    """Bounded history of interval telemetry samples.

    One instance is owned per :class:`~repro.storage.database.Database`
    (``database.history``). Samples are dicts (JSON-friendly, stable key
    order irrelevant — the digest sorts) with cumulative-counter
    *deltas* over the interval, which is what a drift detector consumes.
    """

    def __init__(self, interval: int = DEFAULT_SAMPLE_INTERVAL,
                 retention: int = DEFAULT_RETENTION):
        if interval <= 0:
            raise ValueError("sample interval must be positive")
        if retention <= 0:
            raise ValueError("retention must be positive")
        self.interval = int(interval)
        self.retention = int(retention)
        self._samples: "deque[Dict[str, object]]" = deque(maxlen=self.retention)
        self._lock = threading.Lock()
        self._next_due = self.interval
        self._prev: Optional[Dict[str, object]] = None
        self.samples_taken = 0

    # ----------------------------------------------------------- sampling
    def _cumulative(self, database) -> Dict[str, object]:
        """Read the engine's cumulative observability counters once."""
        cum: Dict[str, object] = {
            "statements": database.telemetry.clock.now,
        }
        waits = getattr(database, "waits", None)
        if waits is not None:
            cum["waits"] = {
                t: (acc.waiting_tasks_count, acc.wait_time_ms)
                for t, acc in waits.server_stats().items()}
        else:
            cum["waits"] = {}
        events = getattr(database, "events", None)
        cum["events"] = events.emitted if events is not None else 0
        pool = database.buffer_pool
        if pool is not None:
            cum["pool_hits"] = pool.hits
            cum["pool_misses"] = pool.misses
            cum["pool_evictions"] = pool.evictions
        return cum

    def _build_sample(self, clock_now: int,
                      cum: Dict[str, object]) -> Dict[str, object]:
        prev = self._prev or {}
        prev_waits = prev.get("waits", {})
        wait_rows: Dict[str, Dict[str, object]] = {}
        for wait_type, (count, ms) in cum["waits"].items():
            prev_count, prev_ms = prev_waits.get(wait_type, (0, 0.0))
            wait_rows[wait_type] = {
                "count": count - prev_count,
                "wait_ms": round(max(0.0, ms - prev_ms), 4),
            }
        sample: Dict[str, object] = {
            "clock": clock_now,
            "statements": cum["statements"] - prev.get("statements", 0),
            "waits": wait_rows,
            "events": cum["events"] - prev.get("events", 0),
            # Wall-clock overlay: operator-facing, excluded from digest().
            "wall_time_s": round(time.time(), 3),
        }
        if "pool_hits" in cum:
            sample["pool_hits"] = cum["pool_hits"] - prev.get("pool_hits", 0)
            sample["pool_misses"] = (
                cum["pool_misses"] - prev.get("pool_misses", 0))
            sample["pool_evictions"] = (
                cum["pool_evictions"] - prev.get("pool_evictions", 0))
        return sample

    def maybe_sample(self, database) -> Optional[Dict[str, object]]:
        """Take one sample if the logical clock has crossed the next
        interval boundary; returns the sample or None.

        Called by the executor after every statement; under concurrent
        sessions the lock ensures exactly one session samples per
        boundary crossing.
        """
        clock_now = database.telemetry.clock.now
        if clock_now < self._next_due:      # read again under the lock
            return None
        with self._lock:
            if clock_now < self._next_due:
                return None
            # Align the next boundary past the current clock so a burst
            # that crossed several intervals yields one (wider) sample.
            self._next_due = clock_now - (clock_now % self.interval) \
                + self.interval
            return self._sample_locked(database, clock_now)

    def sample_now(self, database) -> Dict[str, object]:
        """Force an immediate sample regardless of the interval (used by
        ``repro monitor`` so each watch round closes an interval)."""
        with self._lock:
            return self._sample_locked(
                database, database.telemetry.clock.now)

    def _sample_locked(self, database, clock_now: int) -> Dict[str, object]:
        cum = self._cumulative(database)
        sample = self._build_sample(clock_now, cum)
        self._prev = cum
        self._samples.append(sample)
        self.samples_taken += 1
        return sample

    # ----------------------------------------------------------- readouts
    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def samples(self) -> List[Dict[str, object]]:
        """Retained samples, oldest first."""
        with self._lock:
            return [dict(s) for s in self._samples]

    def last(self) -> Optional[Dict[str, object]]:
        """The most recent sample, or None before the first boundary."""
        with self._lock:
            return dict(self._samples[-1]) if self._samples else None

    @staticmethod
    def _deterministic_projection(sample: Dict[str, object]) -> Dict[str, object]:
        """The digest-eligible core of one sample: counts only, no wall
        time, no wait milliseconds."""
        out: Dict[str, object] = {
            "clock": sample["clock"],
            "statements": sample["statements"],
            "events": sample["events"],
            "waits": {t: row["count"]
                      for t, row in sample.get("waits", {}).items()},
        }
        for key in ("pool_hits", "pool_misses", "pool_evictions"):
            if key in sample:
                out[key] = sample[key]
        return out

    def digest(self) -> str:
        """SHA-256 over the deterministic projection of every retained
        sample — identical across identical runs, wall-clock excluded."""
        projected = [self._deterministic_projection(s)
                     for s in self.samples()]
        blob = json.dumps(projected, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def reset(self) -> None:
        """Drop the history and restart interval tracking from the
        current position (the clock itself is untouched)."""
        with self._lock:
            self._samples.clear()
            self._prev = None
            self._next_due = self.interval
            self.samples_taken = 0

    def __repr__(self) -> str:
        with self._lock:
            return (f"TelemetryHistory(samples={len(self._samples)}, "
                    f"interval={self.interval})")

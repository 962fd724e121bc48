"""Discrete-event concurrency simulator.

Reproduces the paper's multi-client experiments (Figures 6, 11, 13)
without wall-clock dependence. Clients issue statements in a closed loop
(no think time, like the paper's setup); each statement goes through
three phases:

1. **Lock acquisition** — all locks upfront through the
   :class:`~repro.engine.locks.LockManager`; blocked statements queue
   FIFO and accumulate lock-wait time.
2. **CPU phase** — statements share ``n_cores`` under processor sharing:
   each active statement receives ``min(dop, fair share)`` cores, with
   unused share redistributed (waterfilling). This is what moves the
   B+ tree/CSI crossover with concurrency (Figure 13): CSI's parallel
   scans starve each other at high client counts while serial B+ tree
   plans keep their single core busy.
3. **I/O phase** — a fixed non-CPU delay (cold reads, spills).

Statement costs come from solo executions measured by the real engine —
the simulator composes measured behaviour, it does not invent costs.

Resource pools (Section 5.2.2's CPU affinitization of the C and H
workloads) are modelled by giving each statement a pool label and each
pool a core budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import TransactionError
from repro.engine.locks import (
    READ_COMMITTED,
    SNAPSHOT,
    SNAPSHOT_READ_VERSION_MS,
    LockManager,
    Resource,
    read_cpu_multiplier,
    read_lock_requests,
    write_lock_requests,
)


@dataclass
class StatementProfile:
    """Solo-measured execution profile of one statement template."""

    tag: str
    cpu_ms: float
    io_ms: float = 0.0
    dop: int = 1
    is_write: bool = False
    #: Resources read (locked under SERIALIZABLE) / written (always X).
    read_resources: Tuple[Resource, ...] = ()
    write_resources: Tuple[Resource, ...] = ()
    pool: str = "default"


#: A client script returns the next statement profile each call.
ClientScript = Callable[[], StatementProfile]


@dataclass
class StatementRecord:
    """One completed statement in the simulation timeline."""
    tag: str
    start_ms: float
    end_ms: float
    lock_wait_ms: float
    pool: str

    @property
    def latency_ms(self) -> float:
        """End-to-end latency of this statement (ms)."""
        return self.end_ms - self.start_ms


@dataclass
class SimulationResult:
    """All statement records plus the simulated duration."""
    records: List[StatementRecord]
    duration_ms: float

    def latencies(self, tag: Optional[str] = None) -> List[float]:
        """Latencies of all recorded statements (optionally one tag)."""
        return [r.latency_ms for r in self.records
                if tag is None or r.tag == tag]

    def median_latency(self, tag: Optional[str] = None) -> float:
        """Median latency in ms (NaN when nothing matched)."""
        values = sorted(self.latencies(tag))
        if not values:
            return float("nan")
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2

    def mean_latency(self, tag: Optional[str] = None) -> float:
        """Mean latency in ms (NaN when nothing matched)."""
        values = self.latencies(tag)
        return sum(values) / len(values) if values else float("nan")

    def throughput_per_sec(self, tag: Optional[str] = None) -> float:
        """Completed statements per second of simulated time."""
        n = len(self.latencies(tag))
        return n / (self.duration_ms / 1000.0) if self.duration_ms else 0.0

    def total_lock_wait_ms(self) -> float:
        """Sum of lock-wait time across all statements."""
        return sum(r.lock_wait_ms for r in self.records)

    def tags(self) -> List[str]:
        """Distinct statement tags observed, sorted."""
        return sorted({r.tag for r in self.records})


class _Active:
    __slots__ = ("client", "profile", "start", "lock_acquired_at",
                 "remaining_cpu", "phase", "io_until")

    def __init__(self, client: int, profile: StatementProfile, now: float):
        self.client = client
        self.profile = profile
        self.start = now
        self.lock_acquired_at = now
        self.remaining_cpu = max(0.0, profile.cpu_ms)
        self.phase = "lock"
        self.io_until = 0.0


class ConcurrencySimulator:
    """Closed-loop multi-client simulator over one lock manager."""

    def __init__(
        self,
        n_cores: int = 40,
        isolation: str = READ_COMMITTED,
        pool_cores: Optional[Dict[str, int]] = None,
        epsilon_ms: float = 1e-6,
    ):
        self.n_cores = n_cores
        self.isolation = isolation
        #: Core budget per resource pool; pools absent here share the
        #: leftover cores.
        self.pool_cores = pool_cores or {}
        self.epsilon_ms = epsilon_ms

    # ---------------------------------------------------------------- run
    def run(self, clients: Sequence[ClientScript],
            duration_ms: float = 10_000.0,
            max_statements: Optional[int] = None) -> SimulationResult:
        """Run the closed-loop simulation and return its results."""
        locks = LockManager()
        now = 0.0
        records: List[StatementRecord] = []
        active: Dict[int, _Active] = {}
        blocked: Dict[int, _Active] = {}
        finished_count = 0

        def start_statement(client: int) -> None:
            """Draw the client's next statement and try its locks."""
            profile = clients[client]()
            statement = _Active(client, profile, now)
            if self.isolation == SNAPSHOT and not profile.is_write:
                # Version-chain traversal: an additive cost per read
                # statement, independent of the plan's efficiency.
                statement.remaining_cpu += SNAPSHOT_READ_VERSION_MS
            requests = self._lock_requests(profile)
            if not requests or locks.try_acquire_all(client, requests):
                statement.phase = "cpu"
                statement.lock_acquired_at = now
                active[client] = statement
            else:
                statement.phase = "lock"
                blocked[client] = statement

        for client in range(len(clients)):
            start_statement(client)

        while now < duration_ms:
            if max_statements is not None and finished_count >= max_statements:
                break
            if not active and not blocked:
                break
            if not active and blocked:
                raise TransactionError(
                    "all clients blocked on locks: deadlock in simulation")
            rates = self._cpu_rates(active)
            next_event = math.inf
            event_client = None
            for client, statement in active.items():
                if statement.phase == "cpu":
                    rate = rates.get(client, 0.0)
                    if statement.remaining_cpu <= self.epsilon_ms:
                        eta = 0.0
                    elif rate <= 0:
                        continue
                    else:
                        eta = statement.remaining_cpu / rate
                else:  # io
                    eta = statement.io_until - now
                if eta < next_event:
                    next_event = eta
                    event_client = client
            if event_client is None:
                raise TransactionError("simulation stalled (no runnable work)")
            next_event = max(next_event, 0.0)
            advance_to = min(now + next_event, duration_ms)
            elapsed = advance_to - now
            for client, statement in active.items():
                if statement.phase == "cpu":
                    statement.remaining_cpu -= rates.get(client, 0.0) * elapsed
            now = advance_to
            if now >= duration_ms:
                break

            statement = active[event_client]
            if statement.phase == "cpu" and statement.remaining_cpu \
                    <= self.epsilon_ms:
                if statement.profile.io_ms > 0:
                    statement.phase = "io"
                    statement.io_until = now + statement.profile.io_ms
                    continue
                self._finish(event_client, statement, locks, active,
                             blocked, records, now)
                finished_count += 1
                start_statement(event_client)
            elif statement.phase == "io" and statement.io_until <= now \
                    + self.epsilon_ms:
                self._finish(event_client, statement, locks, active,
                             blocked, records, now)
                finished_count += 1
                start_statement(event_client)

        return SimulationResult(records=records, duration_ms=now)

    # ------------------------------------------------------------ internals
    def _lock_requests(self, profile: StatementProfile):
        requests = list(write_lock_requests(profile.write_resources))
        requests.extend(
            read_lock_requests(self.isolation, profile.read_resources))
        return requests

    def _finish(self, client, statement, locks, active, blocked, records,
                now) -> None:
        del active[client]
        woken = locks.release_all(client)
        records.append(StatementRecord(
            tag=statement.profile.tag,
            start_ms=statement.start,
            end_ms=now,
            lock_wait_ms=statement.lock_acquired_at - statement.start,
            pool=statement.profile.pool,
        ))
        # Retry blocked statements whose locks may now be free (FIFO).
        for waiter in sorted(woken):
            waiting = blocked.get(waiter)
            if waiting is None:
                continue
            requests = self._lock_requests(waiting.profile)
            if locks.try_acquire_all(waiter, requests):
                del blocked[waiter]
                waiting.phase = "cpu"
                waiting.lock_acquired_at = now
                active[waiter] = waiting

    def _cpu_rates(self, active: Dict[int, _Active]) -> Dict[int, float]:
        """Waterfilling processor-sharing within each resource pool."""
        rates: Dict[int, float] = {}
        by_pool: Dict[str, List[Tuple[int, _Active]]] = {}
        for client, statement in active.items():
            if statement.phase != "cpu":
                continue
            by_pool.setdefault(statement.profile.pool, []).append(
                (client, statement))
        reserved = sum(self.pool_cores.get(pool, 0) for pool in by_pool
                       if pool in self.pool_cores)
        leftover = max(1, self.n_cores - reserved)
        for pool, members in by_pool.items():
            cores = self.pool_cores.get(pool, leftover)
            rates.update(self._waterfill(members, cores))
        return rates

    def _waterfill(self, members: List[Tuple[int, "_Active"]],
                   cores: int) -> Dict[int, float]:
        """Distribute ``cores`` among statements, capping each at its DOP
        and its snapshot-read multiplier-adjusted demand."""
        out: Dict[int, float] = {}
        remaining = list(members)
        budget = float(cores)
        while remaining and budget > 1e-12:
            share = budget / len(remaining)
            capped = [(c, s) for c, s in remaining
                      if s.profile.dop <= share]
            if not capped:
                for client, statement in remaining:
                    out[client] = share / self._read_penalty(statement)
                return out
            for client, statement in capped:
                out[client] = statement.profile.dop / self._read_penalty(
                    statement)
                budget -= statement.profile.dop
            remaining = [(c, s) for c, s in remaining
                         if (c, s) not in capped]
        for client, _ in remaining:
            out.setdefault(client, 0.0)
        return out

    def _read_penalty(self, statement: "_Active") -> float:
        if statement.profile.is_write:
            return 1.0
        return read_cpu_multiplier(self.isolation)

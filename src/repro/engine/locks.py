"""Lock manager for the concurrency simulator.

Implements the pieces of SQL Server's locking behaviour the paper's mixed
workload experiments depend on:

* **Lock modes** S and X with the standard compatibility matrix.
* **Granularity**: callers lock abstract *resources* — key-range buckets
  for B+ tree access, row groups for columnstore scans, rows for point
  updates. Columnstores "have very different locking characteristics
  compared to B+ tree indexes" (Section 4.5): a CSI scan's row-group
  locks cover many rows at once, so scans conflict with updates more
  coarsely than B+ tree range locks do.
* **Isolation levels** (Section 5.2.2):

  - ``READ_COMMITTED`` — readers take no long-duration locks (short
    latch-like access, modelled as no blocking); writers hold X to end.
  - ``SNAPSHOT`` — readers never block and never wait, but pay a version
    -chain traversal overhead on reads (the paper's explanation for SI
    being slightly slower than SR for read queries).
  - ``SERIALIZABLE`` — readers hold S range locks to end of statement,
    so they queue behind conflicting writers and vice versa.

Deadlock freedom comes from all-upfront acquisition in sorted resource
order (a simplification that keeps the simulator deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.errors import TransactionError

LOCK_S = "S"
LOCK_X = "X"

READ_COMMITTED = "read_committed"
SNAPSHOT = "snapshot"
SERIALIZABLE = "serializable"

ISOLATION_LEVELS = (READ_COMMITTED, SNAPSHOT, SERIALIZABLE)

#: Extra CPU multiplier snapshot isolation adds to reads (version chains).
SNAPSHOT_READ_OVERHEAD = 1.05
#: Additive per-read-statement cost of snapshot isolation: traversing
#: version chains for recently-modified rows costs roughly the same
#: absolute work regardless of how efficient the query's plan is, which
#: is why SI hurts *fast* (hybrid) readers proportionally more — the
#: paper's observation that SR yields better latency improvements for
#: read queries than SI (Section 5.2.2).
SNAPSHOT_READ_VERSION_MS = 0.4

Resource = Tuple  # e.g. ("range", "lineitem", "l_shipdate", 9131)


def compatible(held: str, requested: str) -> bool:
    """Lock-mode compatibility: only S/S coexist."""
    return held == LOCK_S and requested == LOCK_S


@dataclass
class _LockState:
    holders: Dict[int, str] = field(default_factory=dict)  # owner -> mode
    #: FIFO queue of (owner, mode) waiting for this resource.
    waiters: List[Tuple[int, str]] = field(default_factory=list)

    def can_grant(self, owner: int, mode: str) -> bool:
        """Whether ``owner`` may take ``mode`` given current holders."""
        for held_owner, held_mode in self.holders.items():
            if held_owner == owner:
                if held_mode == LOCK_X or mode == LOCK_S:
                    return True  # lock upgrade not needed
                return False  # S held, X requested: treat as incompatible
            if not compatible(held_mode, mode):
                return False
        return True


class LockManager:
    """Grants/queues lock requests over abstract resources."""

    def __init__(self) -> None:
        self._locks: Dict[Resource, _LockState] = {}
        #: owner -> resources currently held
        self._held: Dict[int, List[Resource]] = {}

    def try_acquire_all(self, owner: int,
                        requests: Sequence[Tuple[Resource, str]]) -> bool:
        """Try to atomically acquire every requested lock.

        Returns False (acquiring nothing, but queueing the owner on the
        first blocked resource) when any lock is unavailable. FIFO
        fairness: a request also blocks if an earlier waiter is still
        queued on one of its resources.
        """
        ordered = sorted(requests, key=lambda r: r[0])
        for resource, mode in ordered:
            state = self._locks.get(resource)
            if state is None:
                continue
            # FIFO fairness: only waiters queued *ahead* of this owner
            # block it; later arrivals do not.
            earlier_waiters = False
            for w_owner, _ in state.waiters:
                if w_owner == owner:
                    break
                earlier_waiters = True
                break
            if earlier_waiters or not state.can_grant(owner, mode):
                if (owner, mode) not in state.waiters:
                    state.waiters.append((owner, mode))
                return False
        for resource, mode in ordered:
            state = self._locks.setdefault(resource, _LockState())
            state.waiters = [
                (w_owner, w_mode) for w_owner, w_mode in state.waiters
                if w_owner != owner
            ]
            current = state.holders.get(owner)
            if current != LOCK_X:
                state.holders[owner] = mode if current is None else LOCK_X \
                    if LOCK_X in (current, mode) else mode
            self._held.setdefault(owner, []).append(resource)
        return True

    def release_all(self, owner: int) -> Set[int]:
        """Release everything ``owner`` holds; returns the set of owners
        that *might* now be grantable (for the simulator to retry)."""
        woken: Set[int] = set()
        for resource in self._held.pop(owner, []):
            state = self._locks.get(resource)
            if state is None:
                continue
            state.holders.pop(owner, None)
            for w_owner, _ in state.waiters:
                woken.add(w_owner)
            if not state.holders and not state.waiters:
                del self._locks[resource]
        return woken

    def holders_of(self, resource: Resource) -> Dict[int, str]:
        """Current holders (owner -> mode) of one resource."""
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}


def range_bucket(value: object, bucket_width: int = 1) -> int:
    """Map a key value onto a coarse range-lock bucket."""
    if isinstance(value, (int, float)):
        return int(value) // max(1, bucket_width)
    return hash(value) & 0xFFFF


def read_lock_requests(isolation: str, resources: Sequence[Resource]
                       ) -> List[Tuple[Resource, str]]:
    """Lock footprint of a read statement under the given isolation."""
    if isolation not in ISOLATION_LEVELS:
        raise TransactionError(f"unknown isolation level {isolation!r}")
    if isolation in (READ_COMMITTED, SNAPSHOT):
        return []
    return [(resource, LOCK_S) for resource in resources]


def write_lock_requests(resources: Sequence[Resource]
                        ) -> List[Tuple[Resource, str]]:
    """X-mode lock requests for the given resources."""
    return [(resource, LOCK_X) for resource in resources]


def read_cpu_multiplier(isolation: str) -> float:
    """Per-read CPU multiplier for the isolation level."""
    if isolation == SNAPSHOT:
        return SNAPSHOT_READ_OVERHEAD
    return 1.0

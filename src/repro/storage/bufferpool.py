"""A byte-budgeted LRU buffer pool with pin counts and demand loading.

The pool is the buffer manager over the durable snapshot
(``Database.open(..., paging=True)``). :meth:`get_or_load` faults B+
leaf pages and columnstore segment pages in from the snapshot file on
first touch, keeps them under the byte budget with LRU eviction, and
honors **pin counts** so a page cannot be evicted while a scan or seek
is reading it (eviction skips pinned frames; if everything is pinned the
pool temporarily overcommits rather than corrupting a reader).

It is the only cache of column segments: a scan decodes (or serves the
code space of) the segment page the pool holds, every time.

Pages are identified by ``(owner, page_no)``: ``page_no`` is the page's
id within the snapshot stream, and ``owner`` is what a release drops by
— a columnstore's object id, recorded in the snapshot catalog, or a
paged B+ index's :class:`~repro.storage.btree.PagedLeafSource`.

The pool is shared by every serving session, so all map mutations, LRU
reordering, pin counts, and counters run under a single per-pool lock
(an unlocked ``move_to_end`` racing a ``popitem`` corrupts the
``OrderedDict``).

Release (:meth:`evict_object`, called when a structure is rebuilt,
dropped or replaced) is O(pages of that owner) via a per-owner page
index, not a scan of every resident frame.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Set, Tuple

from repro.core.errors import StorageError
from repro.storage.waits import WAIT_PAGEIOLATCH

PageId = Tuple[object, int]

#: One :meth:`BufferPool._insert` evicting at least this many frames is
#: reported as an ``eviction_storm`` event — the working set is far
#: enough above budget that the pool is thrashing.
EVICTION_STORM_THRESHOLD = 32

#: The modeled page size, shared with :mod:`repro.storage.pages` and the
#: DMV byte math in :mod:`repro.engine.dmv`. Real snapshot pages are
#: variable-length (header + tagged payload); this constant prices
#: *modeled* page accesses.
PAGE_BYTES = 8192

#: Default demand-paging budget for ``Database.open(..., paging=True)``
#: when the caller gives no explicit ``pool_bytes``.
DEFAULT_POOL_BYTES = 64 * 1024 * 1024


class _Frame:
    """One resident page: its payload, its budget charge, and how many
    readers currently pin it."""

    __slots__ = ("value", "nbytes", "pins")

    def __init__(self, value: object, nbytes: int):
        self.value = value
        self.nbytes = nbytes
        self.pins = 0


class BufferPool:
    """Byte-budgeted LRU cache of pages with pin counts.

    Parameters
    ----------
    budget_bytes:
        Bytes of page payload the pool may keep resident.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise StorageError("buffer pool budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self._resident: "OrderedDict[PageId, _Frame]" = OrderedDict()
        #: owner -> resident page keys of that owner, so
        #: :meth:`evict_object` is O(pages of the owner).
        self._by_object: Dict[object, Set[PageId]] = {}
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: High-water mark of resident bytes — what the eviction tests
        #: and the paging benchmark assert stays bounded by the budget.
        self.peak_bytes = 0
        #: Optional observability sinks, attached by ``Database.open``:
        #: fault latency records ``PAGEIOLATCH`` waits, and an insert
        #: that evicts ≥ :data:`EVICTION_STORM_THRESHOLD` frames emits
        #: an ``eviction_storm`` event. Subscribers of that event run
        #: under the pool lock and must not re-enter the pool.
        self.waits = None
        self.events = None

    # ---------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._resident)

    @property
    def bytes_resident(self) -> int:
        """Combined budget charge of currently resident pages."""
        return self._bytes

    def is_resident(self, page: PageId) -> bool:
        """Whether the page is currently cached."""
        with self._lock:
            return page in self._resident

    @property
    def hit_ratio(self) -> float:
        """Buffer-pool hits / total accesses."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ---------------------------------------------------------- internals
    def _object_of(self, page: PageId) -> object:
        return page[0] if isinstance(page, tuple) and len(page) == 2 else None

    def _index_page(self, page: PageId) -> None:
        oid = self._object_of(page)
        if oid is not None:
            self._by_object.setdefault(oid, set()).add(page)

    def _drop(self, page: PageId, frame: _Frame) -> None:
        del self._resident[page]
        self._bytes -= frame.nbytes
        oid = self._object_of(page)
        if oid is not None:
            pages = self._by_object.get(oid)
            if pages is not None:
                pages.discard(page)
                if not pages:
                    del self._by_object[oid]

    def _evict_to(self, target_bytes: int) -> None:
        """LRU-evict unpinned frames until ``_bytes <= target_bytes``.
        Pinned frames are skipped; if every frame is pinned the pool
        overcommits temporarily rather than invalidating an in-flight
        reader."""
        if self._bytes <= target_bytes:
            return
        evicted = 0
        for page in list(self._resident):
            if self._bytes <= target_bytes:
                break
            frame = self._resident[page]
            if frame.pins:
                continue
            self._drop(page, frame)
            self.evictions += 1
            evicted += 1
        if evicted >= EVICTION_STORM_THRESHOLD and self.events is not None:
            self.events.emit("eviction_storm", {
                "evicted": evicted,
                "budget_bytes": self.budget_bytes,
                "bytes_resident": self._bytes,
            })

    def _evict_to_budget(self) -> None:
        self._evict_to(self.budget_bytes)

    def _insert(self, page: PageId, frame: _Frame) -> None:
        # Make room *before* the frame becomes resident so peak_bytes
        # never transiently overshoots the budget (a frame larger than
        # the whole budget still overcommits, as do all-pinned pools).
        self._evict_to(self.budget_bytes - frame.nbytes)
        self._resident[page] = frame
        self._bytes += frame.nbytes
        self._index_page(page)
        self.peak_bytes = max(self.peak_bytes, self._bytes)

    # ------------------------------------------------------ demand paging
    def get_or_load(self, page: PageId,
                    loader: Callable[[], Tuple[object, int]],
                    pin: bool = False) -> object:
        """Return the payload of ``page``, faulting it in on a miss.

        ``loader`` runs only on a miss and returns ``(value, nbytes)``
        where ``nbytes`` is the frame's budget charge (the on-disk page
        length). With ``pin=True`` the frame's pin count is incremented
        before returning — the caller must :meth:`unpin` when done.
        """
        with self._lock:
            frame = self._resident.get(page)
            if frame is not None:
                self._resident.move_to_end(page)
                self.hits += 1
            else:
                self.misses += 1
                started = time.perf_counter()
                value, nbytes = loader()
                if self.waits is not None:
                    # The fault latency: time a reader was stalled on
                    # the snapshot read + decode for this page.
                    self.waits.record(
                        WAIT_PAGEIOLATCH,
                        (time.perf_counter() - started) * 1000.0)
                frame = _Frame(value, nbytes)
                if pin:
                    frame.pins += 1
                self._insert(page, frame)
                return frame.value
            if pin:
                frame.pins += 1
            return frame.value

    def pin(self, page: PageId) -> None:
        """Increment the pin count of a resident page."""
        with self._lock:
            frame = self._resident.get(page)
            if frame is None:
                raise StorageError(f"cannot pin non-resident page {page!r}")
            frame.pins += 1

    def unpin(self, page: PageId) -> None:
        """Decrement a page's pin count (no-op if the page was force-
        evicted by :meth:`evict_object`/:meth:`clear` meanwhile)."""
        with self._lock:
            frame = self._resident.get(page)
            if frame is not None and frame.pins > 0:
                frame.pins -= 1
                self._evict_to_budget()

    def pinned_pages(self) -> int:
        """Number of currently pinned frames (diagnostics/tests)."""
        with self._lock:
            return sum(1 for f in self._resident.values() if f.pins)

    # ------------------------------------------------------- invalidation
    def evict_object(self, owner: object) -> int:
        """Drop all pages of one owner (a structure rebuilt, dropped or
        replaced); returns how many were dropped. O(pages of that owner)
        via the per-owner index. Pinned frames are dropped too: no read
        can reach those pages again, and staleness beats residency."""
        with self._lock:
            pages = self._by_object.get(owner)
            if not pages:
                return 0
            stale = list(pages)
            for page in stale:
                self._drop(page, self._resident[page])
            self.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Forget all recorded history: residency *and* the counters, so
        ``hit_ratio`` starts fresh for the next experiment. Use
        :meth:`evict_all` to drop residency while keeping stats, or
        :meth:`reset_stats` for the reverse."""
        with self._lock:
            self._resident.clear()
            self._by_object.clear()
            self._bytes = 0
            self.reset_stats()

    def evict_all(self) -> None:
        """Drop every resident page but keep the hit/miss counters."""
        with self._lock:
            self._resident.clear()
            self._by_object.clear()
            self._bytes = 0

    def reset_stats(self) -> None:
        """Zero the counters while keeping pages resident."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0
            self.peak_bytes = self._bytes

    def check_consistency(self) -> None:
        """Verify internal invariants (used by the hammer tests):
        byte accounting matches resident frames and the per-object index
        exactly mirrors residency."""
        with self._lock:
            total = sum(f.nbytes for f in self._resident.values())
            if total != self._bytes:
                raise StorageError(
                    f"byte accounting drifted: {self._bytes} != {total}")
            indexed = set()
            for oid, pages in self._by_object.items():
                if not pages:
                    raise StorageError(f"empty index bucket for {oid!r}")
                indexed |= pages
            tracked = {p for p in self._resident
                       if self._object_of(p) is not None}
            if indexed != tracked:
                raise StorageError("per-object page index out of sync")

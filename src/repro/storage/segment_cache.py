"""Decoded-segment cache: a byte-budgeted LRU over decoded column segments.

Every columnstore scan materializes each compressed column segment with
:meth:`~repro.storage.compression.ColumnSegment.decode` — RLE expansion
via ``np.repeat`` plus an optional dictionary gather. That work is pure
CPU and identical across repeated scans of the same row group, so the
engine keeps the decoded arrays in a shared, memory-budgeted LRU keyed by
``(object_id, group_index, column)``. A hit returns the previously
decoded array and skips both the decode CPU charge and the segment read;
a miss decodes, charges the cost model as before, and populates the
cache.

The cache is deliberately *decoupled from visibility*: it stores the raw
decoded segment in stored order, before delete bitmaps, delete-buffer
anti-joins, or predicates are applied, so delete activity never requires
invalidation by itself. Structural changes do: ``rebuild`` replaces every
row group, and the tuple mover / delete-buffer compaction are invalidated
conservatively (see :meth:`ColumnstoreIndex.move_tuples`).

Cached arrays are shared between the cache and every consumer; batch-mode
operators treat batch columns as immutable (filters and projections copy),
which is what makes the sharing safe.

When the database is demand-paged (``Database.open(..., paging=True)``),
this cache layers *above* the buffer pool: a decoded hit returns before
the pool is consulted, so it saves the page fault as well as the decode.
A miss faults the compressed segment page in through
:class:`~repro.storage.bufferpool.BufferPool` and decodes from there.
Invalidation is kept consistent across both layers —
``ColumnstoreIndex.invalidate_cached_segments`` drops the decoded
entries here *and* the compressed frames from the pool in one call.

Under encoded execution (:mod:`repro.engine.encoded`, always on),
code-space-capable segments — dictionary
string segments and numeric RLE / bit-packed segments — are cached as
:class:`~repro.engine.encoded.EncodedColumn` objects: int32 codes plus
the shared per-segment dictionary. Such entries are charged at their
*stored* size (``EncodedColumn.stored_bytes``, the int32 code array;
the dictionary belongs to the segment, which outlives the cache entry)
rather than the decoded width — codes are what actually occupies cache
memory, and charging decoded width would leave most of the budget
unusable. The resulting hit/miss counters are still identical to the
decoded reference scan's on a fixed access sequence as long as the
budget holds both representations; the byte totals legitimately differ
and are asserted against what is actually resident by the differential
accounting test.

One cache is owned per :class:`~repro.storage.database.Database` and is
**disabled by default** so that cold-run experiments and the paper's
figure benchmarks are unaffected unless a caller opts in
(``Database(segment_cache_enabled=True)`` or ``cache.enabled = True``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.errors import StorageError

#: Cache key: (index object id, row-group index, column name).
SegmentKey = Tuple[int, int, str]

#: Default cache budget. Sized so a scaled TPC-H hot set fits while
#: still exercising eviction in the larger benchmark sweeps.
DEFAULT_SEGMENT_CACHE_BUDGET = 64 * 1024 * 1024

#: Estimated per-element bytes for object-dtype (string) arrays, matching
#: the heuristic in :meth:`repro.engine.batch.Batch.payload_bytes`.
_OBJECT_ELEMENT_BYTES = 24


def _array_bytes(array) -> int:
    """Budget-accounting size of one cached array.

    Encoded entries charge their stored code bytes (the int32 array that
    is actually resident), decoded object arrays the per-element string
    heuristic, numeric arrays their true ``nbytes``.
    """
    stored = getattr(array, "stored_bytes", None)
    if stored is not None:  # EncodedColumn
        return int(stored)
    if array.dtype == object:
        return len(array) * _OBJECT_ELEMENT_BYTES
    return int(array.nbytes)


@dataclass
class SegmentCacheStats:
    """Lifetime counters of one :class:`DecodedSegmentCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        """Cache hits / total lookups (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0


class DecodedSegmentCache:
    """Byte-budgeted LRU of decoded column-segment arrays.

    Parameters
    ----------
    budget_bytes:
        Maximum combined size of cached arrays. Inserting past the budget
        evicts least-recently-used entries; an array bigger than the
        whole budget is simply not cached.
    enabled:
        When False, :meth:`get` always misses without recording stats and
        :meth:`put` is a no-op, so a disabled cache leaves every charge
        and metric exactly as the uncached engine produced them.

    Thread safety: one cache is shared by every serving session, so
    lookup + LRU reordering, insertion + eviction, and the
    ``hits``/``misses``/``evictions`` counters all run under a single
    per-cache lock — an unlocked ``move_to_end`` racing a ``popitem``
    corrupts the ``OrderedDict``, and unlocked ``+=`` undercounts.
    """

    def __init__(self, budget_bytes: int = DEFAULT_SEGMENT_CACHE_BUDGET,
                 enabled: bool = True):
        if budget_bytes <= 0:
            raise StorageError("segment cache budget must be positive")
        self.budget_bytes = budget_bytes
        self.enabled = enabled
        self._entries: "OrderedDict[SegmentKey, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.stats = SegmentCacheStats()
        #: Optional :class:`~repro.storage.waits.WaitStatsCollector`
        #: (attached by the owning Database). The cache itself never
        #: blocks; scans consult this to record decode time on a miss as
        #: a ``SEGCACHE_MISS`` wait (see ``ColumnstoreIndex.scan``).
        self.waits = None

    # ----------------------------------------------------------- lookups
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_cached(self) -> int:
        """Combined size of currently cached arrays."""
        return self._bytes

    def __contains__(self, key: SegmentKey) -> bool:
        return key in self._entries

    def get(self, key: SegmentKey):
        """The cached decoded array for ``key``, or None on a miss.

        A hit refreshes the entry's LRU position. Disabled caches always
        return None and record nothing.
        """
        if not self.enabled:
            return None
        with self._lock:
            array = self._entries.get(key)
            if array is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return array

    def put(self, key: SegmentKey, array: np.ndarray) -> int:
        """Cache a decoded array; returns how many entries were evicted.

        Re-inserting an existing key replaces the entry. Arrays larger
        than the entire budget are not cached (they would evict the whole
        working set for a single segment).
        """
        if not self.enabled:
            return 0
        nbytes = _array_bytes(array)
        if nbytes > self.budget_bytes:
            return 0
        with self._lock:
            if key in self._entries:
                self._bytes -= _array_bytes(self._entries.pop(key))
            self._entries[key] = array
            self._bytes += nbytes
            evicted = 0
            while self._bytes > self.budget_bytes:
                _, stale = self._entries.popitem(last=False)
                self._bytes -= _array_bytes(stale)
                self.stats.evictions += 1
                evicted += 1
            return evicted

    # ------------------------------------------------------ invalidation
    def invalidate_object(self, object_id: int) -> int:
        """Drop every cached segment of one index (rebuild/drop); returns
        the number of entries removed. Mirrors
        :meth:`repro.storage.bufferpool.BufferPool.evict_object`."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == object_id]
            for key in stale:
                self._bytes -= _array_bytes(self._entries.pop(key))
            self.stats.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.stats.reset()

    def reset_stats(self) -> None:
        """Zero the counters while keeping cached entries resident —
        for back-to-back experiments that want a warm cache but fresh
        hit/miss accounting."""
        with self._lock:
            self.stats.reset()

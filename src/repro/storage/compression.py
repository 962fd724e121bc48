"""Columnstore compression: dictionary encoding, run-length encoding,
bit-packing, and greedy sort-column selection.

Mirrors the SQL Server scheme the paper describes (Section 2 and
Figure 8):

* Non-numeric domains are *dictionary encoded* into integer codes.
* Within each row group the rows are sorted to create long runs; the sort
  order is chosen greedily, "picking the next column to sort by based on
  the column with the fewest runs".
* Each column segment is then stored with whichever encoding is smallest:
  run-length encoding (RLE) of the sorted values, bit-packed codes, or raw
  values.
* Every segment records ``min``/``max`` of its values — the small
  materialized aggregates that enable segment elimination (data skipping).

The compressed representation is real: RLE segments store run values and
lengths and are materialized with ``np.repeat`` at scan time; dictionary
segments store codes plus the dictionary. Size accounting
(``size_bytes``) is derived from the representation actually chosen, which
is what the advisor's size estimators are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import StorageError
from repro.core.schema import TableSchema
from repro.core.types import TypeKind

#: Encodings a segment may use, in the order they are considered.
ENCODING_RLE = "rle"
ENCODING_DICT = "dict"
ENCODING_BITPACK = "bitpack"
ENCODING_RAW = "raw"

_RUN_HEADER_BYTES = 4  # run length counter per run

#: Ceiling on the size of a *derived* numeric dictionary (see
#: :meth:`ColumnSegment.code_space`): a numeric segment whose distinct
#: run values / value span exceed this executes decoded — a wider code
#: space would cost more to build than vectorized int64 execution saves.
_DERIVED_DICT_MAX = 1 << 16

_UNSET = object()


def _bits_for(n_distinct: int) -> int:
    """Bits needed to store a code for one of ``n_distinct`` values."""
    if n_distinct <= 1:
        return 1
    return max(1, math.ceil(math.log2(n_distinct)))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of ``values``, ascending: ``np.unique(values)``
    in values and dtype, NaNs collapsed into one trailing NaN.

    It sorts and keeps each value that differs from its predecessor. A
    bare ``np.unique`` takes a hash path in numpy 2 that costs 30x a sort
    on integers; with ``return_inverse`` it sorts too, so those calls stay.
    """
    ordered = np.sort(values, axis=None)
    if len(ordered) < 2:
        return ordered
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    if ordered.dtype.kind in "cfmM" and np.isnan(ordered[-1]):
        first_nan = int(np.argmax(np.isnan(ordered)))
        keep[first_nan] = True
        keep[first_nan + 1:] = False
    return ordered[keep]


def rle_runs(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``values`` into maximal runs; returns (run_values, run_lengths)."""
    n = len(values)
    if n == 0:
        return values[:0], np.zeros(0, dtype=np.int64)
    if values.dtype == object:
        change = np.ones(n, dtype=bool)
        change[1:] = values[1:] != values[:-1]
    else:
        change = np.empty(n, dtype=bool)
        change[0] = True
        np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    lengths = np.diff(np.append(starts, n))
    return values[starts], lengths


def count_runs(values: np.ndarray) -> int:
    """Number of maximal runs in ``values`` (1 for constant columns)."""
    if len(values) == 0:
        return 0
    if values.dtype == object:
        return int(1 + np.count_nonzero(values[1:] != values[:-1]))
    return int(1 + np.count_nonzero(np.not_equal(values[1:], values[:-1])))


@dataclass
class Dictionary:
    """Value dictionary for a string (or other non-numeric) column.

    ``values`` is sorted ascending with NULL (``None``) first when the
    column contains one, so dictionary *code order equals value order* —
    the invariant the encoded execution path relies on to translate
    range predicates into code-range tests.
    """

    values: np.ndarray  # sorted unique values (NULL first when present)

    def __post_init__(self):
        self._code_map = None  # value -> code, built lazily
        self._integral = None  # see is_integral

    def __len__(self) -> int:
        return len(self.values)

    @property
    def null_offset(self) -> int:
        """Number of leading NULL slots (0 or 1): non-null values occupy
        the contiguous, value-ordered code range ``[null_offset, len)``."""
        return 1 if len(self.values) and self.values[0] is None else 0

    def _lookup(self) -> Dict[object, int]:
        if self._code_map is None:
            self._code_map = {
                value: code for code, value in enumerate(self.values.tolist())
            }
        return self._code_map

    def code_of(self, value: object) -> Optional[int]:
        """Exact-match code for ``value``; None when absent."""
        return self._lookup().get(value)

    def is_integral(self) -> bool:
        """Whether every non-null value is an integer, so that a sum over
        decoded values is exact in any order (floats are not: their
        summation order affects rounding). Cached on the instance."""
        if self._integral is None:
            if self.values.dtype != object:
                self._integral = self.values.dtype.kind in "iu"
            else:
                self._integral = all(
                    isinstance(v, int) and not isinstance(v, bool)
                    for v in self.values[self.null_offset:].tolist())
        return self._integral

    def size_bytes(self) -> int:
        """Approximate on-disk size in bytes."""
        if len(self.values) == 0:
            return 0
        if self.values.dtype == object:
            return int(sum(len(str(v)) + 4 for v in self.values))
        return int(len(self.values) * self.values.dtype.itemsize)

    def encode(self, raw: np.ndarray) -> np.ndarray:
        """Map raw values to dictionary codes (exact lookup, NULL-safe)."""
        lookup = self._lookup()
        return np.fromiter((lookup[v] for v in raw.tolist()),
                           dtype=np.int64, count=len(raw))

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Materialize the segment as a flat value array."""
        return self.values[codes]

    @classmethod
    def build(cls, raw: np.ndarray) -> "Dictionary":
        """Build the sorted dictionary for ``raw``, NULLs first."""
        if raw.dtype == object:
            uniques = set(raw.tolist())
            has_null = None in uniques
            ordered: List[object] = sorted(
                v for v in uniques if v is not None)
            if has_null:
                ordered = [None] + ordered
            values = np.empty(len(ordered), dtype=object)
            values[:] = ordered
            return cls(values=values)
        return cls(values=sorted_distinct(raw))


@dataclass
class ColumnSegment:
    """One column's data within one compressed row group."""

    column: str
    n_rows: int
    encoding: str
    size_bytes: int
    min_value: object
    max_value: object
    #: RLE payload (present when encoding == ENCODING_RLE)
    run_values: Optional[np.ndarray] = None
    run_lengths: Optional[np.ndarray] = None
    #: Raw / bit-packed payload (codes when a dictionary is attached)
    values: Optional[np.ndarray] = None
    dictionary: Optional[Dictionary] = None

    def decode(self) -> np.ndarray:
        """Materialize the segment as a flat value array (stored order)."""
        if self.encoding == ENCODING_RLE:
            assert self.run_values is not None and self.run_lengths is not None
            decoded = np.repeat(self.run_values, self.run_lengths)
        else:
            assert self.values is not None
            decoded = self.values
        if self.dictionary is not None:
            return self.dictionary.decode(decoded)
        return decoded

    def codes_array(self) -> np.ndarray:
        """The segment's dictionary codes in stored order, *without*
        materializing values — the input to encoded execution. Only
        valid for segments that carry a dictionary."""
        assert self.dictionary is not None
        if self.encoding == ENCODING_RLE:
            assert self.run_values is not None and self.run_lengths is not None
            return np.repeat(self.run_values, self.run_lengths)
        assert self.values is not None
        return self.values

    def code_space(self) -> Optional[Tuple[np.ndarray, Dictionary]]:
        """The segment's (codes, dictionary) pair for encoded execution,
        or None when this segment has no usable code space.

        Dictionary segments return their stored codes directly. Numeric
        segments *derive* a code space from the compressed
        representation — without touching the stored payload or
        ``size_bytes``, so modeled costs and the on-disk format are
        unchanged:

        * RLE segments build a dictionary of their distinct run values
          (``sorted_distinct`` over runs, not rows) and emit per-run codes
          repeated by run length — execution on (run-value, run-length)
          pairs.
        * Bit-packed / raw integer segments use frame-of-reference: the
          dictionary is ``arange(min, max + 1)`` and the codes are
          ``value - min`` — exactly the packed FOR codes the stored
          representation implies.

        The derived dictionary is sorted ascending with no NULL slot
        (numeric arrays cannot hold None), so code order equals value
        order and every code-space predicate/sort rule applies
        unchanged. The result is cached on the segment instance: one
        derivation per segment per lifetime, never per statement.
        """
        if self.dictionary is not None:
            return self.codes_array(), self.dictionary
        cached = getattr(self, "_code_space_cache", _UNSET)
        if cached is not _UNSET:
            return cached
        derived = self._derive_code_space()
        self._code_space_cache = derived
        return derived

    def _derive_code_space(self) -> Optional[Tuple[np.ndarray, Dictionary]]:
        if self.encoding == ENCODING_RLE:
            run_values = self.run_values
            if run_values is None or run_values.dtype == object:
                return None
            distinct = sorted_distinct(run_values)
            if len(distinct) > _DERIVED_DICT_MAX:
                return None
            run_codes = np.searchsorted(distinct, run_values).astype(np.int32)
            codes = np.repeat(run_codes, self.run_lengths)
            return codes, Dictionary(values=distinct)
        values = self.values
        if values is None or values.dtype == object:
            return None
        if values.dtype.kind not in "iu":
            return None  # fractional values cannot be FOR-coded
        if self.min_value is None or self.max_value is None:
            return None
        lo = int(self.min_value)
        span = int(self.max_value) - lo
        if span + 1 > _DERIVED_DICT_MAX:
            return None
        dict_values = np.arange(lo, lo + span + 1, dtype=values.dtype)
        codes = (values - lo).astype(np.int32)
        return codes, Dictionary(values=dict_values)

    def overlaps(self, low: object, high: object) -> bool:
        """Min/max check used for segment elimination: can any value in
        [low, high] exist in this segment? ``None`` bounds are open."""
        if self.min_value is None or self.max_value is None:
            return True  # no metadata: cannot skip
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True


def _segment_min_max(values: np.ndarray) -> Tuple[object, object]:
    if len(values) == 0:
        return None, None
    if values.dtype == object:
        non_null = [v for v in values if v is not None]
        if not non_null:
            return None, None  # all-NULL segment: no skipping metadata
        return min(non_null), max(non_null)
    return values.min().item(), values.max().item()


def encode_segment(column: str, values: np.ndarray, value_bytes: int,
                   dictionary: Optional[Dictionary] = None) -> ColumnSegment:
    """Choose the smallest encoding for ``values`` and build the segment.

    ``values`` must already be in the row group's final (sorted) order.
    ``value_bytes`` is the uncompressed per-value width; with a dictionary,
    the encoded width is the code width.
    """
    n = len(values)
    if n == 0:
        raise StorageError(f"segment for {column!r} is empty")
    if dictionary is not None:
        stored = dictionary.encode(values)
        dict_overhead = dictionary.size_bytes()
        distinct = len(dictionary)
        code_bytes = _bits_for(distinct) / 8.0
    else:
        stored = values
        dict_overhead = 0
        if values.dtype == object:
            raise StorageError(f"column {column!r} needs a dictionary")
        distinct = 0  # computed lazily below only if needed
        code_bytes = float(value_bytes)

    run_values, run_lengths = rle_runs(stored)
    n_runs = len(run_values)
    rle_size = int(n_runs * (code_bytes + _RUN_HEADER_BYTES)) + dict_overhead

    if dictionary is None:
        # Frame-of-reference bit packing: without a dictionary, packed
        # width is set by the *value range*, not the distinct count.
        lo = stored.min()
        hi = stored.max()
        span = float(hi) - float(lo)
        if span == int(span):
            pack_bits = _bits_for(int(span) + 1)
        else:
            pack_bits = 64  # fractional values cannot be FOR-packed
        distinct = len(sorted_distinct(stored))
    else:
        pack_bits = _bits_for(max(distinct, 2))
    pack_size = int(n * pack_bits / 8) + dict_overhead
    raw_size = int(n * code_bytes) + dict_overhead

    min_value, max_value = _segment_min_max(values)
    best = min(rle_size, pack_size, raw_size)
    if best == rle_size:
        return ColumnSegment(
            column=column, n_rows=n, encoding=ENCODING_RLE, size_bytes=rle_size,
            min_value=min_value, max_value=max_value,
            run_values=run_values, run_lengths=run_lengths, dictionary=dictionary,
        )
    encoding = ENCODING_DICT if dictionary is not None else ENCODING_BITPACK
    if best == raw_size and dictionary is None:
        encoding = ENCODING_RAW
    return ColumnSegment(
        column=column, n_rows=n, encoding=encoding, size_bytes=best,
        min_value=min_value, max_value=max_value,
        values=stored, dictionary=dictionary,
    )


def choose_sort_order(columns: Dict[str, np.ndarray]) -> List[str]:
    """Greedy sort-column selection.

    SQL Server "picks the next column to sort by based on the column with
    the fewest runs" (Section 4.4); like the paper's estimator we use the
    number of distinct values — the run count the column would have once
    sorted — as the greedy criterion, smallest first.
    """
    distinct_counts = {
        name: (len(set(values.tolist())) if values.dtype == object
               else len(sorted_distinct(values)))
        for name, values in columns.items()
    }
    return sorted(distinct_counts, key=lambda name: (distinct_counts[name], name))


@dataclass
class SegmentMeta:
    """Per-column segment metadata a row group keeps resident even when
    the segment's data pages are not.

    This is the small materialized-aggregate record the snapshot stores
    in the PT_CSI_GROUP page: enough for segment elimination
    (:meth:`overlaps` mirrors :meth:`ColumnSegment.overlaps`), sizing,
    and encoding stats — without faulting the segment page in.
    """

    column: str
    n_rows: int
    encoding: str
    size_bytes: int
    min_value: object
    max_value: object

    def overlaps(self, low: object, high: object) -> bool:
        """Min/max check used for segment elimination: can any value in
        [low, high] exist in this segment? ``None`` bounds are open."""
        if self.min_value is None or self.max_value is None:
            return True  # no metadata: cannot skip
        if low is not None and self.max_value < low:
            return False
        if high is not None and self.min_value > high:
            return False
        return True

    @classmethod
    def of(cls, segment: ColumnSegment) -> "SegmentMeta":
        return cls(
            column=segment.column, n_rows=segment.n_rows,
            encoding=segment.encoding, size_bytes=segment.size_bytes,
            min_value=segment.min_value, max_value=segment.max_value,
        )


@dataclass
class CompressedRowGroup:
    """A compressed row group: aligned column segments plus row ids.

    ``rids[i]`` is the table row id of stored position ``i``; the delete
    bitmap of primary columnstores marks positions within this array.

    Two residency modes share this class. In-memory groups hold every
    segment in ``segments``. *Paged* groups (built by the lazy snapshot
    loader) keep ``segments`` empty and instead carry per-column
    :class:`SegmentMeta` plus a ``loader`` that faults a segment's page
    in through the buffer pool on first touch; loaded segments are owned
    by the pool's LRU, never stored back here, so a paged group's
    residency stays bounded by the pool budget.
    """

    segments: Dict[str, ColumnSegment]
    rids: np.ndarray
    n_rows: int
    sort_order: List[str] = field(default_factory=list)
    #: Paged groups only: column -> SegmentMeta (resident metadata).
    meta: Optional[Dict[str, SegmentMeta]] = None
    #: Paged groups only: callable(column) -> ColumnSegment via the pool.
    loader: Optional[object] = None

    @property
    def is_paged(self) -> bool:
        """Whether segment data lives behind the buffer pool."""
        return self.loader is not None

    def column_names(self) -> List[str]:
        """Sorted names of the group's columns, resident or not."""
        if self.segments:
            return sorted(self.segments)
        if self.meta is not None:
            return sorted(self.meta)
        return []

    def column_meta(self, name: str) -> Optional[SegmentMeta]:
        """Resident metadata for one column (for elimination/sizing);
        derived from the segment itself when it is in memory."""
        segment = self.segments.get(name)
        if segment is not None:
            return SegmentMeta.of(segment)
        if self.meta is not None:
            return self.meta.get(name)
        return None

    def size_bytes(self) -> int:
        """Approximate on-disk size in bytes."""
        if self.segments:
            return sum(seg.size_bytes for seg in self.segments.values())
        if self.meta is not None:
            return sum(m.size_bytes for m in self.meta.values())
        return 0

    def column(self, name: str) -> ColumnSegment:
        """Values of one result/batch/stats column by name. For paged
        groups this faults the segment's page through the buffer pool."""
        try:
            return self.segments[name]
        except KeyError:
            pass
        if self.loader is not None and (self.meta is None
                                        or name in self.meta):
            return self.loader(name)
        raise StorageError(f"row group has no segment for {name!r}")


def compress_rowgroup(
    schema: TableSchema,
    columns: Dict[str, np.ndarray],
    rids: np.ndarray,
    presorted: bool = False,
) -> CompressedRowGroup:
    """Compress one row group.

    ``columns`` maps column name to a value array (all the same length).
    Unless ``presorted``, rows are reordered by the greedy sort order to
    maximise run lengths, and ``rids`` is permuted alongside, so stored
    position is decoupled from arrival order — exactly why primary
    columnstores need a scan to locate a row (Section 2).
    """
    names = list(columns)
    if not names:
        raise StorageError("row group must have at least one column")
    n = len(rids)
    for name in names:
        if len(columns[name]) != n:
            raise StorageError(f"column {name!r} length mismatch")

    sort_order: List[str] = []
    if not presorted and n > 1:
        sort_order = choose_sort_order(columns)
        # np.lexsort sorts by the *last* key first: reverse so the first
        # chosen column is the major sort column.
        sort_keys = [_sortable(columns[name]) for name in reversed(sort_order)]
        order = np.lexsort(sort_keys)
        columns = {name: values[order] for name, values in columns.items()}
        rids = rids[order]

    segments: Dict[str, ColumnSegment] = {}
    for name in names:
        values = columns[name]
        col_type = schema.column(name).col_type
        dictionary = None
        if values.dtype == object or col_type.kind is TypeKind.VARCHAR:
            dictionary = Dictionary.build(values)
        segments[name] = encode_segment(
            name, values, col_type.byte_width, dictionary)
    return CompressedRowGroup(
        segments=segments, rids=np.asarray(rids), n_rows=n, sort_order=sort_order
    )


def _sortable(values: np.ndarray) -> np.ndarray:
    """np.lexsort cannot sort object arrays of strings directly on some
    dtypes; map them through their sorted-unique codes (NULLs first, the
    same order :meth:`Dictionary.build` assigns)."""
    if values.dtype != object:
        return values
    return Dictionary.build(values).encode(values)

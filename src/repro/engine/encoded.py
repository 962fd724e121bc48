"""Dictionary-coded (late-materialization) column representation.

The columnstore already stores string columns as integer codes into a
sorted per-segment dictionary, but the scan boundary used to throw that
away: every segment was decoded into a numpy *object* array, so filters,
group-bys and joins over strings degraded to per-element Python loops.
:class:`EncodedColumn` keeps the codes: an ``int32`` code array plus a
reference to the shared :class:`~repro.storage.compression.Dictionary`.

Batch-mode consumers operate directly on the codes:

* comparisons / BETWEEN / IN translate their literals to code space once
  per segment dictionary (the dictionary is sorted, so value order and
  code order coincide) and evaluate vectorized on ``int32``;
* hash aggregation groups on codes and materializes the group-key
  strings only for the emitted groups;
* hash joins translate the probe-side dictionary to build-side matches
  once per segment, probing by code instead of hashing strings per row.

Strings materialize lazily — :meth:`EncodedColumn.materialize` — only
for rows that survive filtering, at mode boundaries (``batch_to_rows``)
or in operators without a code path. An ``EncodedColumn`` reports
``dtype == object`` and supports iteration/indexing over the decoded
values, so any consumer without a specialized code path transparently
falls back to decoded semantics (and the fallback is counted in
``QueryMetrics.code_path_fallbacks``).

The encoded path changes *real* wall-clock execution speed only; every
modeled cost charge (the paper's figure metrics) is identical to a
decoded scan's, which the differential suites assert against the
decoded reference in ``tests/reference_scan.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.compression import Dictionary, sorted_distinct

#: Dtype used for code arrays carried in batches.
CODE_DTYPE = np.int32


class EncodedColumn:
    """A dictionary-coded column: ``int32`` codes + a shared dictionary.

    The dictionary's values are sorted (NULL first when present), so the
    code order equals the value order — the property every code-space
    predicate translation relies on. Instances are immutable by
    convention (like batch arrays): filtering produces a new
    ``EncodedColumn`` sharing the same dictionary.
    """

    __slots__ = ("codes", "dictionary", "_materialized")

    #: Encoded columns advertise object dtype: consumers that branch on
    #: ``arr.dtype == object`` treat them exactly like decoded string
    #: arrays, which is what makes the decoded fallback transparent.
    dtype = np.dtype(object)

    def __init__(self, codes: np.ndarray, dictionary: Dictionary):
        if codes.dtype != CODE_DTYPE:
            codes = codes.astype(CODE_DTYPE)
        self.codes = codes
        self.dictionary = dictionary
        self._materialized: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, item):
        """Int index -> decoded value; mask/indices/slice -> a new
        ``EncodedColumn`` over the selected codes (laziness survives
        filtering, which is the point of late materialization)."""
        if isinstance(item, (int, np.integer)):
            value = self.dictionary.values[self.codes[item]]
            # Numeric dictionaries hold numpy scalars; hand out Python
            # scalars so row-mode consumers see the decoded path's types.
            if isinstance(value, np.generic):
                return value.item()
            return value
        return EncodedColumn(self.codes[item], self.dictionary)

    def __iter__(self):
        return iter(self.materialize())

    @property
    def nbytes(self) -> int:
        """Physical in-memory size of the code array."""
        return int(self.codes.nbytes)

    @property
    def decoded_dtype(self) -> np.dtype:
        """Dtype :meth:`materialize` would produce (the dictionary's
        value dtype) — ``object`` for string/nullable dictionaries,
        a numeric dtype for derived numeric code spaces."""
        return self.dictionary.values.dtype

    @property
    def is_numeric(self) -> bool:
        """True when the dictionary holds numeric (non-object) values."""
        return self.dictionary.values.dtype != np.dtype(object)

    def materialize(self) -> np.ndarray:
        """Decode into a numpy object array (cached on this instance)."""
        if self._materialized is None:
            self._materialized = self.dictionary.decode(self.codes)
        return self._materialized

    # numpy-compatibility shims used by generic batch plumbing ----------
    def astype(self, dtype) -> np.ndarray:
        """Materialize and cast — used by concat fallbacks."""
        return self.materialize().astype(dtype)

    def tolist(self):
        """Decoded values as a Python list (Python scalars, matching
        what ``batch_to_rows`` yields for the decoded twin column)."""
        materialized = self.materialize()
        if materialized.dtype == object:
            return list(materialized)
        return materialized.tolist()

    def __repr__(self) -> str:
        return (f"EncodedColumn(n={len(self.codes)}, "
                f"dict={len(self.dictionary)})")


def maybe_materialize(values):
    """Return a plain array for ``values``, decoding if encoded."""
    if isinstance(values, EncodedColumn):
        return values.materialize()
    return values


# --------------------------------------------------------- metric helpers
def note_code_hit(ctx, n: int = 1) -> None:
    """Count ``n`` operations that ran on codes without materializing."""
    if ctx is not None:
        ctx.metrics.code_path_hits += n


def note_code_fallback(ctx, n: int = 1, reason: Optional[str] = None) -> None:
    """Count ``n`` operations that had to materialize an encoded column.

    ``reason`` names the operator/predicate that forced materialization
    (e.g. ``"comparison city = region"``). Reasons are tallied on the
    *active operator span* so EXPLAIN ANALYZE can show exactly which
    node and expression fell off the code path — coverage regressions
    become visible in plan output instead of a bare counter bump.
    """
    if ctx is None:
        return
    ctx.metrics.code_path_fallbacks += n
    if reason:
        span = ctx.active_span
        span.fallback_reasons[reason] = span.fallback_reasons.get(reason, 0) + n


# --------------------------------------------- literal -> code translation
def compare_codes(op: str, column: EncodedColumn, literal: object) -> np.ndarray:
    """Vectorized ``column <op> literal`` evaluated purely on codes.

    Matches the decoded path's SQL semantics exactly: any comparison
    involving NULL (a NULL literal, or a NULL value in the column) is
    not-true. The dictionary is sorted with NULL first, so non-null
    codes form a contiguous, value-ordered range starting at
    ``null_offset``; range predicates become code-range tests computed
    with one ``searchsorted`` over the non-null dictionary slice.
    """
    codes = column.codes
    dictionary = column.dictionary
    null_offset = dictionary.null_offset
    if literal is None:
        return np.zeros(len(codes), dtype=bool)
    if op == "=":
        code = dictionary.code_of(literal)
        if code is None or code < null_offset:
            return np.zeros(len(codes), dtype=bool)
        return codes == code
    if op == "!=":
        not_null = codes >= null_offset
        code = dictionary.code_of(literal)
        if code is None or code < null_offset:
            return not_null
        return not_null & (codes != code)
    non_null_values = dictionary.values[null_offset:]
    if op == "<":
        boundary = null_offset + int(
            np.searchsorted(non_null_values, literal, side="left"))
        return (codes >= null_offset) & (codes < boundary)
    if op == "<=":
        boundary = null_offset + int(
            np.searchsorted(non_null_values, literal, side="right"))
        return (codes >= null_offset) & (codes < boundary)
    if op == ">":
        boundary = null_offset + int(
            np.searchsorted(non_null_values, literal, side="right"))
        return codes >= boundary
    if op == ">=":
        boundary = null_offset + int(
            np.searchsorted(non_null_values, literal, side="left"))
        return codes >= boundary
    raise ValueError(f"unknown comparison operator {op!r}")


def between_codes(column: EncodedColumn, low: object, high: object) -> np.ndarray:
    """``low <= column <= high`` on codes (NULL bound -> empty mask)."""
    if low is None or high is None:
        return np.zeros(len(column.codes), dtype=bool)
    return compare_codes(">=", column, low) & compare_codes("<=", column, high)


def isin_codes(column: EncodedColumn, values: Sequence[object]) -> np.ndarray:
    """``column IN values`` on codes. A NULL in the value list matches
    nothing (``NULL IN (NULL)`` is not-true), as on decoded values."""
    codes = (column.dictionary.code_of(v) for v in values if v is not None)
    allowed = [code for code in codes if code is not None]
    if not allowed:
        return np.zeros(len(column.codes), dtype=bool)
    return np.isin(column.codes, np.array(allowed, dtype=CODE_DTYPE))


def merge_dictionaries(
    dictionaries: Sequence[Dictionary],
) -> Tuple[Dictionary, List[np.ndarray]]:
    """Merge per-segment dictionaries into one sorted dictionary.

    Returns the merged dictionary and, for each input, an ``int32``
    remap array such that ``remap[old_code] == new_code``. The merged
    value array is sorted ascending with NULL first (when any input has
    one), so the merged code order still equals value order — the
    legality condition for code-space sorting survives concatenation
    across rowgroup boundaries.
    """
    has_null = any(d.null_offset > 0 for d in dictionaries)
    non_null_parts = [d.values[d.null_offset:] for d in dictionaries]
    all_numeric = all(part.dtype != object for part in non_null_parts)
    if all_numeric:
        merged_non_null = sorted_distinct(np.concatenate(non_null_parts))
    else:
        distinct = set()
        for part in non_null_parts:
            distinct.update(part.tolist())
        merged_non_null = np.array(sorted(distinct), dtype=object)
    null_offset = 1 if has_null else 0
    if has_null:
        values = np.empty(len(merged_non_null) + 1, dtype=object)
        values[0] = None
        values[1:] = merged_non_null
    else:
        values = merged_non_null
    merged = Dictionary(values=values)
    remaps: List[np.ndarray] = []
    for d, part in zip(dictionaries, non_null_parts):
        remap = np.empty(len(d.values), dtype=CODE_DTYPE)
        if d.null_offset:
            remap[0] = 0
        if len(part):
            positions = np.searchsorted(merged_non_null, part)
            remap[d.null_offset:] = (
                positions.astype(CODE_DTYPE) + CODE_DTYPE(null_offset))
        remaps.append(remap)
    return merged, remaps


def concat_encoded(columns: Sequence[EncodedColumn]) -> Optional[EncodedColumn]:
    """Concatenate encoded columns without materializing.

    When every column shares one dictionary *instance* (slices of one
    segment) the codes concatenate directly. Otherwise — the common case
    when a blocking operator concatenates batches from different
    rowgroups, each with its own per-segment dictionary — the
    dictionaries are merged (sorted union, NULL first) and each code
    array is remapped through a per-source translation table. Either
    way the result stays in code space; None is returned only when the
    inputs are too heterogeneous to merge (mixed incomparable value
    types), in which case the caller materializes.
    """
    first = columns[0].dictionary
    if all(col.dictionary is first for col in columns[1:]):
        return EncodedColumn(
            np.concatenate([col.codes for col in columns]), first)
    try:
        merged, remaps = merge_dictionaries(
            [col.dictionary for col in columns])
    except (TypeError, ValueError):
        return None
    new_codes = np.concatenate(
        [remap[col.codes] for col, remap in zip(columns, remaps)])
    return EncodedColumn(new_codes, merged)

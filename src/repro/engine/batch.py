"""Columnar batch container exchanged by batch-mode operators.

A :class:`Batch` is a set of equal-length column arrays. Columnstore scans
produce batches directly from decoded segments; batch-mode operators
(vectorized filter, hash aggregate, ...) transform them with numpy
primitives, which is what makes batch mode an order of magnitude cheaper
per row than row-at-a-time processing in this engine — mirroring SQL
Server's batch vs row mode distinction.

Every operator exchanges batches — row mode and batch mode differ in
the modeled CPU charged per row, not in what flows between operators
(rowstore scans pivot whole leaf chunks, see
:mod:`repro.engine.operators.scans`). :func:`batch_to_rows` and
:func:`rows_to_batch` adapt to row tuples where an operator works a row
at a time (sorts, RID lookups, the final result).

A batch column is either a plain numpy array or an
:class:`~repro.engine.encoded.EncodedColumn` (dictionary codes + shared
dictionary, produced by columnstore scans over dict/RLE string
segments). Encoded columns survive filtering/projection untouched and
materialize lazily at :func:`batch_to_rows` — the late-materialization
boundary.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.encoded import EncodedColumn, concat_encoded
from repro.storage.records import lossless_array

Row = Tuple[object, ...]

#: Rows sampled per object column when estimating payload size.
_PAYLOAD_SAMPLE_ROWS = 16


def _python_value_bytes(value: object) -> int:
    """Rough in-memory footprint of one Python value in an object column."""
    if value is None:
        return 16
    if isinstance(value, str):
        return 49 + len(value)  # CPython compact-str header + payload
    if isinstance(value, bytes):
        return 33 + len(value)
    return 28  # boxed int/float/bool


def _object_column_bytes(column, length: int) -> int:
    """Estimate an object column's payload from a sample of actual value
    sizes (a flat per-value constant badly underestimates wide strings,
    starving memory-grant accounting). Sampling is deterministic (evenly
    spaced rows) so the estimate is identical for an encoded column and
    its decoded twin."""
    if length == 0:
        return 0
    n_samples = min(length, _PAYLOAD_SAMPLE_ROWS)
    step = max(1, length // n_samples)
    positions = range(0, length, step)
    sampled = [_python_value_bytes(column[i]) for i in positions]
    return int(length * (sum(sampled) / len(sampled)))


class Batch:
    """A fixed set of named, equal-length column arrays."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: Dict[str, np.ndarray]):
        if not columns:
            raise ExecutionError("batch must have at least one column")
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) != 1:
            raise ExecutionError(f"ragged batch: column lengths {lengths}")
        self.columns = columns
        self.length = lengths.pop()

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> np.ndarray:
        """Values of one result/batch/stats column by name."""
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"batch has no column {name!r}") from None

    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return list(self.columns)

    def filter(self, mask: np.ndarray) -> "Batch":
        """Keep rows where ``mask`` is True."""
        return Batch({name: arr[mask] for name, arr in self.columns.items()})

    def take(self, indices: np.ndarray) -> "Batch":
        """New batch containing the rows at ``indices``, in order."""
        return Batch({name: arr[indices] for name, arr in self.columns.items()})

    def project(self, names: Sequence[str]) -> "Batch":
        """New batch restricted to the named columns."""
        return Batch({name: self.column(name) for name in names})

    def with_column(self, name: str, values: np.ndarray) -> "Batch":
        """New batch with one extra column appended."""
        if len(values) != self.length:
            raise ExecutionError("new column length mismatch")
        columns = dict(self.columns)
        columns[name] = values
        return Batch(columns)

    def head(self, n: int) -> "Batch":
        """New batch with the first ``n`` rows."""
        return Batch({name: arr[:n] for name, arr in self.columns.items()})

    def payload_bytes(self) -> int:
        """Approximate in-memory size, used for memory-grant accounting.

        Object (string) columns are estimated from a deterministic sample
        of actual value sizes; encoded columns sample through their
        dictionary without materializing, so both representations of the
        same data report the same estimate. Numeric encoded columns are
        charged at their decoded numeric width (``length * itemsize``) —
        exactly what the decoded twin's ``arr.nbytes`` reports — because
        grants and spill decisions must not depend on which execution
        mode produced the batch.
        """
        total = 0
        for arr in self.columns.values():
            if isinstance(arr, EncodedColumn) and arr.is_numeric:
                total += self.length * arr.decoded_dtype.itemsize
            elif arr.dtype == object:
                total += _object_column_bytes(arr, self.length)
            else:
                total += arr.nbytes
        return total


def rows_to_batch(rows: Sequence[Row], names: Sequence[str]) -> Optional[Batch]:
    """Pivot row tuples into a columnar batch; None when ``rows`` is empty.

    A single ``zip(*rows)`` transposes all columns in one C-level pass
    instead of one list comprehension over every row per column.
    """
    if not rows:
        return None
    columns: Dict[str, np.ndarray] = {}
    for name, values in zip(names, zip(*rows)):
        columns[name] = _column_array(values)
    return Batch(columns)


def batch_to_rows(batch: Batch, names: Optional[Sequence[str]] = None) -> List[Row]:
    """Pivot a batch into row tuples, preserving order."""
    names = list(names) if names is not None else batch.column_names()
    arrays = [batch.column(name) for name in names]
    # EncodedColumn.tolist() yields Python scalars for numeric
    # dictionaries (not numpy scalars), matching the decoded twin.
    pythonic = [
        arr.tolist()
        if isinstance(arr, EncodedColumn) or arr.dtype != object
        else list(arr)
        for arr in arrays
    ]
    return list(zip(*pythonic))


_INT_TYPES = frozenset({int})
_NUMBER_TYPES = frozenset({int, float})


def _column_array(values: Sequence[object]) -> np.ndarray:
    """Build a numpy array with a sensible dtype for a value list.

    All-integer lists stay int64; mixed int/float lists promote to
    float64 regardless of which kind appears first, so vectorized batch
    ops keep working; anything else (strings, None) becomes an object
    array so mixed/NULL data round-trips safely.

    Plain Python ints and floats — what rowstore leaves hold — are
    recognised from the set of value types in one C-level pass
    (``np.array``'s own inference would not do: it coerces a stray
    ``bool``); every other mix takes the per-value rule below.
    """
    kinds = set(map(type, values))
    if kinds <= _INT_TYPES:
        return np.array(values, dtype=np.int64)
    if kinds <= _NUMBER_TYPES:
        return np.array(values, dtype=np.float64)
    if type(None) not in kinds:
        first = values[0]
        if isinstance(first, (bool, np.bool_)):
            pass  # fall through to object
        elif isinstance(first, (int, float, np.integer, np.floating)):
            # numpy scalars count as numbers too: rows rebuilt from
            # decoded segments carry np.int64 values, and treating them
            # as objects would silently dictionary-encode a numeric
            # column on REBUILD.
            if all(isinstance(v, (int, np.integer))
                   and not isinstance(v, (bool, np.bool_))
                   for v in values):
                return np.array(values, dtype=np.int64)
            if all(isinstance(v, (int, float, np.integer, np.floating))
                   and not isinstance(v, (bool, np.bool_))
                   for v in values):
                return np.array(values, dtype=np.float64)
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def batch_column(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """A new batch column from lossless pieces (slices of leaf columns,
    pivoted rows; see :func:`~repro.storage.records.lossless_array`):
    exactly what :func:`_column_array` builds from their values. Pieces
    of one typed dtype are concatenated; any other mix is rebuilt from
    the values, which a lossless piece gives back unchanged."""
    dtype = pieces[0].dtype
    if dtype != object and all(piece.dtype == dtype for piece in pieces):
        return pieces[0].copy() if len(pieces) == 1 else np.concatenate(pieces)
    return _column_array([value for piece in pieces
                          for value in piece.tolist()])


def eval_column(piece: np.ndarray) -> np.ndarray:
    """One lossless piece as an expression reads it: a typed piece as it
    is (a view the evaluator only reads), an object one as
    :func:`batch_column` builds it."""
    return piece if piece.dtype != object else batch_column([piece])


class RowColumns:
    """Row tuples read by column: the pivot for entries that are rows
    (a secondary index's key tuples, rows and columns looked up by rid).
    It reads like :class:`~repro.storage.records.Records`
    (``len``, :meth:`column`, :meth:`view`, :meth:`take`,
    :meth:`concat`), pivoting a
    field each time one is asked for."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Row]):
        self.rows = rows

    @classmethod
    def concat(cls, parts: Sequence["RowColumns"]) -> "RowColumns":
        """The rows of ``parts`` in order, as one sequence."""
        return cls([row for part in parts for row in part.rows])

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, ordinal: int) -> np.ndarray:
        return lossless_array(list(map(itemgetter(ordinal), self.rows)))

    def view(self, start: int, stop: int) -> "RowColumns":
        return RowColumns(self.rows[start:stop])

    def take(self, mask: np.ndarray) -> "RowColumns":
        return RowColumns(list(compress(self.rows, mask.tolist())))


class PendingColumns:
    """Output columns gathered piece by piece until they fill a batch."""

    __slots__ = ("pieces", "count")

    def __init__(self, width: int):
        self.pieces: List[List[np.ndarray]] = [[] for _ in range(width)]
        #: Rows gathered so far.
        self.count = 0

    def add(self, columns: Sequence[np.ndarray]) -> None:
        """Append one lossless piece per column, all of one length."""
        if len(columns[0]):
            for pieces, column in zip(self.pieces, columns):
                pieces.append(column)
            self.count += len(columns[0])

    def batch(self, names: Sequence[str]) -> Batch:
        """The gathered rows as a batch with columns ``names``."""
        return Batch(dict(zip(names, map(batch_column, self.pieces))))


def concat_batches(batches: Iterable[Batch]) -> Optional[Batch]:
    """Concatenate same-schema batches; None when the input is empty."""
    materialized = [b for b in batches if len(b) > 0]
    if not materialized:
        return None
    names = materialized[0].column_names()
    columns: Dict[str, np.ndarray] = {}
    for name in names:
        arrays = [b.column(name) for b in materialized]
        if all(isinstance(a, EncodedColumn) for a in arrays):
            # Encoded runs stay encoded: same-dictionary runs concatenate
            # on codes directly, differing per-segment dictionaries are
            # merged and the codes remapped (see ``concat_encoded``);
            # only unmergeable inputs materialize below.
            encoded = concat_encoded(arrays)
            if encoded is not None:
                columns[name] = encoded
                continue
        # Materialize stragglers first: a numeric encoded column decodes
        # to its numeric dtype, so a mixed encoded/plain numeric column
        # concatenates numerically exactly like the decoded twin.
        arrays = [a.materialize() if isinstance(a, EncodedColumn) else a
                  for a in arrays]
        if any(a.dtype == object for a in arrays):
            # Cast only the arrays that are not already object dtype.
            arrays = [a if a.dtype == object else a.astype(object)
                      for a in arrays]
        columns[name] = np.concatenate(arrays)
    return Batch(columns)

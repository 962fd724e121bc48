"""Columnar row sequences: the values of every B+ tree leaf.

A :class:`Records` holds ``count`` row tuples of one width as one numpy
array per field. A resident leaf and a leaf faulted in from a snapshot
page hold their values as the same class, so a range scan reads column
slices whichever it is (and the snapshot writer writes the columns),
and a per-entry reader (a point lookup, the checker) gets row tuples of
Python scalars built on demand.

Every column is *lossless*: it gives back exactly the values stored in
it. A column is int64 only while every value is a Python ``int`` that
fits, float64 only while every value is a Python ``float``; anything
else (a NULL, a str, a bool, a numpy scalar, a mix) lives in an object
array of the values themselves. A write the column cannot hold turns
that column of that one sequence into an object array.

The tree edits a leaf in place (insert, pop, set, split, borrow and
merge), so each column keeps spare capacity: an insert shifts the tail
within the array instead of reallocating it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from typing import Iterable, List

import numpy as np

from repro.core.errors import StorageError

_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)
_OBJECT = np.dtype(object)


def lossless_array(values: list) -> np.ndarray:
    """``values`` as the array that gives them back unchanged: int64 when
    every value is a Python int within int64, float64 when every value
    is a Python float, else an object array of the values themselves."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return np.array(values, _INT64)
        except OverflowError:
            pass
    elif kinds == {float}:
        return np.array(values, _FLOAT64)
    return np.fromiter(values, _OBJECT, len(values))


def _dtype_for(value: object) -> np.dtype:
    kind = type(value)
    return _INT64 if kind is int else _FLOAT64 if kind is float else _OBJECT


def _room(size: int) -> int:
    """Capacity to allocate for ``size`` rows: half again, so a leaf
    between bulk-load fill and its split point reallocates once."""
    return size + max(4, size >> 1)


def _with_room(column: np.ndarray, count: int, capacity: int) -> np.ndarray:
    out = np.empty(capacity, column.dtype)
    out[:count] = column[:count]
    return out


class Records(Sequence):
    """A mutable sequence of ``count`` row tuples of one width, held as
    one lossless numpy array per field (see the module docstring).

    Indexing builds one row tuple, slicing and iterating build the rows
    they return; :meth:`column`, :meth:`view` and :meth:`take` read
    without building rows. Rows must be tuples: an empty sequence takes
    the width of the first row stored in it.
    """

    __slots__ = ("columns", "count")

    def __init__(self, columns: Iterable[np.ndarray] = (), count: int = 0):
        #: One array per field; each may be longer than ``count``.
        self.columns: List[np.ndarray] = list(columns)
        self.count = count

    @classmethod
    def from_rows(cls, rows: Sequence) -> "Records":
        """Pivot row tuples of one width into columns, once per field."""
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return cls()
        if set(map(type, rows)) != {tuple} or len(set(map(len, rows))) != 1:
            raise StorageError("leaf values are not tuples of one width")
        return cls([lossless_array(list(column)) for column in zip(*rows)],
                   len(rows))

    @classmethod
    def concat(cls, parts: Sequence["Records"]) -> "Records":
        """The rows of ``parts`` in order, as one sequence (copied)."""
        parts = [part for part in parts if part.count]
        if not parts:
            return cls()
        if len({len(part.columns) for part in parts}) != 1:
            raise StorageError("leaf values are not tuples of one width")
        columns = []
        for pieces in zip(*(part.live_columns() for part in parts)):
            if len({piece.dtype for piece in pieces}) > 1:
                pieces = [piece.astype(object) for piece in pieces]
            columns.append(np.concatenate(pieces))
        return cls(columns, sum(part.count for part in parts))

    # ------------------------------------------------------------ reading
    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.count)
            if step == 1:
                return list(self.view(start, max(start, stop)))
            return [self[i] for i in range(start, stop, step)]
        index = self._position(index)
        return tuple([column.item(index) for column in self.columns])

    def __iter__(self):
        if not self.columns:
            return repeat((), self.count)
        return zip(*[column.tolist() for column in self.live_columns()])

    @property
    def width(self) -> int:
        return len(self.columns)

    def column(self, ordinal: int) -> np.ndarray:
        """Field ``ordinal`` of every row: a view of the stored array."""
        return self.columns[ordinal][:self.count]

    def live_columns(self) -> List[np.ndarray]:
        """Every field as :meth:`column` gives it."""
        count = self.count
        return [column[:count] for column in self.columns]

    def view(self, start: int, stop: int) -> "Records":
        """Rows ``start:stop`` (``0 <= start <= stop <= len``) as a
        sequence sharing this one's arrays: read it, never edit it."""
        return Records([column[start:stop] for column in self.columns],
                       stop - start)

    def take(self, index: np.ndarray) -> "Records":
        """The rows a boolean mask or an array of positions picks, in
        its order, copied."""
        count = (int(np.count_nonzero(index)) if index.dtype == bool
                 else len(index))
        return Records([column[index] for column in self.live_columns()],
                       count)

    def _position(self, index: int) -> int:
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError("records index out of range")
        return index

    # ------------------------------------------------------------ editing
    def __setitem__(self, index: int, row: tuple) -> None:
        index = self._position(index)
        self._check_width(row)
        self._store(index, row)

    def insert(self, index: int, row: tuple) -> None:
        """Insert ``row`` before position ``index`` (``0 <= index <= len``)."""
        count = self.count
        if not 0 <= index <= count:
            raise IndexError("records index out of range")
        if count == 0 and type(row) is tuple and len(row) != self.width:
            self.columns = [np.empty(_room(1), _dtype_for(value))
                            for value in row]
        self._check_width(row)
        self._reserve(count + 1)
        for column in self.columns:
            column[index + 1:count + 1] = column[index:count]
        self.count = count + 1
        self._store(index, row)

    def append(self, row: tuple) -> None:
        self.insert(self.count, row)

    def pop(self, index: int = -1) -> tuple:
        """Remove and return the row at ``index``."""
        row = self[index]
        index = self._position(index)
        last = self.count - 1
        for column in self.columns:
            column[index:last] = column[index + 1:last + 1]
        self._release(last, last + 1)
        self.count = last
        return row

    def split(self, mid: int) -> "Records":
        """Move rows ``mid:`` into a new sequence and return it."""
        count = self.count
        moved = count - mid
        right = Records([_with_room(column[mid:count], moved, _room(moved))
                         for column in self.columns], moved)
        self._release(mid, count)
        self.count = mid
        return right

    def extend(self, other: "Records") -> None:
        """Append the rows of ``other``, which keeps its own."""
        added = other.count
        if not added:
            return
        count = self.count
        if count == 0:
            self.columns = [_with_room(column, added, _room(added))
                            for column in other.columns]
            self.count = added
            return
        if other.width != self.width:
            raise StorageError("leaf values are not tuples of one width")
        self._reserve(count + added)
        for j, theirs in enumerate(other.live_columns()):
            mine = self.columns[j]
            if mine.dtype != theirs.dtype:
                mine = self._to_object(j)
                theirs = theirs.astype(object)
            mine[count:count + added] = theirs
        self.count = count + added

    def _check_width(self, row: tuple) -> None:
        if type(row) is not tuple or len(row) != self.width:
            raise StorageError(
                f"leaf row {row!r} is not a tuple of width {self.width}")

    def _reserve(self, size: int) -> None:
        columns = self.columns
        if columns and size > len(columns[0]):
            capacity = _room(size)
            self.columns = [_with_room(column, self.count, capacity)
                            for column in columns]

    def _store(self, index: int, row: tuple) -> None:
        columns = self.columns
        for j, value in enumerate(row):
            column = columns[j]
            kind = column.dtype.kind
            if kind != "O" and type(value) is not (int if kind == "i"
                                                   else float):
                column = self._to_object(j)
            try:
                column[index] = value
            except OverflowError:       # an int beyond int64
                self._to_object(j)[index] = value

    def _to_object(self, j: int) -> np.ndarray:
        column = self.columns[j]
        if column.dtype != _OBJECT:
            column = self.columns[j] = column.astype(object)
        return column

    def _release(self, start: int, stop: int) -> None:
        """Drop the references a vacated slot of an object column holds."""
        for column in self.columns:
            if column.dtype == _OBJECT:
                column[start:stop] = None

"""Column type system for the repro engine.

The engine supports a deliberately small set of SQL types — the ones needed
by the TPC-H / TPC-DS / TPC-C schemas and the paper's micro-benchmarks:

* ``INT`` / ``BIGINT`` — 32/64-bit integers,
* ``DECIMAL`` — fixed-point numerics stored as scaled integers,
* ``VARCHAR`` — bounded strings,
* ``DATE`` — days since 1970-01-01, stored as an integer,
* ``XML`` — an intentionally *columnstore-incompatible* type used to
  exercise the advisor's handling of tables where a primary columnstore
  index cannot be built (Section 4.3 of the paper).

Each type knows its on-disk width (used by the storage simulator for page
and segment size accounting) and whether SQL Server-style columnstore
indexes support it.
"""

from __future__ import annotations

import datetime as _dt
import enum
import math
from dataclasses import dataclass

from repro.core.errors import SchemaError

_EPOCH = _dt.date(1970, 1, 1)
#: The range INT, BIGINT and DATE values must fit, and integer
#: arithmetic must stay in: int64, like the columns that hold them.
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class TypeKind(enum.Enum):
    """Enumeration of supported column type families."""

    INT = "int"
    BIGINT = "bigint"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    DATE = "date"
    XML = "xml"


#: The kinds whose values are integers (a DATE is a day number).
_INTEGER_KINDS = (TypeKind.INT, TypeKind.BIGINT, TypeKind.DATE)


@dataclass(frozen=True)
class ColumnType:
    """A concrete column type: a :class:`TypeKind` plus type parameters.

    ``length`` applies to VARCHAR (maximum characters); ``scale`` applies to
    DECIMAL (digits after the point). Instances are immutable and hashable
    so they can be used as dictionary keys in the catalog.
    """

    kind: TypeKind
    length: int = 0
    scale: int = 0

    @property
    def byte_width(self) -> int:
        """Uncompressed row-store width in bytes, used for size accounting."""
        if self.kind is TypeKind.INT:
            return 4
        if self.kind is TypeKind.BIGINT:
            return 8
        if self.kind is TypeKind.DECIMAL:
            return 8
        if self.kind is TypeKind.DATE:
            return 4
        if self.kind is TypeKind.VARCHAR:
            # Average-case assumption: half the declared length plus a
            # 2-byte length prefix, matching variable-length row formats.
            return max(2, self.length // 2 + 2)
        if self.kind is TypeKind.XML:
            return 256
        raise SchemaError(f"unknown type kind: {self.kind!r}")

    @property
    def columnstore_supported(self) -> bool:
        """Whether this type can participate in a columnstore index."""
        return self.kind is not TypeKind.XML

    @property
    def is_numeric(self) -> bool:
        """Whether the type is INT/BIGINT/DECIMAL."""
        return self.kind in (TypeKind.INT, TypeKind.BIGINT, TypeKind.DECIMAL)

    def validate(self, value: object) -> object:
        """Check ``value`` against this type and normalise it.

        Returns the normalised value (e.g. a ``datetime.date`` becomes an
        int day number). Raises :class:`SchemaError` on mismatch. ``None``
        is allowed for every type (NULL).
        """
        if type(value) is int and self.kind in _INTEGER_KINDS:
            return _in_int64(value)
        if value is None:
            return None
        if self.kind in (TypeKind.INT, TypeKind.BIGINT):
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r}")
            return _in_int64(value)
        if self.kind is TypeKind.DECIMAL:
            if isinstance(value, bool):
                raise SchemaError(f"expected numeric, got {value!r}")
            if isinstance(value, (int, float)):
                return _finite(value)
            raise SchemaError(f"expected numeric, got {value!r}")
        if self.kind is TypeKind.VARCHAR:
            if not isinstance(value, str):
                raise SchemaError(f"expected str, got {value!r}")
            if self.length and len(value) > self.length:
                raise SchemaError(
                    f"string of length {len(value)} exceeds VARCHAR({self.length})"
                )
            return value
        if self.kind is TypeKind.DATE:
            if isinstance(value, _dt.date):
                return (value - _EPOCH).days
            if isinstance(value, int):
                return _in_int64(value)
            raise SchemaError(f"expected date, got {value!r}")
        if self.kind is TypeKind.XML:
            if not isinstance(value, str):
                raise SchemaError(f"expected XML string, got {value!r}")
            return value
        raise SchemaError(f"unknown type kind: {self.kind!r}")

    def __str__(self) -> str:
        if self.kind is TypeKind.VARCHAR and self.length:
            return f"varchar({self.length})"
        if self.kind is TypeKind.DECIMAL and self.scale:
            return f"decimal(18,{self.scale})"
        return self.kind.value


# Convenience constructors, mirroring common DDL spellings.
INT = ColumnType(TypeKind.INT)
BIGINT = ColumnType(TypeKind.BIGINT)
DATE = ColumnType(TypeKind.DATE)
XML = ColumnType(TypeKind.XML)


def decimal(scale: int = 2) -> ColumnType:
    """DECIMAL with the given scale (digits after the decimal point)."""
    return ColumnType(TypeKind.DECIMAL, scale=scale)


def varchar(length: int) -> ColumnType:
    """VARCHAR with the given maximum length."""
    if length <= 0:
        raise SchemaError("varchar length must be positive")
    return ColumnType(TypeKind.VARCHAR, length=length)


def date_to_int(value: _dt.date) -> int:
    """Convert a ``datetime.date`` to the engine's internal day number."""
    return (value - _EPOCH).days


def int_to_date(days: int) -> _dt.date:
    """Convert an internal day number back to a ``datetime.date``."""
    return _EPOCH + _dt.timedelta(days=days)


def _finite(value) -> float:
    """``value`` as a float if it is finite; else the arithmetic overflow
    error: a DECIMAL column holds no NaN and no infinity (a columnstore
    could not scale one to its stored integer)."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if math.isfinite(number):
        return number
    raise SchemaError(
        f"arithmetic overflow: {value!r} is not a finite DECIMAL value")


def _in_int64(value: int) -> int:
    """``value`` if it fits int64; else the arithmetic overflow error SQL
    Server raises for a value its integer column cannot hold."""
    if INT64_MIN <= value <= INT64_MAX:
        return value
    raise SchemaError(
        f"arithmetic overflow: {value} does not fit a 64-bit integer")

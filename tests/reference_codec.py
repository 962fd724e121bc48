"""The page codec's reference: the format, written down once more.

``reference_pack`` and ``reference_unpack`` are an independent copy of
``pack_value`` and ``unpack_value`` of ``repro.storage.pages``: one
recursive Python call per value. They define the format:
``tests/test_codec_identity.py`` requires the engine's encoder to write
exactly their bytes and its decoder to return exactly their values,
types and float bits, so a change to the engine's codec cannot move the
bytes of a snapshot or a log unnoticed.
"""

import struct
from typing import Tuple

import numpy as np

from repro.core.errors import StorageError
from repro.storage.pages import (
    _T_BIGINT,
    _T_BYTES,
    _T_DICT,
    _T_FALSE,
    _T_FLOAT,
    _T_INT,
    _T_LIST,
    _T_NDARRAY,
    _T_NONE,
    _T_OBJARRAY,
    _T_STR,
    _T_TRUE,
    _T_TUPLE,
)

_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def reference_pack(value: object, out: bytearray) -> None:
    """Append the tagged binary encoding of ``value`` to ``out``."""
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, (bool, np.bool_)):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, (int, np.integer)):
        v = int(value)
        if _INT64_MIN <= v <= _INT64_MAX:
            out.append(_T_INT)
            out += _I64.pack(v)
        else:
            raw = str(v).encode("ascii")
            out.append(_T_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
    elif isinstance(value, (float, np.floating)):
        out.append(_T_FLOAT)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, np.ndarray):
        if value.ndim != 1:
            raise StorageError(
                f"only 1-D arrays serialize; got shape {value.shape}")
        if value.dtype == object:
            out.append(_T_OBJARRAY)
            out += _U32.pack(len(value))
            for item in value.tolist():
                reference_pack(item, out)
        else:
            dtype = value.dtype.str.encode("ascii")
            raw = np.ascontiguousarray(value).tobytes()
            out.append(_T_NDARRAY)
            out.append(len(dtype))
            out += dtype
            out += _U32.pack(len(value))
            out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST if isinstance(value, list) else _T_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            reference_pack(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key in sorted(value):
            reference_pack(key, out)
            reference_pack(value[key], out)
    else:
        raise StorageError(
            f"value of type {type(value).__name__} cannot be serialized")


def reference_unpack(buf: bytes, offset: int = 0) -> Tuple[object, int]:
    """Decode one value at ``offset``; returns (value, next offset)."""
    try:
        tag = buf[offset]
    except IndexError:
        raise StorageError("truncated value payload") from None
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_TRUE:
        return True, offset
    try:
        if tag == _T_INT:
            return _I64.unpack_from(buf, offset)[0], offset + 8
        if tag == _T_FLOAT:
            return _F64.unpack_from(buf, offset)[0], offset + 8
        if tag in (_T_BIGINT, _T_STR, _T_BYTES):
            (length,) = _U32.unpack_from(buf, offset)
            offset += 4
            raw = bytes(buf[offset:offset + length])
            if len(raw) != length:
                raise StorageError("truncated value payload")
            offset += length
            if tag == _T_BIGINT:
                return int(raw.decode("ascii")), offset
            if tag == _T_STR:
                return raw.decode("utf-8"), offset
            return raw, offset
        if tag in (_T_LIST, _T_TUPLE):
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = reference_unpack(buf, offset)
                items.append(item)
            return (items if tag == _T_LIST else tuple(items)), offset
        if tag == _T_DICT:
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = reference_unpack(buf, offset)
                val, offset = reference_unpack(buf, offset)
                result[key] = val
            return result, offset
        if tag == _T_NDARRAY:
            dtype_len = buf[offset]
            offset += 1
            dtype = np.dtype(buf[offset:offset + dtype_len].decode("ascii"))
            offset += dtype_len
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            nbytes = count * dtype.itemsize
            raw = bytes(buf[offset:offset + nbytes])
            if len(raw) != nbytes:
                raise StorageError("truncated value payload")
            offset += nbytes
            return np.frombuffer(raw, dtype=dtype).copy(), offset
        if tag == _T_OBJARRAY:
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = reference_unpack(buf, offset)
                items.append(item)
            arr = np.empty(count, dtype=object)
            arr[:] = items
            return arr, offset
    except struct.error:
        raise StorageError("truncated value payload") from None
    raise StorageError(f"unknown value tag {tag}")

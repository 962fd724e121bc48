"""Struct-packed on-disk page format and database snapshots.

This is the durable half of the storage engine: every in-memory
structure — heap rows, B+ tree leaf entries, compressed columnstore
segments and dictionaries — serializes into fixed-header *pages*, and a
full database snapshot is just a stream of pages written atomically
(temp file + fsync + rename). The page shape follows the classic
slotted-page layout the paper's engine assumes (see *Indexes in
Microsoft SQL Server* in PAPERS.md): a fixed binary header carrying
page id, page type, LSN, and a CRC32 checksum, followed by a
self-describing binary payload.

Page header (32 bytes, little-endian)::

    magic      4s   b"RPPG"
    version    B    format version (currently 1)
    page_type  B    PT_* constant
    reserved   H    zero
    page_id    Q    sequential within the snapshot stream
    lsn        Q    checkpoint LSN the snapshot captures
    payload_len I   bytes of payload following the header
    crc32      I    CRC over (version..payload_len) + payload

The payload is encoded with a small tagged value codec
(:func:`pack_value` / :func:`unpack_value`) covering exactly the value
universe the engine stores after validation — ``None``/bool/int/float/
str/bytes, containers, and 1-D numpy arrays (object arrays element-wise)
— so numpy segment payloads round-trip bit-exactly. A long sequence
whose items share one fixed layout (a B+ leaf's entries, a page of
integer rows) is written and read as one numpy record array, in the same
bytes the per-value encoding gives; a B+ leaf page faulted in by a paged
index keeps its values as that array's columns, in the
:class:`~repro.storage.records.Records` every leaf holds.

Snapshot layout: one :data:`PT_CATALOG` page, then per table a
:data:`PT_TABLE` page, :data:`PT_ROWS` pages chunking the table's rows
in rid order (written from its primary structure), and per index a
:data:`PT_INDEX` descriptor followed by its data pages —
:data:`PT_BTREE_LEAF` pages of (key, value) leaf entries for B+ trees
(restored via ``BPlusTree.from_columns``), and per row group a
:data:`PT_CSI_GROUP` page (rids, delete bitmap, sort order) plus one
:data:`PT_CSI_SEGMENT` page per column segment, closed by a
:data:`PT_CSI_SIDE` page (the delta store's entries in rid order,
restored via ``BPlusTree.from_columns``, and the delete buffer) for
columnstores. Heap files carry no data pages: a heap is rebuilt from
the ``PT_ROWS`` pages. Every open reads and checksums those pages; the
loader keeps of them only what the primary needs — a heap's rows, or a
clustered B+ tree's rid -> key map when its leaves stay paged.

Serialization is deterministic (dicts and sets are emitted in sorted
order), which is what lets recovery prove idempotence by comparing
snapshot digests.
"""

from __future__ import annotations

import io
import os
import struct
import threading
import zlib
from itertools import repeat
from typing import BinaryIO, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.errors import ProcessAbort, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import ColumnType, TypeKind
from repro.storage.btree import (
    BPlusTree,
    PagedLeafSource,
    PagedPrimaryBTreeIndex,
    PagedSecondaryBTreeIndex,
    PrimaryBTreeIndex,
    SecondaryBTreeIndex,
)
from repro.storage.bufferpool import PAGE_BYTES, BufferPool
from repro.storage.columnstore import (
    ColumnstoreIndex,
    ensure_object_ids_above,
)
from repro.storage.compression import (
    ColumnSegment,
    CompressedRowGroup,
    Dictionary,
    SegmentMeta,
)
from repro.storage.faults import FaultInjector, trip
from repro.storage.heap import HeapFile
from repro.storage.records import Records

__all__ = [
    "PAGE_BYTES",
    "load_snapshot",
    "load_snapshot_paged",
    "snapshot_bytes",
    "write_snapshot",
    "SnapshotReader",
]

# ------------------------------------------------------------ page codec

PAGE_MAGIC = b"RPPG"
PAGE_VERSION = 1
PAGE_HEADER = struct.Struct("<4sBBHQQII")

PT_CATALOG = 1
PT_TABLE = 2
PT_ROWS = 3
PT_INDEX = 4
PT_BTREE_LEAF = 5
PT_CSI_GROUP = 6
PT_CSI_SEGMENT = 7
PT_CSI_SIDE = 8

PAGE_TYPE_NAMES = {
    PT_CATALOG: "catalog",
    PT_TABLE: "table",
    PT_ROWS: "rows",
    PT_INDEX: "index",
    PT_BTREE_LEAF: "btree_leaf",
    PT_CSI_GROUP: "csi_group",
    PT_CSI_SEGMENT: "csi_segment",
    PT_CSI_SIDE: "csi_side",
}

#: Rows per PT_ROWS page and leaf entries per PT_BTREE_LEAF page.
ROWS_PER_PAGE = 2048
BTREE_ITEMS_PER_PAGE = 1024

# ----------------------------------------------------------- value codec

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_BIGINT = 4
_T_FLOAT = 5
_T_STR = 6
_T_BYTES = 7
_T_LIST = 8
_T_TUPLE = 9
_T_DICT = 10
_T_NDARRAY = 11
_T_OBJARRAY = 12

_CONSTANTS = {_T_NONE: None, _T_FALSE: False, _T_TRUE: True}

_U8 = struct.Struct("<B")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def pack_value(value: object, out: bytearray) -> None:
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
            _pack_items(value.tolist(), out)
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
        _pack_items(value, out)
    elif isinstance(value, dict):
        # Sorted by key so serialization is order-independent (the
        # digest-based idempotence checks depend on this).
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key in sorted(value):
            pack_value(key, out)
            pack_value(value[key], out)
    else:
        raise StorageError(
            f"value of type {type(value).__name__} cannot be serialized")


def unpack_value(buf, offset: int = 0,
                 lazy: bool = False) -> Tuple[object, int]:
    """Decode one value at ``offset`` of ``buf`` (any bytes-like object);
    returns (value, next offset). Input that is not a whole encoding
    raises :class:`StorageError`, never another exception type, so a
    reader that catches it (the WAL scan, the snapshot loader) sees every
    malformed payload.

    With ``lazy``, a fixed-layout list that is the value or one of its
    dict values (a B+ leaf page's entries) decodes to its
    :class:`_Fixed` columns instead of a list; lists nested deeper
    decode as usual."""
    try:
        return _unpack(buf, offset, lazy)
    except RecursionError:
        raise StorageError("value payload nested too deeply") from None


def _unpack(buf, offset: int, lazy: bool = False) -> Tuple[object, int]:
    try:
        tag = buf[offset]
    except IndexError:
        raise StorageError("truncated value payload") from None
    offset += 1
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], offset
    try:
        if tag == _T_INT:
            return _I64.unpack_from(buf, offset)[0], offset + 8
        if tag == _T_FLOAT:
            return _F64.unpack_from(buf, offset)[0], offset + 8
        if tag in (_T_BIGINT, _T_STR, _T_BYTES):
            (length,) = _U32.unpack_from(buf, offset)
            raw = _take(buf, offset + 4, length)
            offset += 4 + length
            if tag == _T_BYTES:
                return raw, offset
            try:
                if tag == _T_BIGINT:
                    return int(raw.decode("ascii")), offset
                return raw.decode("utf-8"), offset
            except ValueError:  # UnicodeDecodeError is a ValueError
                what = "integer" if tag == _T_BIGINT else "string"
                raise StorageError(
                    f"undecodable {what} payload {raw[:32]!r}") from None
        if tag in (_T_LIST, _T_TUPLE):
            (count,) = _U32.unpack_from(buf, offset)
            items, offset = _unpack_items(buf, offset + 4, count, lazy)
            return (items if tag == _T_LIST else tuple(items)), offset
        if tag == _T_DICT:
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = _unpack(buf, offset)
                val, offset = _unpack(buf, offset, lazy)
                try:
                    result[key] = val
                except TypeError:
                    raise StorageError(
                        f"unhashable dict key of type {type(key).__name__}"
                    ) from None
            return result, offset
        if tag == _T_NDARRAY:
            (dtype_len,) = _U8.unpack_from(buf, offset)
            dtype = _array_dtype(_take(buf, offset + 1, dtype_len))
            offset += 1 + dtype_len
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            end = offset + count * dtype.itemsize
            if end > len(buf):
                raise StorageError("truncated value payload")
            return np.frombuffer(buf, dtype, count, offset).copy(), end
        if tag == _T_OBJARRAY:
            (count,) = _U32.unpack_from(buf, offset)
            items, offset = _unpack_items(buf, offset + 4, count)
            arr = np.empty(count, dtype=object)
            arr[:] = items
            return arr, offset
    except struct.error:
        raise StorageError("truncated value payload") from None
    raise StorageError(f"unknown value tag {tag}")


def _take(buf, offset: int, length: int) -> bytes:
    raw = bytes(buf[offset:offset + length])
    if len(raw) != length:
        raise StorageError("truncated value payload")
    return raw


def _array_dtype(raw: bytes) -> np.dtype:
    try:
        dtype = np.dtype(raw.decode("ascii"))
    # numpy parses a comma-separated dtype with ast: SyntaxError too
    except (TypeError, ValueError, SyntaxError):
        raise StorageError(f"bad array dtype {raw!r}") from None
    if dtype.hasobject or dtype.itemsize == 0:
        # frombuffer cannot build either: objects are coded as
        # _T_OBJARRAY, and no array the engine stores has empty items.
        raise StorageError(f"bad array dtype {raw!r}")
    return dtype


# ------------------------------------------------- fixed-layout sequences
#
# A page is mostly long sequences of one shape: a B+ leaf is 1 024
# ``((k, rid), (k, a, b, c))`` entries, a rows page 2 048 row tuples, a
# WAL delete its list of rids. When every item of a sequence has the same
# *fixed layout* -- built only from int64, float64, None, True and False,
# nested in tuples and lists of constant length -- its encoding is a
# record array: the tag and count bytes repeat in every record and the
# values sit at constant offsets. Such sequences are coded in one numpy
# pass; every other sequence, and every malformed one, goes one value at
# a time. The bytes are the same either way.

#: Sequences shorter than this are coded one value at a time. The record
#: path has ~15 us of numpy set-up: at 16 items it decodes B+ leaf
#: entries in 25 us against 57 us per value and encodes them in 28
#: against 96 us (CPython 3.11, numpy 2.4), while a list of plain ints
#: only breaks even near 40 items.
_MIN_RECORDS = 16


def _pack_items(items, out: bytearray) -> None:
    """Append the encodings of ``items``: one record array when they all
    share a fixed layout, else one value at a time."""
    if len(items) >= _MIN_RECORDS:
        template = bytearray()
        fields: List[Tuple[int, np.ndarray]] = []
        if _describe(items, template, fields):
            records = np.empty((len(items), len(template)), np.uint8)
            records[:] = np.frombuffer(template, np.uint8)
            for at, column in fields:
                records[:, at:at + 8] = column.view(np.uint8).reshape(-1, 8)
            out += records.tobytes()
            return
    for item in items:
        pack_value(item, out)


def _describe(column, template: bytearray,
              fields: List[Tuple[int, np.ndarray]]) -> bool:
    """Append to ``template`` the encoding every value of ``column``
    shares, with zeros where values go, and to ``fields`` the (offset,
    values) of each int64/float64 slot. False when the values share no
    fixed layout. Only exact types qualify: a bool, a numpy scalar or an
    int subclass is tagged by :func:`pack_value`'s ``isinstance`` rules,
    which the per-value path applies."""
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return False
    kind = kinds.pop()
    if kind is int:
        try:
            values = np.array(column, np.dtype("<i8"))
        except OverflowError:  # beyond int64: _T_BIGINT, coded per value
            return False
        template.append(_T_INT)
    elif kind is float:
        values = np.array(column, np.dtype("<f8"))
        template.append(_T_FLOAT)
    elif kind is type(None):
        template.append(_T_NONE)
        return True
    elif kind is tuple or kind is list:
        lengths = set(map(len, column))
        if len(lengths) != 1:
            return False
        template.append(_T_TUPLE if kind is tuple else _T_LIST)
        template += _U32.pack(lengths.pop())
        return all(_describe(part, template, fields)
                   for part in zip(*column))
    else:
        return False
    fields.append((len(template), values))
    template += bytes(8)
    return True


class _Fixed(NamedTuple):
    """``count`` values of one fixed layout, still as its columns."""
    shape: object
    columns: List[np.ndarray]
    count: int

    def values(self, shape=None) -> list:
        """The values (or, given a part of the shape, that part of each)."""
        columns = self.columns
        return list(_rebuild(self.shape if shape is None else shape,
                             lambda i: columns[i].tolist(), self.count))


def _unpack_items(buf, offset: int, count: int, lazy: bool = False
                  ) -> Tuple[object, int]:
    """Decode ``count`` consecutive values; returns (list, next offset),
    or with ``lazy`` (:class:`_Fixed`, next offset) when the values share
    one fixed layout."""
    if count >= _MIN_RECORDS:
        layout = _fixed_layout(buf, offset, count)
        if layout is not None:
            shape, columns, end = layout
            fixed = _Fixed(shape, columns, count)
            return (fixed if lazy else fixed.values()), end
    items = []
    for _ in range(count):
        item, offset = _unpack(buf, offset)
        items.append(item)
    return items, offset


def _fixed_layout(buf, offset: int, count: int
                  ) -> Optional[Tuple[object, List[np.ndarray], int]]:
    """The ``count`` values at ``offset`` as one record array: ``(shape,
    columns, end)``, where ``columns`` holds one array per int64/float64
    slot of the layout (copies: the page buffer is never kept) and
    ``shape`` says how they nest; None when the values are not all of the
    first value's fixed layout (or run past the buffer: the per-value
    path then raises what it raises).

    The check is exact. Decoding reads structure only from tag and count
    bytes, each at a position the earlier ones fix, so a record whose tag
    and count bytes all equal the first record's decodes along the same
    path; and where a record departs from the layout, the first byte
    that differs is a tag or count byte at a position the layout expects.
    """
    positions: List[int] = []
    formats: List[Tuple[int, str]] = []
    learned = _learn(buf, offset, offset, positions, formats)
    if learned is None:
        return None
    shape, itemsize = learned[0], learned[1] - offset
    end = offset + count * itemsize
    if end > len(buf):
        return None
    last = end - itemsize
    # One record's worth of Python before any numpy pass, so a sequence
    # of rows with strings or ragged tuples costs O(1) to turn away.
    if any(buf[last + at] != buf[offset + at] for at in positions):
        return None
    structure = np.frombuffer(buf, np.uint8, count * itemsize, offset) \
        .reshape(count, itemsize)[:, positions]
    if not (structure == structure[0]).all():
        return None
    columns = []
    if formats:
        records = np.frombuffer(buf, np.dtype({
            "names": [f"v{i}" for i in range(len(formats))],
            "formats": [fmt for _, fmt in formats],
            "offsets": [at for at, _ in formats],
            "itemsize": itemsize,
        }), count, offset)
        columns = [records[name].copy() for name in records.dtype.names]
    return shape, columns, end


def _learn(buf, at: int, start: int, positions: List[int],
           formats: List[Tuple[int, str]]) -> Optional[Tuple[object, int]]:
    """Walk the value at ``at`` as a fixed layout: record its tag and count
    byte positions and value slots (relative to ``start``) and return
    (shape, next offset), or None when it is not one."""
    if at >= len(buf):
        return None
    tag = buf[at]
    positions.append(at - start)
    if tag in _CONSTANTS:
        return ("const", _CONSTANTS[tag]), at + 1
    if tag == _T_INT or tag == _T_FLOAT:
        formats.append((at + 1 - start, "<i8" if tag == _T_INT else "<f8"))
        return ("column", len(formats) - 1), at + 9
    if tag not in (_T_LIST, _T_TUPLE) or at + 5 > len(buf):
        return None
    positions.extend(range(at + 1 - start, at + 5 - start))
    (count,) = _U32.unpack_from(buf, at + 1)
    at += 5
    parts = []
    for _ in range(count):
        learned = _learn(buf, at, start, positions, formats)
        if learned is None:
            return None
        part, at = learned
        parts.append(part)
    return (list if tag == _T_LIST else tuple, parts), at


def _rebuild(shape, column: Callable[[int], list], count: int):
    """An iterable of the ``count`` values a learned shape describes;
    ``column(i)`` gives the values of column ``i``, asked once each."""
    kind, arg = shape
    if kind == "column":
        return column(arg)
    if kind == "const":
        return repeat(arg, count)
    parts = [_rebuild(part, column, count) for part in arg]
    if kind is tuple:
        return zip(*parts) if parts else repeat((), count)
    return map(list, zip(*parts)) if parts else ([] for _ in range(count))


# ----------------------------------------------------------- page framing

class Page:
    """One decoded page: header fields plus its payload value."""

    __slots__ = ("page_id", "page_type", "lsn", "payload")

    def __init__(self, page_id: int, page_type: int, lsn: int,
                 payload: object):
        self.page_id = page_id
        self.page_type = page_type
        self.lsn = lsn
        self.payload = payload

    def __repr__(self) -> str:
        name = PAGE_TYPE_NAMES.get(self.page_type, str(self.page_type))
        return f"Page(id={self.page_id}, type={name}, lsn={self.lsn})"


def build_page(page_id: int, page_type: int, lsn: int,
               payload: object) -> bytes:
    """Serialize one page (header + payload) to bytes."""
    body = bytearray()
    pack_value(payload, body)
    meta = struct.pack("<BBQQI", PAGE_VERSION, page_type, page_id, lsn,
                       len(body))
    crc = zlib.crc32(body, zlib.crc32(meta))
    header = PAGE_HEADER.pack(PAGE_MAGIC, PAGE_VERSION, page_type, 0,
                              page_id, lsn, len(body), crc)
    return header + body


def _expect_type(page_id: int, page_type: int, expected_type: int) -> None:
    if page_type != expected_type:
        raise StorageError(
            f"snapshot page {page_id}: expected "
            f"{PAGE_TYPE_NAMES[expected_type]}, got "
            f"{PAGE_TYPE_NAMES.get(page_type, page_type)}")


def _check_header(header: bytes, at: int, available: int,
                  expected_type: Optional[int] = None) -> Tuple:
    """Validate a page header read at byte ``at`` of an input with
    ``available`` bytes from there on — the one place magic, version,
    reserved bytes, type (when one is expected) and payload length are
    checked. Returns (page_type, page_id, lsn, payload_len, crc)."""
    if len(header) < PAGE_HEADER.size:
        raise StorageError(
            f"truncated page header at byte {at} "
            f"({len(header)} of {PAGE_HEADER.size} bytes)")
    (magic, version, page_type, reserved, page_id, lsn, payload_len,
     crc) = PAGE_HEADER.unpack(header)
    if magic != PAGE_MAGIC:
        raise StorageError(f"bad page magic at byte {at}: {magic!r}")
    if version != PAGE_VERSION:
        raise StorageError(f"unsupported page version {version}")
    if reserved != 0:
        # Not covered by the CRC, so corruption here must be caught by
        # its only legal value.
        raise StorageError(
            f"page {page_id} reserved header bytes are nonzero")
    if expected_type is not None:
        _expect_type(page_id, page_type, expected_type)
    if PAGE_HEADER.size + payload_len > available:
        raise StorageError(
            f"truncated page {page_id}: payload needs {payload_len} bytes, "
            f"{available - PAGE_HEADER.size} available")
    return page_type, page_id, lsn, payload_len, crc


def parse_page(buf: bytes, offset: int = 0,
               decode=unpack_value) -> Tuple[Page, int]:
    """Decode one page at ``offset``, validating magic and checksum.
    ``decode(body, 0)`` decodes the payload (:func:`unpack_value`, or
    :func:`_leaf_chunk` for a B+ leaf faulted in)."""
    body_start = offset + PAGE_HEADER.size
    page_type, page_id, lsn, payload_len, crc = _check_header(
        bytes(buf[offset:body_start]), offset, len(buf) - offset)
    body_end = body_start + payload_len
    body = memoryview(buf)[body_start:body_end]
    meta = struct.pack("<BBQQI", PAGE_VERSION, page_type, page_id, lsn,
                       payload_len)
    if zlib.crc32(body, zlib.crc32(meta)) != crc:
        raise StorageError(f"page {page_id} checksum mismatch")
    payload, consumed = decode(body, 0)
    if consumed != len(body):
        raise StorageError(
            f"page {page_id} payload has {len(body) - consumed} "
            "trailing bytes")
    return Page(page_id, page_type, lsn, payload), body_end


# ------------------------------------------------------- snapshot writer

def _schema_payload(schema: TableSchema) -> List[Tuple]:
    return [
        (col.name, col.col_type.kind.value, col.col_type.length,
         col.col_type.scale, col.nullable)
        for col in schema.columns
    ]


def _schema_from_payload(name: str, columns: List[Tuple]) -> TableSchema:
    return TableSchema(name, [
        Column(col_name, ColumnType(TypeKind(kind), length, scale), nullable)
        for col_name, kind, length, scale, nullable in columns
    ])


def _leaf_fences(items: List[Tuple]) -> List[Tuple]:
    """First key of each PT_BTREE_LEAF page — the resident separator
    array that lets a paged B+ index route a seek to the right leaf page
    without materializing internal nodes."""
    return [items[start][0]
            for start in range(0, len(items), BTREE_ITEMS_PER_PAGE)]


def _index_descriptor(table, index,
                      btree_items: Optional[List[Tuple]] = None
                      ) -> Dict[str, object]:
    desc: Dict[str, object] = {
        "table": table.name,
        "name": index.name,
        "role": "primary" if index is table.primary else "secondary",
        "object_id": getattr(index, "object_id", 0),
    }
    if isinstance(index, HeapFile):
        desc.update({"kind": "heap", "n_pages": 0})
    elif isinstance(index, (PrimaryBTreeIndex, SecondaryBTreeIndex)):
        items = (list(index.tree.items())
                 if btree_items is None else btree_items)
        n_items = len(items)
        desc.update({
            "kind": "btree",
            "key_columns": list(index.key_columns),
            "included_columns": (
                None if isinstance(index, PrimaryBTreeIndex)
                else list(index.included_columns)),
            "n_items": n_items,
            "n_pages": -(-n_items // BTREE_ITEMS_PER_PAGE) if n_items else 0,
            "leaf_fences": _leaf_fences(items),
        })
    elif isinstance(index, ColumnstoreIndex):
        n_groups = len(index._groups)
        n_pages = sum(1 + len(state.group.column_names())
                      for state in index._groups) + 1
        desc.update({
            "kind": "csi",
            "is_primary": index.is_primary,
            "columns": list(index.columns),
            "rowgroup_size": index.rowgroup_size,
            "n_groups": n_groups,
            "n_pages": n_pages,
        })
    else:
        raise StorageError(
            f"index {index.name!r} of type {type(index).__name__} "
            "cannot be serialized")
    return desc


def _segment_payload(table_name: str, index_name: str, group_index: int,
                     column: str, segment: ColumnSegment) -> Dict[str, object]:
    dictionary = segment.dictionary
    return {
        "table": table_name,
        "index": index_name,
        "group_index": group_index,
        "column": column,
        "n_rows": segment.n_rows,
        "encoding": segment.encoding,
        "size_bytes": segment.size_bytes,
        "min_value": segment.min_value,
        "max_value": segment.max_value,
        "run_values": segment.run_values,
        "run_lengths": segment.run_lengths,
        "values": segment.values,
        "dictionary": None if dictionary is None else dictionary.values,
    }


def _segment_from_payload(payload: Dict[str, object]) -> ColumnSegment:
    dict_values = payload["dictionary"]
    dictionary = None if dict_values is None else Dictionary(dict_values)
    return ColumnSegment(
        column=payload["column"],
        n_rows=payload["n_rows"],
        encoding=payload["encoding"],
        size_bytes=payload["size_bytes"],
        min_value=payload["min_value"],
        max_value=payload["max_value"],
        run_values=payload["run_values"],
        run_lengths=payload["run_lengths"],
        values=payload["values"],
        dictionary=dictionary,
    )


class _PageWriter:
    """Sequential page-id allocation plus torn-flush fault simulation."""

    def __init__(self, out: BinaryIO, lsn: int,
                 faults: Optional[FaultInjector]):
        self.out = out
        self.lsn = lsn
        self.faults = faults
        self.next_page_id = 0

    def write(self, page_type: int, payload: object) -> None:
        data = build_page(self.next_page_id, page_type, self.lsn, payload)
        self.next_page_id += 1
        try:
            trip(self.faults, "page_flush_torn")
        except ProcessAbort:
            # Leave a torn page behind, exactly like a power cut during
            # the flush: recovery must reject the partial file.
            self.out.write(data[:max(1, len(data) // 2)])
            self.out.flush()
            raise
        self.out.write(data)


def write_snapshot(database, out: BinaryIO, checkpoint_lsn: int = 0,
                   faults: Optional[FaultInjector] = None) -> int:
    """Write a full snapshot of ``database`` as a page stream to ``out``.

    Returns the number of pages written. Deterministic for a given
    database state (see the module docstring), so two saves of identical
    states are byte-identical.
    """
    writer = _PageWriter(out, checkpoint_lsn, faults)
    tables = database.tables()
    writer.write(PT_CATALOG, {
        "name": database.name,
        "checkpoint_lsn": checkpoint_lsn,
        "tables": [t.name for t in tables],
    })
    for table in tables:
        trip(faults, "checkpoint_mid")
        rids, rows = table.columns_by_rid()
        n_row_pages = -(-len(rids) // ROWS_PER_PAGE)
        writer.write(PT_TABLE, {
            "table": table.name,
            "schema": _schema_payload(table.schema),
            "next_rid": table._next_rid,
            "modification_counter": table.modification_counter,
            "n_row_pages": n_row_pages,
            "n_indexes": 1 + len(table.secondary_indexes),
        })
        for start in range(0, len(rids), ROWS_PER_PAGE):
            stop = start + ROWS_PER_PAGE
            writer.write(PT_ROWS, {
                "table": table.name,
                "rids": rids[start:stop].tolist(),
                "rows": rows[start:stop],
            })
        for index in [table.primary] + list(table.secondary_indexes.values()):
            if isinstance(index, (PrimaryBTreeIndex, SecondaryBTreeIndex)):
                # Materializes a paged index: a checkpoint needs every
                # leaf entry anyway, and quiesced checkpoints are the
                # only writers of snapshots.
                items = list(index.tree.items())
                writer.write(PT_INDEX,
                             _index_descriptor(table, index,
                                               btree_items=items))
                for start in range(0, len(items), BTREE_ITEMS_PER_PAGE):
                    chunk = items[start:start + BTREE_ITEMS_PER_PAGE]
                    writer.write(PT_BTREE_LEAF, {
                        "table": table.name,
                        "index": index.name,
                        "items": chunk,
                    })
                continue
            writer.write(PT_INDEX, _index_descriptor(table, index))
            if isinstance(index, ColumnstoreIndex):
                for gi, state in enumerate(index._groups):
                    group = state.group
                    columns = group.column_names()
                    segment_meta = {}
                    for column in columns:
                        m = group.column_meta(column)
                        segment_meta[column] = {
                            "n_rows": m.n_rows,
                            "encoding": m.encoding,
                            "size_bytes": m.size_bytes,
                            "min": m.min_value,
                            "max": m.max_value,
                        }
                    writer.write(PT_CSI_GROUP, {
                        "table": table.name,
                        "index": index.name,
                        "group_index": gi,
                        "rids": group.rids,
                        "n_rows": group.n_rows,
                        "sort_order": list(group.sort_order),
                        "deleted_mask": state.deleted_mask,
                        "n_deleted": state.n_deleted,
                        "columns": columns,
                        "segment_meta": segment_meta,
                    })
                    for column in columns:
                        # group.column() faults paged segments in
                        # through the pool, so checkpointing a paged
                        # database stays within the pool budget.
                        writer.write(PT_CSI_SEGMENT, _segment_payload(
                            table.name, index.name, gi, column,
                            group.column(column)))
                writer.write(PT_CSI_SIDE, {
                    "table": table.name,
                    "index": index.name,
                    "delta": list(index._delta.items()),
                    "delete_buffer": sorted(index._delete_buffer),
                })
    return writer.next_page_id


# ------------------------------------------------------- snapshot loader

class SnapshotReader:
    """Random-access page reads from a published snapshot file.

    One reader is shared by every paged structure of a database (and
    therefore every serving session), so reads are serialized by a
    per-reader lock. Each read re-validates the page's magic and CRC —
    deferred pages skip validation at open time, so the first fault is
    where corruption surfaces.

    The file handle is held open until the owning database is closed. A
    later checkpoint replaces ``snapshot.db`` via ``os.replace``, but on
    POSIX the open handle keeps reading the original inode — and a
    quiesced checkpoint rewrites unchanged pages byte-identically, so
    in-flight paged structures stay consistent either way.
    """

    def __init__(self, path):
        self.path = str(path)
        self._f = open(self.path, "rb")
        self._lock = threading.Lock()
        self._closed = False

    def read_page(self, offset: int, length: int, expected_type: int,
                  decode=unpack_value) -> Page:
        """Read, checksum, and decode one page at a known location
        (``decode`` as for :func:`parse_page`)."""
        with self._lock:
            if self._closed:
                raise StorageError(
                    f"snapshot reader for {self.path} is closed")
            self._f.seek(offset)
            buf = self._f.read(length)
        if len(buf) != length:
            raise StorageError(
                f"snapshot {self.path}: short read at offset {offset} "
                f"({len(buf)} of {length} bytes)")
        page, _ = parse_page(buf, 0, decode)
        _expect_type(page.page_id, page.page_type, expected_type)
        return page

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._f.close()


class _PageStream:
    """The one sequential walk over a snapshot's pages.

    ``f`` is a seekable binary file — the open snapshot for a path,
    ``io.BytesIO`` for bytes. :meth:`defer` validates the next page's
    header and skips the payload; :meth:`next` goes on to read, checksum
    and decode it. A walk never reads more than it parses.

    A ``lazy`` walk (the paged open) rejects a page of the wrong type
    from its header; an eager one checksums the page first and reports a
    damaged type byte as the mismatch it is. Both orders predate this
    class: every corrupt snapshot still fails with the message it had.
    """

    def __init__(self, f: BinaryIO, lazy: bool):
        self.f = f
        self.size = f.seek(0, os.SEEK_END)
        self.lazy = lazy
        self.offset = 0
        self.pages_read = 0

    @property
    def exhausted(self) -> bool:
        return self.offset >= self.size

    def defer(self, expected_type: int,
              check_type: bool = True) -> Tuple[int, int, int]:
        """Validate the next page's header and skip its payload; returns
        (page_id, offset, length) for :meth:`SnapshotReader.read_page`.
        The id is the page's position in the stream, which is what the
        writer numbered it by: the header's copy is not checksummed
        until the payload is read, and this id keys the buffer pool."""
        if self.exhausted:
            raise StorageError(
                f"snapshot ended early: expected a "
                f"{PAGE_TYPE_NAMES[expected_type]} page")
        self.f.seek(self.offset)
        _type, _id, _lsn, payload_len, _crc = _check_header(
            self.f.read(PAGE_HEADER.size), self.offset,
            self.size - self.offset, expected_type if check_type else None)
        location = (self.pages_read, self.offset,
                    PAGE_HEADER.size + payload_len)
        self.offset += location[2]
        self.pages_read += 1
        return location

    def next(self, expected_type: int, decode=unpack_value) -> Page:
        """Read, checksum and decode the next page (``decode`` as for
        :func:`parse_page`)."""
        _id, offset, length = self.defer(expected_type, check_type=self.lazy)
        self.f.seek(offset)
        page, _ = parse_page(self.f.read(length), 0, decode)
        _expect_type(page.page_id, page.page_type, expected_type)
        return page


class _CsiPager:
    """Faults one columnstore's segment pages through the buffer pool.

    Keyed by (row-group index, column); the pool key is the segment
    page's snapshot page id under the index's object id, so
    :meth:`ColumnstoreIndex.release_pages` (rebuild, drop, replaced
    primary) drops exactly these frames.
    """

    def __init__(self, reader: SnapshotReader, pool: BufferPool,
                 object_id: int):
        self.reader = reader
        self.pool = pool
        self.object_id = object_id
        #: (group index, column) -> the segment page's (page_id, offset,
        #: length), as :meth:`_PageStream.defer` returned it.
        self.locations: Dict[Tuple[int, str], Tuple[int, int, int]] = {}

    def load(self, group_index: int, column: str,
             pin: bool = False) -> Tuple[ColumnSegment, Tuple[int, int]]:
        """Returns (segment, pool page key); the key is pinned when
        ``pin`` and must be unpinned by the caller."""
        page_id, offset, length = self.locations[(group_index, column)]
        key = (self.object_id, page_id)

        def fault() -> Tuple[ColumnSegment, int]:
            page = self.reader.read_page(offset, length, PT_CSI_SEGMENT)
            payload = page.payload
            if (payload["column"] != column
                    or payload["group_index"] != group_index):
                raise StorageError(
                    f"segment page {page_id} holds "
                    f"{payload['column']!r}/{payload['group_index']}, "
                    f"expected {column!r}/{group_index}")
            return _segment_from_payload(payload), length

        return self.pool.get_or_load(key, fault, pin=pin), key

    def group_loader(self, group_index: int):
        """The ``CompressedRowGroup.loader`` callable for one group."""
        return lambda column: self.load(group_index, column)[0]


def _restore_btree(table, desc: Dict[str, object], stream: _PageStream,
                   pool: Optional[BufferPool],
                   reader: Optional[SnapshotReader], rids: list,
                   rows: Records):
    """Rebuild one B+ index from its leaf pages: decoded and built now,
    or — given a pool and a reader — left on disk behind the
    descriptor's fence keys, the only part that stays resident. A
    clustered index maps every rid to its key: from the leaves it built,
    or from the table's ``rows`` at ``rids`` when its leaves stay paged."""
    if desc["included_columns"] is None:
        cls = PrimaryBTreeIndex if pool is None else PagedPrimaryBTreeIndex
        index = cls(desc["name"], table.schema, desc["key_columns"],
                    object_id=desc["object_id"])
    else:
        cls = SecondaryBTreeIndex if pool is None else PagedSecondaryBTreeIndex
        index = cls(desc["name"], table.schema, desc["key_columns"],
                    desc["included_columns"], object_id=desc["object_id"])
    primary = isinstance(index, PrimaryBTreeIndex)
    if pool is None:
        keys: List[Tuple] = []
        parts: List[Records] = []
        for _ in range(desc["n_pages"]):
            page_keys, values = stream.next(PT_BTREE_LEAF, _leaf_chunk).payload
            keys += page_keys
            parts.append(values)
        if len(keys) != desc["n_items"]:
            raise StorageError(
                f"index {desc['name']!r}: snapshot has {len(keys)} leaf "
                f"entries, descriptor says {desc['n_items']}")
        if keys:
            index.tree = BPlusTree.from_columns(
                keys, Records.concat(parts),
                leaf_capacity=index.tree.leaf_capacity)
        if primary:
            index.map_rids(keys)
        return index
    if primary and rids:
        index.map_rids(index.keys_of(rids, rows))
    if not desc["n_pages"]:
        return index  # empty index: nothing to page
    fences = desc.get("leaf_fences")
    if fences is None or len(fences) != desc["n_pages"]:
        raise StorageError(
            f"index {desc['name']!r}: snapshot predates the paged "
            "format (no leaf fences) — rewrite it with save() before "
            "opening with paging=True")
    page_locs = [stream.defer(PT_BTREE_LEAF)
                 for _ in range(desc["n_pages"])]

    def read_leaf(offset: int, length: int):
        return reader.read_page(offset, length, PT_BTREE_LEAF,
                                _leaf_chunk).payload

    index.attach_paged(PagedLeafSource(
        pool, desc["n_items"], fences, page_locs, read_leaf))
    return index


def _leaf_chunk(body, offset: int) -> Tuple[Tuple[list, Records], int]:
    """A PT_BTREE_LEAF payload decoded into the chunk a paged leaf is
    cached as: ``((keys, values), next offset)``, the key list and the
    :class:`Records` a resident leaf holds.

    The payload decodes as :func:`unpack_value` decodes it, except that
    entries of one fixed layout stay columns: the keys are built as a
    list, which seeks bisect, and each value field's column (or the
    constant every value holds there) is adopted as it is, so a fault
    builds the key tuples and no row. Other entries (strings, NULL in
    some rows) are pivoted into columns once."""
    payload, end = unpack_value(body, offset, lazy=True)
    try:
        items = payload["items"]
    except (TypeError, KeyError):
        raise StorageError("btree leaf payload has no entries") from None
    if isinstance(items, _Fixed):
        outer, parts = items.shape
        if outer in (tuple, list) and len(parts) == 2:
            values = _adopt(items, parts[1])
            if values is not None:
                return (items.values(parts[0]), values), end
        items = items.values()
    try:
        keys, values = [k for k, _ in items], [v for _, v in items]
    except (TypeError, ValueError):
        raise StorageError(
            "btree leaf entries are not (key, value) pairs") from None
    return (keys, Records.from_rows(values)), end


def _adopt(fixed: _Fixed, shape) -> Optional[Records]:
    """Tuples of scalars that ``shape`` (a part of ``fixed``'s layout)
    describes, as :class:`Records` adopting ``fixed``'s columns — a field
    every tuple holds one constant in becomes an object column of it —
    or None for any other shape."""
    kind, parts = shape
    if kind is not tuple or not all(part[0] in ("column", "const")
                                    for part in parts):
        return None
    return Records([fixed.columns[arg] if part == "column"
                    else np.full(fixed.count, arg, dtype=object)
                    for part, arg in parts], fixed.count)


def _rows_chunk(body, offset: int) -> Tuple[Tuple[list, Records], int]:
    """A PT_ROWS payload decoded into ``((rids, rows), next offset)``, the
    rows as :class:`Records`: rows of one fixed layout adopt its columns,
    others are pivoted once, so no row tuple of the page is kept."""
    payload, end = unpack_value(body, offset, lazy=True)
    try:
        rids, rows = payload["rids"], payload["rows"]
    except (TypeError, KeyError):
        raise StorageError("rows payload has no rows") from None
    if isinstance(rids, _Fixed):
        rids = rids.values()
    values = _adopt(rows, rows.shape) if isinstance(rows, _Fixed) else None
    if values is None:
        values = Records.from_rows(
            rows.values() if isinstance(rows, _Fixed) else rows)
    return (rids, values), end


def _restore_columnstore(table, desc: Dict[str, object],
                         stream: _PageStream, pool: Optional[BufferPool],
                         reader: Optional[SnapshotReader]
                         ) -> ColumnstoreIndex:
    """Rebuild one columnstore. Group pages (rids, delete bitmap, sort
    order, per-column metadata) and the side page always load now;
    segment pages are parsed now, or — given a pool and a reader — left
    to a pager that faults them through the pool."""
    index = ColumnstoreIndex(
        desc["name"], table.schema, columns=desc["columns"],
        is_primary=desc["is_primary"], rowgroup_size=desc["rowgroup_size"],
        object_id=desc["object_id"],
    )
    pager = None
    if pool is not None:
        pager = _CsiPager(reader, pool, desc["object_id"])
        index.attach_pager(pager, pool)
    for gi in range(desc["n_groups"]):
        group_page = stream.next(PT_CSI_GROUP).payload
        if group_page["group_index"] != gi:
            raise StorageError(
                f"index {desc['name']!r}: row group pages out of order")
        segments: Dict[str, ColumnSegment] = {}
        meta = loader = None
        if pager is not None:
            meta_payload = group_page.get("segment_meta")
            if meta_payload is None:
                raise StorageError(
                    f"index {desc['name']!r}: snapshot predates the paged "
                    "format (no segment metadata) — rewrite it with save() "
                    "before opening with paging=True")
            meta = {
                column: SegmentMeta(
                    column=column, n_rows=m["n_rows"],
                    encoding=m["encoding"], size_bytes=m["size_bytes"],
                    min_value=m["min"], max_value=m["max"])
                for column, m in meta_payload.items()
            }
            loader = pager.group_loader(gi)
        for column in group_page["columns"]:
            if pager is not None:
                pager.locations[gi, column] = stream.defer(PT_CSI_SEGMENT)
                continue
            seg_page = stream.next(PT_CSI_SEGMENT).payload
            if seg_page["column"] != column or seg_page["group_index"] != gi:
                raise StorageError(
                    f"index {desc['name']!r}: segment pages out of order")
            segments[column] = _segment_from_payload(seg_page)
        index.restore_group(
            CompressedRowGroup(
                segments=segments, rids=group_page["rids"],
                n_rows=group_page["n_rows"],
                sort_order=group_page["sort_order"], meta=meta,
                loader=loader),
            group_page["deleted_mask"], group_page["n_deleted"])
    side = stream.next(PT_CSI_SIDE).payload
    index.restore_side_state(side["delta"], side["delete_buffer"])
    return index


def _load(f: BinaryIO, cost_model, pool: Optional[BufferPool] = None,
          reader: Optional[SnapshotReader] = None):
    """The one snapshot loader: walk the catalog → table → rows → index
    pages of the snapshot open as ``f`` and rebuild the database through
    each structure's restore interface. Leaf and segment pages are
    parsed now, or — given a pool and a reader — stay on disk (see
    :func:`load_snapshot_paged`). Returns ``(database, meta)``."""
    from repro.engine.costs import DEFAULT_COST_MODEL
    from repro.storage.database import Database

    stream = _PageStream(f, lazy=pool is not None)
    catalog = stream.next(PT_CATALOG).payload
    database = Database(catalog["name"],
                        cost_model=cost_model or DEFAULT_COST_MODEL)
    max_object_id = 0
    for table_name in catalog["tables"]:
        table_page = stream.next(PT_TABLE).payload
        if table_page["table"] != table_name:
            raise StorageError(
                f"snapshot table pages out of order: expected "
                f"{table_name!r}, got {table_page['table']!r}")
        table = database.create_table(
            _schema_from_payload(table_name, table_page["schema"]))
        # The table's rows, read and checksummed by every open, are kept
        # only until its primary structure takes what it needs of them.
        rids: list = []
        parts: List[Records] = []
        for _ in range(table_page["n_row_pages"]):
            page_rids, values = stream.next(PT_ROWS, _rows_chunk).payload
            rids += page_rids
            parts.append(values)
        rows = Records.concat(parts)
        table.restore_counters(table_page["next_rid"],
                               table_page["modification_counter"])
        for position in range(table_page["n_indexes"]):
            desc = stream.next(PT_INDEX).payload
            max_object_id = max(max_object_id, desc["object_id"])
            if desc["kind"] == "heap":
                index = HeapFile(desc["name"], table.schema,
                                 object_id=desc["object_id"])
                index.load(rids, rows)
            elif desc["kind"] == "btree":
                index = _restore_btree(table, desc, stream, pool, reader,
                                       rids, rows)
            elif desc["kind"] == "csi":
                index = _restore_columnstore(table, desc, stream, pool,
                                             reader)
            else:
                raise StorageError(
                    f"unknown index kind {desc['kind']!r} in snapshot")
            if position == 0 and desc["role"] != "primary":
                raise StorageError(
                    f"table {table_name!r}: first index in snapshot "
                    "is not the primary structure")
            table.adopt_index(index, primary=position == 0)
            rids, rows = [], Records()
    if not stream.exhausted:
        raise StorageError(
            f"snapshot has {stream.size - stream.offset} trailing bytes "
            f"after page {stream.pages_read - 1}")
    ensure_object_ids_above(max_object_id)
    return database, {
        "name": catalog["name"],
        "checkpoint_lsn": catalog["checkpoint_lsn"],
        "pages_read": stream.pages_read,
    }


def load_snapshot(source, cost_model=None):
    """Load a snapshot written by :func:`write_snapshot`.

    ``source`` is a path or bytes. Returns ``(database, meta)`` where
    ``meta`` carries the catalog header (notably ``checkpoint_lsn`` and
    ``pages_read``). Raises :class:`StorageError` on any torn page,
    checksum mismatch, or structural inconsistency.
    """
    if isinstance(source, (bytes, bytearray)):
        f = io.BytesIO(source)
    else:
        f = open(source, "rb")
    with f:
        return _load(f, cost_model)


def load_snapshot_paged(path, pool: Optional[BufferPool], cost_model=None):
    """Load a snapshot lazily: catalog, heaps, clustered B+ rid -> key
    maps, B+ fences, and columnstore group metadata come into memory
    (a B+ or columnstore primary keeps no row); B+ leaf pages and
    column segment pages stay on disk and are demand-loaded through
    ``pool`` on first touch.

    Returns ``(database, meta, reader)``. The caller owns the reader's
    lifetime (``Database.open(..., paging=True)`` parks it on the
    database, whose ``close()`` closes it). Deferred pages are
    CRC-validated at fault time, not at open time. Without a pool there
    is nothing to defer behind: everything loads now, the reader is None.
    """
    reader = None if pool is None else SnapshotReader(path)
    try:
        with open(path, "rb") as f:
            return (*_load(f, cost_model, pool, reader), reader)
    except BaseException:
        if reader is not None:
            reader.close()
        raise


def snapshot_bytes(database, checkpoint_lsn: int = 0) -> bytes:
    """Serialize ``database`` to an in-memory snapshot (no faults, no
    files) — the building block for recovery's state digests."""
    out = io.BytesIO()
    write_snapshot(database, out, checkpoint_lsn=checkpoint_lsn, faults=None)
    return out.getvalue()

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
    version    B    format version (currently 4)
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
— so numpy segment payloads round-trip bit-exactly. Rows are never
coded as a sequence of row tuples: a leaf page and a WAL multi-row op
(:mod:`repro.storage.wal`) both write them as the leaf columns below,
built by :func:`_leaf_payload` and read back by :func:`_leaf_chunk`.

Snapshot layout: one :data:`PT_CATALOG` page, then per table a
:data:`PT_TABLE` page and per index a :data:`PT_INDEX` descriptor
followed by its data pages. The entries of each tree of
:class:`~repro.storage.records.Records` leaves — a heap and a delta
store (keyed by rid), a clustered and a secondary B+ tree — follow its
descriptor, whose ``n_items`` sizes the run, as :data:`PT_BTREE_LEAF`
pages cut where a bulk load cuts leaves
(:func:`~repro.storage.btree.cut_leaves`): each is adopted as one leaf
of the tree that reads it back, and holds its entries' columns::

    {"keys": [key field 0, ..., rid] or rid, "values": [field 0, ...]}

one lossless array a field (int64, float64, else objects: the rule
:class:`Records` stores by), decoded by :func:`_leaf_chunk` into the
``(keys, Records)`` chunk a leaf holds. A columnstore's run is followed
per row group by a :data:`PT_CSI_GROUP` page (rids, delete bitmap, sort
order) plus one :data:`PT_CSI_SEGMENT` page per column segment, and
closed by a :data:`PT_CSI_SIDE` page (the delete buffer). Each row is
stored once, by the table's primary structure. An eager open builds
every tree; a paged open leaves B+ leaf and segment pages on disk (a
clustered primary reads each leaf page once, uncached, for its rid ->
key map), and a checkpoint reads them back through the pool. Heaps and
delta stores load resident.

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
from typing import BinaryIO, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.errors import ProcessAbort, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import ColumnType, TypeKind
from repro.storage.btree import (
    BPlusTree,
    Chunk,
    PagedPrimaryBTreeIndex,
    PagedSecondaryBTreeIndex,
    PrimaryBTreeIndex,
    SecondaryBTreeIndex,
    cut_leaves,
)
from repro.storage.bufferpool import PAGE_BYTES, BufferPool
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.compression import (
    ColumnSegment,
    CompressedRowGroup,
    Dictionary,
    SegmentMeta,
)
from repro.storage.faults import FaultInjector, trip
from repro.storage.heap import HeapFile
from repro.storage.records import Records, lossless_array

__all__ = [
    "PAGE_BYTES",
    "census",
    "load_snapshot",
    "load_snapshot_paged",
    "snapshot_bytes",
    "write_snapshot",
    "SnapshotReader",
]

# ------------------------------------------------------------ page codec

PAGE_MAGIC = b"RPPG"
PAGE_VERSION = 4
PAGE_HEADER = struct.Struct("<4sBBHQQII")

PT_CATALOG = 1
PT_TABLE = 2
PT_INDEX = 4        # 3 held a table's rows until format version 2
PT_BTREE_LEAF = 5
PT_CSI_GROUP = 6
PT_CSI_SEGMENT = 7
PT_CSI_SIDE = 8

PAGE_TYPE_NAMES = {
    PT_CATALOG: "catalog",
    PT_TABLE: "table",
    PT_INDEX: "index",
    PT_BTREE_LEAF: "btree_leaf",
    PT_CSI_GROUP: "csi_group",
    PT_CSI_SEGMENT: "csi_segment",
    PT_CSI_SIDE: "csi_side",
}

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
            for item in value.tolist():
                pack_value(item, out)
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
            pack_value(item, out)
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


def unpack_value(buf, offset: int = 0) -> Tuple[object, int]:
    """Decode one value at ``offset`` of ``buf`` (any bytes-like object);
    returns (value, next offset). Input that is not a whole encoding
    raises :class:`StorageError`, never another exception type, so a
    reader that catches it (the WAL scan, the snapshot loader) sees every
    malformed payload."""
    try:
        return _unpack(buf, offset)
    except RecursionError:
        raise StorageError("value payload nested too deeply") from None


def _unpack(buf, offset: int) -> Tuple[object, int]:
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
            items, offset = _unpack_items(buf, offset + 4, count)
            return (items if tag == _T_LIST else tuple(items)), offset
        if tag == _T_DICT:
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            result = {}
            for _ in range(count):
                key, offset = _unpack(buf, offset)
                val, offset = _unpack(buf, offset)
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


def _unpack_items(buf, offset: int, count: int) -> Tuple[list, int]:
    """Decode ``count`` consecutive values; returns (list, next offset)."""
    items = []
    for _ in range(count):
        item, offset = _unpack(buf, offset)
        items.append(item)
    return items, offset


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


def parse_page(buf: bytes, offset: int = 0) -> Tuple[Page, int]:
    """Decode one page at ``offset``, validating magic and checksum."""
    body_start = offset + PAGE_HEADER.size
    page_type, page_id, lsn, payload_len, crc = _check_header(
        bytes(buf[offset:body_start]), offset, len(buf) - offset)
    body_end = body_start + payload_len
    body = memoryview(buf)[body_start:body_end]
    meta = struct.pack("<BBQQI", PAGE_VERSION, page_type, page_id, lsn,
                       payload_len)
    if zlib.crc32(body, zlib.crc32(meta)) != crc:
        raise StorageError(f"page {page_id} checksum mismatch")
    payload, consumed = unpack_value(body, 0)
    if consumed != len(body):
        raise StorageError(
            f"page {page_id} payload has {len(body) - consumed} "
            "trailing bytes")
    return Page(page_id, page_type, lsn, payload), body_end


def census(snapshot: bytes) -> Dict[str, int]:
    """Page type name -> bytes of its pages (headers included) in
    ``snapshot``: what a format change moves. Reads headers only."""
    sizes: Dict[str, int] = {}
    offset = 0
    while offset < len(snapshot):
        page_type, _id, _lsn, payload_len, _crc = _check_header(
            snapshot[offset:offset + PAGE_HEADER.size], offset,
            len(snapshot) - offset)
        name = PAGE_TYPE_NAMES.get(page_type, str(page_type))
        sizes[name] = sizes.get(name, 0) + PAGE_HEADER.size + payload_len
        offset += PAGE_HEADER.size + payload_len
    return sizes


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


def _leaf_run(index) -> Iterable[Chunk]:
    """The leaf pages of ``index``'s run, uncharged: a paged B+ index's
    as they are, through the pool (it stays paged); any other tree's
    entries cut as its bulk load cuts leaves, held for the descriptor."""
    if getattr(index, "_paged", None) is not None:
        return index._leaf_chunks(None, None, True, True)
    tree = index._delta if isinstance(index, ColumnstoreIndex) else index.tree
    return list(cut_leaves(tree.leaf_chunks(), tree.leaf_capacity))


def _index_descriptor(table, index, run: Iterable[Chunk]
                      ) -> Dict[str, object]:
    """The PT_INDEX payload of ``index``: what kind of structure to
    rebuild and the size of the leaf ``run`` that follows it (a paged
    B+ index's source gives both, so only the writer walks its pages)."""
    source = getattr(index, "_paged", None)
    desc: Dict[str, object] = {
        "table": table.name,
        "name": index.name,
        "role": "primary" if index is table.primary else "secondary",
        "object_id": getattr(index, "object_id", 0),
        "n_items": (source.n_items if source is not None
                    else sum(len(keys) for keys, _values in run)),
    }
    if isinstance(index, HeapFile):
        desc["kind"] = "heap"
    elif isinstance(index, (PrimaryBTreeIndex, SecondaryBTreeIndex)):
        desc.update({
            "kind": "btree",
            "key_columns": list(index.key_columns),
            "included_columns": (
                None if isinstance(index, PrimaryBTreeIndex)
                else list(index.included_columns)),
            # Each leaf page's first key: a paged index's seek routing.
            "leaf_fences": (list(source.fences) if source is not None
                            else [keys[0] for keys, _values in run]),
        })
    elif isinstance(index, ColumnstoreIndex):
        desc.update({
            "kind": "csi",
            "is_primary": index.is_primary,
            "columns": list(index.columns),
            "rowgroup_size": index.rowgroup_size,
            "n_groups": len(index._groups),
        })
    else:
        raise StorageError(
            f"index {index.name!r} of type {type(index).__name__} "
            "cannot be serialized")
    return desc


def _leaf_payload(keys: list, values: Records) -> Dict[str, object]:
    """One leaf page's entries as columns (see the module docstring),
    each the array the lossless rule gives its values: the bytes depend
    on the entries, not on how the leaves hold them."""
    key_columns = ([lossless_array(list(field)) for field in zip(*keys)]
                   if type(keys[0]) is tuple else lossless_array(keys))
    return {"keys": key_columns,
            "values": [lossless_array(column.tolist())
                       if column.dtype == object else column
                       for column in values.live_columns()]}


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
        writer.write(PT_TABLE, {
            "table": table.name,
            "schema": _schema_payload(table.schema),
            "next_rid": table._next_rid,
            "modification_counter": table.modification_counter,
            "n_indexes": 1 + len(table.secondary_indexes),
        })
        for index in [table.primary] + list(table.secondary_indexes.values()):
            run = _leaf_run(index)
            writer.write(PT_INDEX, _index_descriptor(table, index, run))
            for keys, values in run:
                writer.write(PT_BTREE_LEAF, _leaf_payload(keys, values))
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

    def read_page(self, offset: int, length: int,
                  expected_type: int) -> Page:
        """Read, checksum, and decode one page at a known location."""
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
        page, _ = parse_page(buf, 0)
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

    def next(self, expected_type: int) -> Page:
        """Read, checksum and decode the next page."""
        _id, offset, length = self.defer(expected_type, check_type=self.lazy)
        self.f.seek(offset)
        page, _ = parse_page(self.f.read(length), 0)
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


def _read_leaves(stream: _PageStream, desc: Dict[str, object]
                 ) -> List[Chunk]:
    """The leaf run after the descriptor ``desc``, decoded: one chunk a
    page, the leaves ``BPlusTree.from_leaves`` adopts."""
    leaves: List[Chunk] = []
    n_items = 0
    while n_items < desc["n_items"]:
        leaves.append(_leaf_chunk(stream.next(PT_BTREE_LEAF).payload))
        n_items += len(leaves[-1][0])
    if n_items != desc["n_items"]:
        raise StorageError(
            f"index {desc['name']!r}: snapshot has {n_items} leaf "
            f"entries, descriptor says {desc['n_items']}")
    return leaves


def _restore_btree(table, desc: Dict[str, object], stream: _PageStream,
                   pool: Optional[BufferPool],
                   reader: Optional[SnapshotReader]):
    """Rebuild one B+ index whose leaves are its leaf pages: adopted
    now, or — given a pool and a reader — left on disk behind the
    descriptor's fence keys. A clustered index maps every rid to its
    key, read from its leaves (each paged one once, outside the pool)."""
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
        index.tree = BPlusTree.from_leaves(_read_leaves(stream, desc),
                                           index.tree.leaf_capacity)
        if primary:
            index.map_rids([key for keys, _ in index.tree.leaf_chunks()
                            for key in keys])
        return index
    if not desc["n_items"]:
        return index  # empty index: nothing to page
    fences = desc.get("leaf_fences")
    if not fences:
        raise StorageError(
            f"index {desc['name']!r}: snapshot predates the paged "
            "format (no leaf fences) — rewrite it with save() before "
            "opening with paging=True")
    page_locs = [stream.defer(PT_BTREE_LEAF) for _ in fences]

    def read_leaf(offset: int, length: int) -> Chunk:
        return _leaf_chunk(
            reader.read_page(offset, length, PT_BTREE_LEAF).payload)

    if primary:
        index.map_rids([key for _id, offset, length in page_locs
                        for key in read_leaf(offset, length)[0]])
    index.attach_paged(pool, desc["n_items"], fences, page_locs, read_leaf)
    return index


def _leaf_chunk(payload: object) -> Chunk:
    """A PT_BTREE_LEAF payload as the chunk a leaf holds: the key list
    (tuples, or rids) that seeks bisect and the :class:`Records` of the
    values, adopting the page's arrays (copies of the page bytes), an
    object column narrowed by the lossless rule as
    ``BPlusTree.from_columns`` narrows it."""
    if type(payload) is not dict or set(payload) != {"keys", "values"}:
        raise StorageError("btree leaf payload is not key and value columns")
    keys, values = payload["keys"], payload["values"]
    rids = isinstance(keys, np.ndarray)
    key_columns = [keys] if rids else keys
    if type(key_columns) is not list or not key_columns \
            or type(values) is not list:
        raise StorageError("btree leaf payload is not key and value columns")
    columns = key_columns + values
    if not all(isinstance(column, np.ndarray) and column.dtype in
               (np.int64, np.float64, object) for column in columns) \
            or len(set(map(len, columns))) != 1:
        raise StorageError("btree leaf columns are not lossless arrays "
                           "of one length")
    columns = [lossless_array(column.tolist()) if column.dtype == object
               else column for column in columns]
    key_lists = [column.tolist() for column in columns[:len(key_columns)]]
    keys = key_lists[0] if rids else list(zip(*key_lists))
    return keys, Records(columns[len(key_columns):], len(keys))


def _restore_columnstore(table, desc: Dict[str, object],
                         stream: _PageStream, pool: Optional[BufferPool],
                         reader: Optional[SnapshotReader]
                         ) -> ColumnstoreIndex:
    """Rebuild one columnstore. The delta store's leaf pages, group
    pages (rids, delete bitmap, sort order, per-column metadata) and the
    side page always load now; segment pages are parsed now, or — given
    a pool and a reader — left to a pager that faults them through the
    pool."""
    index = ColumnstoreIndex(
        desc["name"], table.schema, columns=desc["columns"],
        is_primary=desc["is_primary"], rowgroup_size=desc["rowgroup_size"],
        object_id=desc["object_id"],
    )
    delta = _read_leaves(stream, desc)
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
    index.restore_side_state(delta, side["delete_buffer"])
    return index


def _load(f: BinaryIO, cost_model, pool: Optional[BufferPool] = None,
          reader: Optional[SnapshotReader] = None):
    """The one snapshot loader: walk the catalog → table → index pages
    of the snapshot open as ``f`` and rebuild the database through
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
        table.restore_counters(table_page["next_rid"],
                               table_page["modification_counter"])
        for position in range(table_page["n_indexes"]):
            desc = stream.next(PT_INDEX).payload
            max_object_id = max(max_object_id, desc["object_id"])
            if desc["kind"] == "heap":
                index = HeapFile(desc["name"], table.schema,
                                 object_id=desc["object_id"])
                index.tree = BPlusTree.from_leaves(
                    _read_leaves(stream, desc), index.tree.leaf_capacity)
            elif desc["kind"] == "btree":
                index = _restore_btree(table, desc, stream, pool, reader)
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
    if not stream.exhausted:
        raise StorageError(
            f"snapshot has {stream.size - stream.offset} trailing bytes "
            f"after page {stream.pages_read - 1}")
    database.object_ids.ensure_above(max_object_id)
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
    """Load a snapshot lazily: catalog, heaps, delta stores, clustered
    B+ rid -> key maps (read from their leaf pages), B+ fences, and
    columnstore group metadata come into memory (a B+ or columnstore
    primary keeps no row); B+ leaf pages and column segment pages stay
    on disk and are demand-loaded through ``pool`` on first touch.

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

"""ARIES-lite write-ahead log.

Every committed statement against a durable
:class:`~repro.storage.database.Database` appends one *transaction* to
the log — a BEGIN record, one OP record per logical redo operation, and
a COMMIT record — and the COMMIT is flushed (optionally fsynced) before
the statement returns. Recovery (:mod:`repro.storage.recovery`) replays
only the ops of committed transactions, in log order, skipping anything
at or below the snapshot's checkpoint LSN; there is no undo pass because
uncommitted work never reaches a snapshot — redo-only, which is what
makes replay idempotent.

Record framing (25-byte header, little-endian)::

    payload_len  I    bytes of payload following the header
    crc32        I    CRC over pack("<QQB", lsn, txn, type) + payload
    lsn          Q    log sequence number (monotonic per log)
    txn          Q    transaction (statement) id; 0 for CHECKPOINT
    type         B    BEGIN / OP / COMMIT / ABORT / CHECKPOINT

Payloads use the page codec's tagged value encoding
(:func:`repro.storage.pages.pack_value`). A reader stops at the first
frame that is truncated or fails its CRC — the *torn tail* a crash
mid-append leaves behind; everything before it is trusted, everything
after discarded, exactly ARIES' convention.

An OP payload is a dict naming its ``op`` and, for DML, its ``table``.
The multi-row ops (``bulk_insert``, ``update``, ``delete``) carry their
rows as one leaf page's columns, the encoding a ``PT_BTREE_LEAF`` page
uses (:func:`repro.storage.pages._leaf_payload`)::

    {"op": ..., "table": ..., "rows": {"keys": rid column,
                                        "values": [field 0, ...]}}

the rids one int64 array, each field one lossless array, and no value
column for a delete. Recovery decodes them as a leaf page is decoded and
refuses any other shape. A one-row ``insert`` logs ``rid`` and ``row``.

Statement scoping: ops raised by one SQL statement must be atomic in
the log even when the executor applies them through several ``Table``
calls (a multi-row INSERT calls ``insert_row`` once a row, inside one
``Table.statement`` undo scope, so memory is all-or-nothing too). The
executor wraps DML
in :meth:`WriteAheadLog.statement`; ops buffer in memory and are written
together with the COMMIT at scope exit. A crash mid-statement therefore
leaves at most a dangling BEGIN — never a partial op set — and an
organic statement failure writes an ABORT and discards the buffer.

Crash-style fault points (``wal_append``, ``wal_fsync`` — see
:data:`repro.storage.faults.CRASH_POINTS`) fire inside the append and
commit paths: ``wal_append`` leaves a genuinely torn half-frame behind
before the :class:`~repro.core.errors.ProcessAbort` sentinel unwinds,
``wal_fsync`` dies after the frames are written but before the fsync
barrier. A log that has "crashed" goes dead: every later write is a
no-op so unwinding code cannot resurrect it.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.errors import ProcessAbort, StorageError
from repro.storage.faults import FaultInjector, trip
from repro.storage.pages import pack_value, unpack_value
from repro.storage.waits import WAIT_WRITELOG

RECORD_HEADER = struct.Struct("<IIQQB")
_CRC_META = struct.Struct("<QQB")

REC_BEGIN = 1
REC_OP = 2
REC_COMMIT = 3
REC_ABORT = 4
REC_CHECKPOINT = 5

REC_NAMES = {
    REC_BEGIN: "BEGIN",
    REC_OP: "OP",
    REC_COMMIT: "COMMIT",
    REC_ABORT: "ABORT",
    REC_CHECKPOINT: "CHECKPOINT",
}

#: Sanity bound while scanning: no single record payload is ever this
#: large, so a corrupt length field cannot make the reader allocate
#: gigabytes before the CRC check rejects the frame.
_MAX_PAYLOAD = 1 << 28

WAL_FILENAME = "wal.log"
SNAPSHOT_FILENAME = "snapshot.db"
SNAPSHOT_TMP_FILENAME = "snapshot.tmp"


@dataclass
class WalRecord:
    """One decoded log record."""

    lsn: int
    txn: int
    rec_type: int
    payload: object

    def __repr__(self) -> str:
        return (f"WalRecord(lsn={self.lsn}, txn={self.txn}, "
                f"type={REC_NAMES.get(self.rec_type, self.rec_type)})")


@dataclass
class WalScan:
    """Result of reading a log file up to its first invalid frame."""

    records: List[WalRecord] = field(default_factory=list)
    #: Bytes of the file covered by valid frames; anything beyond is the
    #: torn tail.
    valid_bytes: int = 0
    total_bytes: int = 0
    torn: bool = False
    torn_reason: str = ""

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0

    @property
    def last_txn(self) -> int:
        return max((r.txn for r in self.records), default=0)

    def committed_txns(self) -> frozenset:
        return frozenset(
            r.txn for r in self.records if r.rec_type == REC_COMMIT)

    def aborted_txns(self) -> frozenset:
        return frozenset(
            r.txn for r in self.records if r.rec_type == REC_ABORT)

    def checkpoint_lsn(self) -> int:
        lsn = 0
        for record in self.records:
            if record.rec_type == REC_CHECKPOINT:
                lsn = max(lsn, record.payload.get("checkpoint_lsn", 0))
        return lsn


def read_wal(path) -> WalScan:
    """Scan a log file, stopping at the first torn or corrupt frame."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except FileNotFoundError:
        return WalScan()
    scan = WalScan(total_bytes=len(buf))
    offset = 0
    while offset < len(buf):
        if offset + RECORD_HEADER.size > len(buf):
            scan.torn = True
            scan.torn_reason = (
                f"truncated record header at byte {offset}")
            break
        payload_len, crc, lsn, txn, rec_type = RECORD_HEADER.unpack_from(
            buf, offset)
        body_start = offset + RECORD_HEADER.size
        if payload_len > _MAX_PAYLOAD:
            scan.torn = True
            scan.torn_reason = (
                f"implausible payload length {payload_len} at byte {offset}")
            break
        if body_start + payload_len > len(buf):
            scan.torn = True
            scan.torn_reason = (
                f"truncated record payload at byte {offset} "
                f"(lsn {lsn})")
            break
        body = buf[body_start:body_start + payload_len]
        meta = _CRC_META.pack(lsn, txn, rec_type)
        if zlib.crc32(body, zlib.crc32(meta)) != crc:
            scan.torn = True
            scan.torn_reason = f"CRC mismatch at byte {offset} (lsn {lsn})"
            break
        try:
            payload, consumed = unpack_value(body, 0)
            if consumed != payload_len:
                raise StorageError("trailing payload bytes")
        except StorageError as exc:
            scan.torn = True
            scan.torn_reason = (
                f"undecodable payload at byte {offset} (lsn {lsn}): {exc}")
            break
        scan.records.append(WalRecord(lsn, txn, rec_type, payload))
        offset = body_start + payload_len
        scan.valid_bytes = offset
    else:
        scan.valid_bytes = offset
    return scan


class WriteAheadLog:
    """Append-only log with statement-scoped transactions.

    Parameters
    ----------
    path:
        Log file; created if absent, appended to otherwise (callers are
        responsible for truncating a torn tail first — recovery does).
    fsync:
        Whether COMMIT forces an ``os.fsync``. Off by default: a flushed
        write survives process death (the crash model the harness
        tests); fsync additionally survives OS/power loss.
    faults:
        Fault injector whose crash-style points fire in the append and
        commit paths.
    start_lsn / start_txn:
        Continuation points when appending to an existing log.
    waits:
        Optional :class:`~repro.storage.waits.WaitStatsCollector`; every
        log flush records its wall time as a ``WRITELOG`` wait — the
        latency a committing statement spends making itself durable.
    """

    def __init__(self, path, fsync: bool = False,
                 faults: Optional[FaultInjector] = None,
                 start_lsn: int = 0, start_txn: int = 0, waits=None):
        self.path = str(path)
        self.fsync_enabled = fsync
        self.faults = faults
        self.waits = waits
        self._file = open(self.path, "ab")
        self._lock = threading.RLock()
        self._next_lsn = start_lsn + 1
        self._next_txn = start_txn + 1
        self._buffers: Dict[int, List[dict]] = {}
        self._local = threading.local()
        self._dead = False
        #: Lifetime flush/fsync counts, surfaced as informational rows
        #: of ``dm_os_wait_stats`` (``WAL_FLUSH``/``WAL_FSYNC``).
        self.flushes = 0
        self.fsyncs = 0

    # ------------------------------------------------------------- state
    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record."""
        return self._next_lsn - 1

    @property
    def dead(self) -> bool:
        """Whether a simulated crash has killed this log."""
        return self._dead

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    # ----------------------------------------------------------- appends
    def _append(self, rec_type: int, txn: int, payload: dict) -> int:
        """Write one frame (caller holds the lock). Returns its LSN."""
        if self._dead:
            return -1
        body = bytearray()
        pack_value(payload, body)
        lsn = self._next_lsn
        self._next_lsn += 1
        meta = _CRC_META.pack(lsn, txn, rec_type)
        crc = zlib.crc32(body, zlib.crc32(meta))
        frame = RECORD_HEADER.pack(len(body), crc, lsn, txn, rec_type) + body
        try:
            trip(self.faults, "wal_append")
        except ProcessAbort:
            # Die mid-write: leave a torn half-frame, like a power cut.
            self._dead = True
            self._file.write(frame[:max(1, len(frame) // 2)])
            self._file.flush()
            raise
        self._file.write(frame)
        return lsn

    def _flush(self) -> None:
        started = time.perf_counter()
        self._file.flush()
        try:
            trip(self.faults, "wal_fsync")
        except ProcessAbort:
            self._dead = True
            raise
        if self.fsync_enabled:
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self.flushes += 1
        if self.waits is not None:
            self.waits.record(WAIT_WRITELOG,
                              (time.perf_counter() - started) * 1000.0)

    # ------------------------------------------------------ transactions
    def begin(self) -> int:
        """Open a transaction: write its BEGIN, allocate its op buffer."""
        with self._lock:
            txn = self._next_txn
            self._next_txn += 1
            self._buffers[txn] = []
            self._append(REC_BEGIN, txn, {})
            return txn

    def log_op(self, txn: int, op: dict) -> None:
        """Buffer one redo op for ``txn`` (written at commit)."""
        with self._lock:
            self._buffers[txn].append(op)

    def commit(self, txn: int) -> None:
        """Write the buffered ops + COMMIT, then flush/fsync.

        The statement is durable when this returns. On a dead (crashed)
        log this raises :class:`~repro.core.errors.ProcessAbort` instead
        of returning: a commit that cannot reach the log must never
        report success, or a concurrent session would acknowledge a
        statement that recovery cannot replay."""
        with self._lock:
            ops = self._buffers.pop(txn, [])
            if self._dead:
                raise ProcessAbort("wal_dead", 0)
            for op in ops:
                self._append(REC_OP, txn, op)
            self._append(REC_COMMIT, txn, {})
            self._flush()

    def abort(self, txn: int) -> None:
        """Discard the buffered ops and write an ABORT marker."""
        with self._lock:
            self._buffers.pop(txn, None)
            if self._dead:
                return
            self._append(REC_ABORT, txn, {})
            self._file.flush()

    # ------------------------------------------------- statement scoping
    @property
    def in_statement(self) -> bool:
        """Whether this thread currently has an open statement scope."""
        return getattr(self._local, "txn", None) is not None

    @contextmanager
    def statement(self):
        """Scope every op logged by this thread into one transaction.

        Nested scopes join the outer transaction (the outermost commit
        wins), so a compound executor path stays one atomic unit."""
        if self.in_statement:
            yield
            return
        txn = self.begin()
        self._local.txn = txn
        try:
            yield
        except BaseException:
            self._local.txn = None
            self.abort(txn)
            raise
        else:
            self._local.txn = None
            self.commit(txn)

    def log_ops(self, ops: Sequence[dict]) -> None:
        """Log redo ops for the current statement.

        Inside a :meth:`statement` scope they buffer into its
        transaction; outside one they become their own immediately
        committed transaction (direct ``Table`` API calls)."""
        if not ops:
            return
        txn = getattr(self._local, "txn", None)
        if txn is not None:
            with self._lock:
                self._buffers[txn].extend(ops)
            return
        txn = self.begin()
        for op in ops:
            self.log_op(txn, op)
        self.commit(txn)

    # -------------------------------------------------------- checkpoint
    def checkpoint(self, checkpoint_lsn: int) -> None:
        """Reset the log after a published snapshot.

        The snapshot already covers every record, so the file is
        truncated and re-seeded with a CHECKPOINT record naming the
        snapshot's LSN. A crash between the snapshot rename and this
        truncation is safe: stale records all have
        ``lsn <= checkpoint_lsn`` and redo skips them."""
        with self._lock:
            if self._dead:
                return
            self._file.flush()
            self._file.truncate(0)
            self._append(REC_CHECKPOINT, 0,
                         {"checkpoint_lsn": checkpoint_lsn})
            self._flush()

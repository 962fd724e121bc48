"""Crash recovery: analysis + redo replay from the last checkpoint.

Recovery restores a durable database directory to exactly the committed
prefix of its history:

1. **Load** the last published snapshot (``snapshot.db``), validating
   every page checksum. A missing snapshot means recovery starts from an
   empty database (the WAL then carries the DDL too). A *corrupt*
   snapshot is unrecoverable — the atomic temp-file + rename publish
   protocol guarantees the published file is never torn, so corruption
   here means real damage, not a crash artifact.
2. **Analyze** the WAL (``wal.log``): scan to the first torn/corrupt
   frame (everything after is the discarded tail a crash left), and
   collect the set of transactions with a COMMIT record.
3. **Redo** the ops of committed transactions in log order, skipping
   records at or below the snapshot's checkpoint LSN. Redo is *logical*
   per index kind — inserts force their logged rid, deletes/updates ride
   the normal ``Table`` paths, DDL and explicit maintenance re-run the
   original operation — and **idempotent**: recovering the same
   directory twice yields byte-identical states (compare
   :func:`state_digest`), because replay is a pure function of
   (snapshot, committed WAL prefix).
4. **Verify**: run :func:`~repro.storage.checker.check_database` and
   fold the result into the :class:`RecoveryReport`.

There is no undo pass: uncommitted statements buffer their ops in
memory (see :mod:`repro.storage.wal`) and never reach the log, and
snapshots are only taken at quiesced checkpoints, so nothing
uncommitted can be durable.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.errors import RecoveryError, ReproError
from repro.storage.checker import check_database
from repro.storage.pages import (
    load_snapshot_paged,
    snapshot_bytes,
    _schema_from_payload,
)
from repro.storage.wal import (
    REC_OP,
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    WalScan,
    read_wal,
)


@dataclass
class RecoveryReport:
    """Everything recovery learned, for the CLI and the crash harness."""

    data_dir: str
    snapshot_found: bool = False
    snapshot_pages: int = 0
    checkpoint_lsn: int = 0
    wal_found: bool = False
    wal_records: int = 0
    wal_valid_bytes: int = 0
    wal_total_bytes: int = 0
    torn_tail: bool = False
    torn_reason: str = ""
    txns_committed: int = 0
    txns_aborted: int = 0
    txns_open: int = 0
    ops_replayed: int = 0
    ops_skipped: int = 0
    last_lsn: int = 0
    last_txn: int = 0
    check_ok: bool = False
    check_findings: List[str] = field(default_factory=list)
    #: "full" when check_database ran during recovery; "deferred" when a
    #: paged open with nothing to redo skipped it so the lazy open stays
    #: lazy (the checker would fault every deferred page in).
    check_mode: str = "full"

    def as_dict(self) -> Dict[str, object]:
        return {
            "data_dir": self.data_dir,
            "snapshot_found": self.snapshot_found,
            "snapshot_pages": self.snapshot_pages,
            "checkpoint_lsn": self.checkpoint_lsn,
            "wal_found": self.wal_found,
            "wal_records": self.wal_records,
            "wal_valid_bytes": self.wal_valid_bytes,
            "wal_total_bytes": self.wal_total_bytes,
            "torn_tail": self.torn_tail,
            "torn_reason": self.torn_reason,
            "txns_committed": self.txns_committed,
            "txns_aborted": self.txns_aborted,
            "txns_open": self.txns_open,
            "ops_replayed": self.ops_replayed,
            "ops_skipped": self.ops_skipped,
            "last_lsn": self.last_lsn,
            "last_txn": self.last_txn,
            "check_ok": self.check_ok,
            "check_findings": list(self.check_findings),
            "check_mode": self.check_mode,
        }

    def summary(self) -> str:
        lines = [
            f"recovery of {self.data_dir}",
            (f"  snapshot: "
             + (f"{self.snapshot_pages} pages, checkpoint LSN "
                f"{self.checkpoint_lsn}" if self.snapshot_found
                else "none (starting empty)")),
            (f"  wal: "
             + (f"{self.wal_records} records in {self.wal_valid_bytes}/"
                f"{self.wal_total_bytes} valid bytes" if self.wal_found
                else "none")),
        ]
        if self.torn_tail:
            lines.append(f"  torn tail discarded: {self.torn_reason}")
        lines.append(
            f"  transactions: {self.txns_committed} committed, "
            f"{self.txns_aborted} aborted, {self.txns_open} open "
            "(discarded)")
        lines.append(
            f"  redo: {self.ops_replayed} ops replayed, "
            f"{self.ops_skipped} skipped (<= checkpoint LSN)")
        lines.append(
            "  consistency check: "
            + ("clean" if self.check_ok
               else f"{len(self.check_findings)} finding(s)"))
        for finding in self.check_findings[:10]:
            lines.append(f"    - {finding}")
        return "\n".join(lines)


# --------------------------------------------------------------- redo ops

_MAINTENANCE_KINDS = ("tuple_move", "rebuild", "reorganize", "compact")


def _apply_op(database, op: Dict[str, object]) -> None:
    """Replay one logical redo op against the recovering database."""
    kind = op.get("op")
    if kind == "create_table":
        database.create_table(
            _schema_from_payload(op["name"], op["schema"]))
        return
    if kind == "drop_table":
        database.drop_table(op["name"])
        return
    table = database.table(op["table"])
    if kind == "insert":
        if table.has_rid(op["rid"]):
            raise RecoveryError(
                f"redo insert: rid {op['rid']} already live in table "
                f"{table.name!r}")
        table.redo_insert([op["rid"]], [op["row"]])
    elif kind == "bulk_insert":
        table.redo_insert(op["rids"], op["rows"])
    elif kind == "delete":
        table.delete_rids(op["rids"])
    elif kind == "update":
        table.update_rids([(rid, tuple(row)) for rid, row in op["updates"]])
    elif kind == "set_primary_btree":
        table.set_primary_btree(op["key_columns"], name=op["name"])
    elif kind == "set_primary_columnstore":
        index = table.set_primary_columnstore(
            name=op["name"], rowgroup_size=op["rowgroup_size"],
            presorted=op["presorted"])
        # Replay must reproduce the original object id (it is part of
        # the snapshot digest); forcing it right after the build is
        # safe — no pool frame is keyed by it yet.
        index.object_id = op.get("object_id", index.object_id)
    elif kind == "set_primary_heap":
        table.set_primary_heap()
    elif kind == "create_secondary_btree":
        table.create_secondary_btree(
            op["name"], op["key_columns"],
            included_columns=op["included_columns"])
    elif kind == "create_secondary_columnstore":
        index = table.create_secondary_columnstore(
            op["name"], columns=op["columns"],
            rowgroup_size=op["rowgroup_size"], sorted_on=op["sorted_on"],
            allow_multiple=op["allow_multiple"])
        index.object_id = op.get("object_id", index.object_id)
    elif kind == "drop_index":
        table.drop_index(op["name"])
    elif kind == "drop_all_secondary_indexes":
        table.drop_all_secondary_indexes()
    elif kind == "maintenance":
        if op["kind"] not in _MAINTENANCE_KINDS:
            raise RecoveryError(
                f"unknown maintenance op {op['kind']!r} in WAL")
        index = table.index_by_name(op["index"])
        if op["kind"] == "tuple_move":
            index.move_tuples()
        elif op["kind"] == "rebuild":
            index.rebuild()
        elif op["kind"] == "reorganize":
            index.reorganize()
        else:
            index.compact_delete_buffer()
    else:
        raise RecoveryError(f"unknown redo op {kind!r} in WAL")


# ---------------------------------------------------------------- recover

def recover(data_dir, cost_model=None, buffer_pool=None):
    """Recover a durable database directory.

    Returns ``(database, report)``. The returned database has no WAL
    attached (pure in-memory result) — :meth:`Database.open` is the
    entry point that also reattaches the log for continued service.

    With ``buffer_pool`` set the snapshot is opened lazily
    (:func:`load_snapshot_paged`): B+ leaf pages and columnstore segment
    pages stay on disk and fault in through the pool on first touch.
    Redo forces residency naturally — every replayed op runs through the
    normal mutation paths, which materialize the structures they touch —
    and when there was nothing to redo the full consistency check is
    deferred (``report.check_mode == "deferred"``) so a lazy open does
    not fault every page in; callers can still run
    :func:`~repro.storage.checker.check_database` explicitly.

    Raises :class:`~repro.core.errors.RecoveryError` when the directory
    cannot be restored at all (corrupt snapshot, redo against a missing
    object, undecodable op). Checker findings do *not* raise: they are
    reported via ``report.check_ok`` / ``report.check_findings`` so
    callers can gate on them (the CLI exits 1).
    """
    from repro.engine.costs import DEFAULT_COST_MODEL
    from repro.storage.database import Database

    data_dir = str(data_dir)
    report = RecoveryReport(data_dir=data_dir)
    snapshot_path = os.path.join(data_dir, SNAPSHOT_FILENAME)
    reader = None
    if os.path.exists(snapshot_path):
        try:
            database, meta, reader = load_snapshot_paged(
                snapshot_path, buffer_pool, cost_model=cost_model)
        except ReproError as exc:
            raise RecoveryError(
                f"snapshot {snapshot_path} is unrecoverable: {exc}"
            ) from exc
        report.snapshot_found = True
        report.snapshot_pages = meta["pages_read"]
        report.checkpoint_lsn = meta["checkpoint_lsn"]
    else:
        database = Database(
            cost_model=cost_model or DEFAULT_COST_MODEL)
    database.buffer_pool = buffer_pool
    database._snapshot_reader = reader
    try:
        _redo_and_check(database, report, paged=reader is not None)
    except BaseException:
        database.close()
        raise
    return database, report


def _redo_and_check(database, report: RecoveryReport, paged: bool) -> None:
    """Steps 2–4 of recovery over a loaded (or empty) database."""
    data_dir = report.data_dir
    wal_path = os.path.join(data_dir, WAL_FILENAME)
    scan: WalScan = read_wal(wal_path)
    report.wal_found = os.path.exists(wal_path)
    report.wal_records = len(scan.records)
    report.wal_valid_bytes = scan.valid_bytes
    report.wal_total_bytes = scan.total_bytes
    report.torn_tail = scan.torn
    report.torn_reason = scan.torn_reason
    report.checkpoint_lsn = max(report.checkpoint_lsn,
                                scan.checkpoint_lsn())
    report.last_lsn = max(scan.last_lsn, report.checkpoint_lsn)
    report.last_txn = scan.last_txn

    committed = scan.committed_txns()
    aborted = scan.aborted_txns()
    seen = {r.txn for r in scan.records if r.txn != 0}
    report.txns_committed = len(committed)
    report.txns_aborted = len(aborted)
    report.txns_open = len(seen - committed - aborted)

    for record in scan.records:
        if record.rec_type != REC_OP or record.txn not in committed:
            continue
        if record.lsn <= report.checkpoint_lsn:
            report.ops_skipped += 1
            continue
        try:
            _apply_op(database, record.payload)
        except RecoveryError:
            raise
        except ReproError as exc:
            raise RecoveryError(
                f"redo failed at lsn {record.lsn} "
                f"({record.payload.get('op')!r}): {exc}") from exc
        report.ops_replayed += 1

    # Ids forced by replayed DDL may exceed what the snapshot loader
    # reserved; indexes built *after* recovery must not collide.
    from repro.storage.columnstore import ensure_object_ids_above
    ensure_object_ids_above(max(
        (index.object_id for table in database.tables()
         for index in table.all_indexes), default=0))

    if paged and report.ops_replayed == 0:
        # A clean paged open has nothing to verify beyond what the page
        # checksums already guarantee at fault time; running the full
        # checker here would materialize every deferred page and defeat
        # the lazy open. The differential suite exercises the explicit
        # check_database path on paged databases.
        report.check_ok = True
        report.check_mode = "deferred"
    else:
        result = check_database(database)
        report.check_ok = result.ok
        report.check_findings = list(result.errors)
    return database, report


def state_digest(database) -> str:
    """SHA-256 of the database's deterministic snapshot serialization.

    Two databases with identical logical + physical state produce equal
    digests — the yardstick for recovery idempotence ("replaying twice
    yields identical state")."""
    return hashlib.sha256(snapshot_bytes(database)).hexdigest()

"""CHECKDB-style consistency checker.

DBCC CHECKDB is SQL Server's answer to "did that crash corrupt
anything?"; this module is the repro engine's equivalent. A table's
primary structure is the table, the one copy of each row, so
:func:`check_table` first checks the primary's own consistency and then
cross-verifies every secondary index against the primary's rows:

* the primary is structurally sound: a heap's and a B+ tree's ordering
  and chain invariants, a clustered B+ tree's keys agree with its rows
  and its rid -> key map with its leaves, and no rid reaches the
  table's ``next_rid``,
* every secondary holds exactly the primary's rid set with the right
  values (no lost rows, no orphans, no stale versions),
* columnstores are structurally sound — rid locators match stored
  positions, delete bitmaps agree with their counters, delete buffers
  only mask compressed copies, delta-store shadows are properly paired
  with buffered deletes, and segment min/max metadata matches the
  decoded values (a wrong min/max would silently *eliminate* live data).

The fault-injection tests (``tests/test_faults.py``) lean on this: after
every injected failure the database must either contain the fully
applied statement or none of it, and ``check_database`` must come back
clean.

Run it from the command line with ``python -m repro check``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import StorageError
from repro.storage.btree import (PrimaryBTreeIndex, SecondaryBTreeIndex,
                                 iter_entries)
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.compression import _segment_min_max
from repro.storage.database import Database
from repro.storage.heap import HeapFile
from repro.storage.table import Table

Row = Tuple[object, ...]


@dataclass
class CheckResult:
    """Outcome of a consistency check: a flat list of findings."""

    errors: List[str] = field(default_factory=list)
    checked_tables: int = 0
    checked_indexes: int = 0

    @property
    def ok(self) -> bool:
        """True when no inconsistency was found."""
        return not self.errors

    def add(self, message: str) -> None:
        """Record one finding."""
        self.errors.append(message)

    def merge(self, other: "CheckResult") -> None:
        """Fold another result into this one."""
        self.errors.extend(other.errors)
        self.checked_tables += other.checked_tables
        self.checked_indexes += other.checked_indexes

    def raise_if_failed(self) -> None:
        """Raise :class:`StorageError` summarising every finding."""
        if self.errors:
            raise StorageError(
                f"consistency check failed with {len(self.errors)} "
                "error(s):\n  " + "\n  ".join(self.errors))

    def summary(self) -> str:
        """One-paragraph human-readable outcome."""
        status = "OK" if self.ok else f"{len(self.errors)} error(s)"
        lines = [
            f"checked {self.checked_tables} table(s), "
            f"{self.checked_indexes} index(es): {status}"
        ]
        lines.extend(f"  {err}" for err in self.errors)
        return "\n".join(lines)


def _values_equal(a: object, b: object) -> bool:
    """Equality that treats NaN == NaN (NULLs in numeric columns are
    stored as NaN by the batch layer)."""
    if a == b:
        return True
    try:
        return a != a and b != b  # both NaN
    except Exception:
        return False


def _rows_equal(a: Row, b: Row) -> bool:
    return len(a) == len(b) and all(
        _values_equal(x, y) for x, y in zip(a, b))


def check_table(table: Table) -> CheckResult:
    """Check the primary structure of ``table``, then every secondary
    index against the primary's rows."""
    result = CheckResult(checked_tables=1, checked_indexes=1)
    primary = table.primary
    label = f"{table.name}.{primary.name}"
    if isinstance(primary, HeapFile):
        rows = _heap_rows(primary, label, result)
    elif isinstance(primary, PrimaryBTreeIndex):
        rows = _primary_btree_rows(primary, label, result)
    elif isinstance(primary, ColumnstoreIndex):
        rows = _check_columnstore(primary, label, result)
    else:  # pragma: no cover - future structure kinds
        result.add(f"{label}: unknown structure kind {primary!r}")
        return result
    if rows is None:
        return result   # the primary is unreadable: nothing to compare
    for rid in rows:
        if rid >= table._next_rid:
            result.add(f"{table.name}: orphan rid {rid} >= next_rid "
                       f"{table._next_rid}")
    source = f"{primary.kind} {primary.name}"
    for structure in table.secondary_indexes.values():
        result.checked_indexes += 1
        label = f"{table.name}.{structure.name}"
        if isinstance(structure, SecondaryBTreeIndex):
            _check_secondary_btree(structure, rows, source, label, result)
        elif isinstance(structure, ColumnstoreIndex):
            live = _check_columnstore(structure, label, result)
            _compare_live(structure, live, rows, source, label, result)
        else:  # pragma: no cover - future structure kinds
            result.add(f"{label}: unknown structure kind {structure!r}")
    return result


def check_database(db: Database) -> CheckResult:
    """Run :func:`check_table` over every table in the database."""
    result = CheckResult()
    for table in db:
        result.merge(check_table(table))
    return result


# ------------------------------------------------------------ primaries
def _tree_sound(tree, label: str, result: CheckResult) -> bool:
    try:
        tree.check_invariants()
    except StorageError as exc:
        result.add(f"{label}: tree invariant violated: {exc}")
        return False
    return True


def _heap_rows(heap: HeapFile, label: str,
               result: CheckResult) -> Optional[Dict[int, Row]]:
    """The heap's rows by rid; None when its tree is broken."""
    if _tree_sound(heap.tree, label, result):
        return dict(iter_entries(heap.scan()))
    return None


def _primary_btree_rows(index: PrimaryBTreeIndex, label: str,
                        result: CheckResult) -> Optional[Dict[int, Row]]:
    """The clustered index's rows by rid, each checked against the key it
    is stored under and the rid -> key map; None when the tree is
    broken."""
    rid_keys = index.rid_keys   # as it stands, before ``tree`` may page in
    if not _tree_sound(index.tree, label, result):
        return None
    rows: Dict[int, Row] = {}
    for key, row in index.tree.items():
        rid = key[-1]
        if rid in rows:
            result.add(f"{label}: rid {rid} appears twice")
            continue
        rows[rid] = row
        expected_key = tuple(row[i] for i in index.key_ordinals)
        if not _rows_equal(key[:-1], expected_key):
            result.add(f"{label}: rid {rid} stored under stale key {key[:-1]!r}")
        mapped = rid_keys[rid] if 0 <= rid < len(rid_keys) else None
        if mapped is None or not _rows_equal(mapped, key):
            result.add(f"{label}: rid {rid} maps to key {mapped!r}, "
                       f"stored under {key!r}")
    for rid, key in enumerate(rid_keys):
        if key is not None and rid not in rows:
            result.add(f"{label}: rid {rid} maps to key {key!r}, "
                       "which holds no row")
    return rows


# ----------------------------------------------------------- secondaries
def _check_secondary_btree(index: SecondaryBTreeIndex, rows: Dict[int, Row],
                           source: str, label: str,
                           result: CheckResult) -> None:
    if not _tree_sound(index.tree, label, result):
        return
    seen = set()
    for key, payload in index.tree.items():
        rid = key[-1]
        if rid in seen:
            result.add(f"{label}: rid {rid} appears twice")
            continue
        seen.add(rid)
        expected = rows.get(rid)
        if expected is None:
            result.add(f"{label}: rid {rid} missing from {source}")
            continue
        expected_key = tuple(expected[i] for i in index.key_ordinals)
        if not _rows_equal(key[:-1], expected_key):
            result.add(f"{label}: rid {rid} row mismatch: stored under "
                       f"stale key {key[:-1]!r}")
        expected_payload = tuple(expected[i] for i in index.included_ordinals)
        if not _rows_equal(payload, expected_payload):
            result.add(f"{label}: rid {rid} included-column mismatch")
    for rid in rows.keys() - seen:
        result.add(f"{label}: rid {rid} missing from index")


# ---------------------------------------------------------- columnstores
def _check_columnstore(index: ColumnstoreIndex, label: str,
                       result: CheckResult) -> Dict[int, Row]:
    """Check a columnstore's structure; returns its live values by rid
    (in ``index.columns`` order)."""
    # --- structural: rid locators point exactly at their stored slots.
    for rid, (gi, pos) in index._rid_location.items():
        if gi >= len(index._groups):
            result.add(f"{label}: rid {rid} locator group {gi} out of range")
            continue
        group = index._groups[gi].group
        if pos >= group.n_rows or group.rids[pos] != rid:
            result.add(f"{label}: rid {rid} locator ({gi},{pos}) does not "
                       "match stored rid")

    # --- per-group: bitmap counters and segment metadata.
    for gi, state in enumerate(index._groups):
        group = state.group
        if state.n_deleted != int(state.deleted_mask.sum()):
            result.add(f"{label}: group {gi} n_deleted {state.n_deleted} != "
                       f"bitmap popcount {int(state.deleted_mask.sum())}")
        for name in index.columns:
            segment = group.column(name)
            decoded = segment.decode()
            if len(decoded) != group.n_rows:
                result.add(f"{label}: group {gi} segment {name!r} decodes to "
                           f"{len(decoded)} rows, expected {group.n_rows}")
                continue
            if group.n_rows:
                lo, hi = _segment_min_max(decoded)
                if not (_values_equal(segment.min_value, lo)
                        and _values_equal(segment.max_value, hi)):
                    result.add(
                        f"{label}: group {gi} segment {name!r} min/max "
                        f"metadata ({segment.min_value!r}, "
                        f"{segment.max_value!r}) != decoded ({lo!r}, {hi!r})")
        for pos, rid in enumerate(group.rids.tolist()):
            located = index._rid_location.get(rid)
            if state.deleted_mask[pos]:
                if located == (gi, pos):
                    result.add(f"{label}: rid {rid} locator points at "
                               f"bitmap-deleted slot ({gi},{pos})")
            elif located != (gi, pos):
                result.add(f"{label}: live slot ({gi},{pos}) rid {rid} "
                           f"has locator {located!r}")

    # --- the delta store: a rid-keyed tree, as a heap is.
    try:
        index._delta.check_invariants()
    except StorageError as exc:
        result.add(f"{label}: delta store tree invariant violated: {exc}")
    delta = dict(index._delta.items())
    for rid in delta:
        if type(rid) is not int:
            result.add(f"{label}: delta store key {rid!r} is not an int rid")

    # --- delete buffer / delta-store shadow pairing.
    if index.is_primary and index._delete_buffer:
        result.add(f"{label}: primary columnstore has a nonempty "
                   "delete buffer")
    for rid in index._delete_buffer:
        if rid not in index._rid_location:
            result.add(f"{label}: buffered delete for rid {rid} masks no "
                       "compressed copy")
    for rid in delta.keys() & index._rid_location.keys():
        if index.is_primary or rid not in index._delete_buffer:
            result.add(f"{label}: rid {rid} live in both delta store and "
                       "a compressed group")

    # --- the live view must equal the table's rows exactly.
    live: Dict[int, Row] = {}
    for gi, state in enumerate(index._groups):
        group = state.group
        decoded = {name: group.column(name).decode().tolist()
                   for name in index.columns}
        for pos, rid in enumerate(group.rids.tolist()):
            if state.deleted_mask[pos]:
                continue
            if not index.is_primary and rid in index._delete_buffer:
                continue
            if rid in live:
                result.add(f"{label}: rid {rid} live in two row groups")
                continue
            live[rid] = tuple(decoded[name][pos] for name in index.columns)
    for rid, values in delta.items():
        if rid in live:
            result.add(f"{label}: rid {rid} live in both delta store and "
                       "a compressed group")
            continue
        live[rid] = tuple(values)
    if index.n_rows != len(live):
        result.add(f"{label}: n_rows {index.n_rows} != live rows {len(live)}")
    return live


def _compare_live(index: ColumnstoreIndex, live: Dict[int, Row],
                  rows: Dict[int, Row], source: str, label: str,
                  result: CheckResult) -> None:
    """A secondary columnstore's live values against the primary's rows."""
    for rid in live.keys() - rows.keys():
        result.add(f"{label}: rid {rid} missing from {source}")
    for rid in rows.keys() - live.keys():
        result.add(f"{label}: rid {rid} missing from columnstore")
    for rid in live.keys() & rows.keys():
        expected = tuple(rows[rid][i] for i in index._column_ordinals)
        if not _rows_equal(live[rid], expected):
            result.add(f"{label}: rid {rid} value mismatch "
                       f"({live[rid]!r} != {expected!r})")

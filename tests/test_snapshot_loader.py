"""The snapshot loader: one load path behind two entry points.

``load_snapshot`` (path or bytes) and ``load_snapshot_paged`` (path +
pool) walk the same page stream and rebuild every structure through its
own restore interface. What they produce, and how they fail, is pinned
against a recording made from the two separate loaders they replaced
(``tests/data/snapshot_loader_expected.json``):

(a) over the five corpus databases plus one built to hold every side
    state, the three loads give the source's ``state_digest``, equal
    ``meta``, the recorded index classes / sizes / residency and
    recovery reports, a paged open that has faulted nothing, and equal
    rows and ``QueryMetrics`` for one statement list in both modes;
(b) every single-field flip of every page, every truncation around a
    page boundary and trailing bytes end in the recorded outcome per
    entry point — a typed error at open, or for a damaged deferred page
    a clean paged open and the typed error at first touch, with nothing
    left pinned and the other tables still answering;
(c) a snapshot written before the paged format still loads eagerly and
    is refused, with the recorded message, by the paged open;
(d) the format keeps one copy of each row: every tree of ``Records``
    leaves (heap, clustered and secondary B+, delta store) is written
    once, as its own run of leaf pages; eager and paged opens give the
    source's ``state_digest``, a paged clustered table answers every rid
    as an eager one does, and a page of format version 1 or 2 is
    refused.

Then the two defects the merge fixed or made fixable: a reopened heap
keeps its high-water rid, and a database can be closed — N paged opens
and one failed recovery leave the descriptor count where it started.

Re-record (only when an outcome changes on purpose) against the commit
to compare with: ``PYTHONPATH=<that commit>/src:. python
tests/test_snapshot_loader.py``. Format version 2 moved every page
boundary, so its corruption section, page counts and reports'
``snapshot_pages`` were re-recorded from its own loader; every query
result hash stayed as recorded. Format version 3 writes leaf pages as
columns, which moved the page boundaries again: only the corruption
section was re-recorded, and every entry in it that changed differs in
a byte offset, a length or the version number, except that a flipped
low bit of the last page's length now makes it one byte longer (a
truncation) rather than one byte shorter (a checksum mismatch).
"""

import dataclasses
import hashlib
import json
import os
import shutil
import struct
import sys
import zlib

import pytest

from repro.core.errors import RecoveryError, ReproError, StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import INT, varchar
from repro.engine.batch import batch_to_rows
from repro.engine.executor import Executor
from repro.storage.bufferpool import BufferPool
from repro.storage.btree import iter_entries
from repro.storage.checker import check_database
from repro.storage.columnstore import ColumnstoreIndex
from repro.storage.database import Database
from repro.storage.faults import InjectedFault
from repro.storage.heap import HeapFile
from repro.storage.pages import (
    PAGE_HEADER,
    PAGE_MAGIC,
    PT_BTREE_LEAF,
    PT_INDEX,
    SnapshotReader,
    _leaf_chunk,
    build_page,
    load_snapshot,
    load_snapshot_paged,
    parse_page,
    snapshot_bytes,
)
from repro.storage.recovery import recover, state_digest
from repro.storage.wal import SNAPSHOT_FILENAME
from tests.sql_corpus import runnable_workloads

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "data",
                             "snapshot_loader_expected.json")
POOL_BYTES = 1 << 20


def expected():
    with open(EXPECTED_PATH) as source:
        return json.load(source)


def publish(database, directory) -> str:
    """Write ``database``'s snapshot into ``directory`` without touching
    the database (``save`` would emit a checkpoint event on a corpus
    database other suites share)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, SNAPSHOT_FILENAME)
    with open(path, "wb") as out:
        out.write(snapshot_bytes(database))
    return path


def close(database) -> None:
    """What ``Database.close`` does, spelled out so the recording can be
    made from a commit that predates it."""
    if database.wal is not None:
        database.wal.close()
    if database._snapshot_reader is not None:
        database._snapshot_reader.close()


# ===================================================== the databases

def _table(database, name):
    return database.create_table(TableSchema(name, [
        Column("k", INT, nullable=False),
        Column("a", INT),
        Column("s", varchar(8)),
    ]))


def _rows(n, start=0):
    return [(i, (i * 7) % 11 if i % 5 else None, f"s{i % 3}")
            for i in range(start, start + n)]


def side_state_database(directory) -> Database:
    """Every structure and every side state a snapshot can carry, made
    durable in ``directory`` with a WAL tail left to redo."""
    database = Database("sides")
    heap = _table(database, "h")        # heap + B+ + CSI with a buffer
    heap.bulk_load(_rows(300))
    heap.create_secondary_btree("ix_h_a", ["k"], included_columns=["a"])
    heap.create_secondary_columnstore("csi_h", rowgroup_size=64)
    btree = _table(database, "b")       # B+ + covering B+ + sorted CSI
    btree.bulk_load(_rows(500))
    btree.set_primary_btree(["k"])
    btree.create_secondary_btree("ix_b_s", ["s"], included_columns=["a"])
    btree.create_secondary_columnstore("csi_b_sorted", columns=["k", "a"],
                                       rowgroup_size=128, sorted_on="a")
    csi = _table(database, "c")         # primary CSI: bitmap + delta
    csi.bulk_load(_rows(400))
    csi.set_primary_columnstore(rowgroup_size=128)
    _table(database, "e")               # nothing at all
    empty = _table(database, "eb")      # empty B+ trees
    empty.set_primary_btree(["k"])
    empty.create_secondary_btree("ix_eb_a", ["a"])
    executor = Executor(database)
    for name in ("h", "b", "c"):
        executor.execute(f"DELETE FROM {name} WHERE k BETWEEN 10 AND 29")
        executor.execute(f"UPDATE {name} SET a = 99 WHERE k BETWEEN 40 AND 49")
        executor.execute(f"INSERT INTO {name} VALUES (1000, 1, 'new')")
    database.enable_durability(directory)
    for name in ("h", "b", "c"):       # the WAL tail
        executor.execute(f"INSERT INTO {name} VALUES (1001, 2, 'tail')")
        executor.execute(f"DELETE FROM {name} WHERE k = 77")
    close(database)
    return database


SIDE_STATE_STATEMENTS = tuple(
    sql.format(t=name) for name in ("h", "b", "c", "e", "eb") for sql in (
        "SELECT k, a, s FROM {t}",
        "SELECT k FROM {t} WHERE k = 45",
        "SELECT k, a FROM {t} WHERE k BETWEEN 5 AND 60",
        "SELECT s, COUNT(*), SUM(a) FROM {t} GROUP BY s",
        "SELECT TOP 7 k, a FROM {t} WHERE a > 3 ORDER BY a, k",
        "INSERT INTO {t} VALUES (2000, 5, 'x')",
        "UPDATE {t} SET a = a + 1 WHERE k BETWEEN 100 AND 140",
        "DELETE FROM {t} WHERE k BETWEEN 200 AND 220",
        "SELECT COUNT(*), MIN(k), MAX(k), SUM(a) FROM {t}",
    ))


def small_database() -> Database:
    """Twenty pages: every page type, small enough to damage each."""
    database = Database("small")
    t = _table(database, "t")
    t.bulk_load(_rows(40))
    t.set_primary_btree(["k"])
    t.create_secondary_btree("ix_t_a", ["s"])
    u = _table(database, "u")
    u.bulk_load(_rows(100))
    u.set_primary_columnstore(rowgroup_size=64)
    executor = Executor(database)
    executor.execute("DELETE FROM u WHERE k = 3")
    executor.execute("INSERT INTO u VALUES (500, 1, 'd')")
    h = _table(database, "h")
    h.bulk_load(_rows(5))
    return database


def load_cases():
    cases = [(name, build, statements)
             for name, build, statements in runnable_workloads()]
    cases.append(("side_state", None, SIDE_STATE_STATEMENTS))
    return cases


# ================================================ (a) what a load gives

def describe_indexes(database):
    """[table, index, class, rows, paged] per index, in catalog order."""
    out = []
    for table in database.tables():
        for index in table.all_indexes:
            if isinstance(index, ColumnstoreIndex):
                size = index.n_rows
                paged = any(s.group.is_paged for s in index._groups)
            else:
                size = len(index)
                paged = getattr(index, "is_paged", False)
            out.append([table.name, index.name, type(index).__name__, size,
                        bool(paged)])
    return out


def object_ids(database):
    return [index.object_id for table in database.tables()
            for index in table.all_indexes]


def run_statements(database, statements):
    """[rows, QueryMetrics] per statement, JSON-shaped."""
    executor = Executor(database)
    out = []
    for sql in statements:
        result = executor.execute(sql)
        out.append(json.loads(json.dumps(
            [result.rows, dataclasses.asdict(result.metrics)],
            default=str)))
    return out


def observe_load(build, statements, tmp):
    """Load one database every way there is; asserts what must hold
    between the loads and returns what is pinned by the recording."""
    durable = os.path.join(tmp, "durable")
    if build is None:
        source = side_state_database(durable)
        # The source as the snapshot saw it: reload rather than keep the
        # object that went on to write a WAL tail.
        source, _ = load_snapshot(os.path.join(durable, SNAPSHOT_FILENAME))
    else:
        source = build()
        publish(source, durable)
    path = publish(source, os.path.join(tmp, "plain"))
    digest = state_digest(source)

    from_path, meta_path = load_snapshot(path)
    with open(path, "rb") as snapshot:
        from_bytes, meta_bytes = load_snapshot(snapshot.read())
    pool = BufferPool(budget_bytes=POOL_BYTES)
    paged, meta_paged, reader = load_snapshot_paged(path, pool)
    try:
        assert pool.misses == 0 and pool.bytes_resident == 0
        assert meta_path == meta_bytes == meta_paged
        assert describe_indexes(from_path) == describe_indexes(from_bytes)
        for loaded in (from_path, from_bytes, paged):
            assert object_ids(loaded) == object_ids(source)
        recorded = {
            "meta": meta_path,
            "eager_indexes": describe_indexes(from_path),
            "paged_indexes": describe_indexes(paged),
        }
        for loaded in (from_path, from_bytes, paged):
            assert state_digest(loaded) == digest
    finally:
        reader.close()

    results = {}
    for mode in ("eager", "paged"):
        copy = os.path.join(tmp, mode)
        shutil.copytree(durable, copy)
        database = Database.open(
            copy, paging=mode == "paged",
            pool_bytes=POOL_BYTES if mode == "paged" else None)
        try:
            report = database.last_recovery.as_dict()
            del report["data_dir"]
            recorded[f"{mode}_report"] = report
            results[mode] = run_statements(database, statements)
        finally:
            close(database)
    for sql, eager, lazy in zip(statements, results["eager"],
                                results["paged"]):
        assert eager == lazy, sql
    recorded["statements"] = len(statements)
    recorded["results_sha256"] = hashlib.sha256(json.dumps(
        results["eager"], sort_keys=True).encode()).hexdigest()
    return recorded


@pytest.mark.parametrize("case", load_cases(), ids=lambda case: case[0])
def test_loads_agree_and_match_recording(case, tmp_path):
    name, build, statements = case
    assert observe_load(build, statements, str(tmp_path)) \
        == expected()["load"][name]


# ================================================== (b) damaged snapshots

HEADER_FIELDS = (("magic", 0), ("version", 4), ("type", 5), ("reserved", 6),
                 ("page_id", 8), ("lsn", 16), ("length", 24), ("crc", 28))


def page_offsets(snapshot: bytes):
    offsets, offset = [], 0
    while offset < len(snapshot):
        offsets.append(offset)
        _page, offset = parse_page(snapshot, offset)
    return offsets


def damaged_snapshots(snapshot: bytes):
    """(label, bytes) for every entry of the corruption matrix."""
    offsets = page_offsets(snapshot)
    ends = offsets[1:] + [len(snapshot)]
    for number, (start, end) in enumerate(zip(offsets, ends)):
        body = start + PAGE_HEADER.size
        spots = list(HEADER_FIELDS) + [
            ("payload_first", body - start),
            ("payload_middle", (body + end) // 2 - start),
            ("payload_last", end - 1 - start)]
        for field, at in spots:
            damaged = bytearray(snapshot)
            damaged[start + at] ^= 0x01
            yield f"page{number}.{field}", bytes(damaged)
        for label, cut in (("-1", start - 1), ("+0", start), ("+1", start + 1),
                           ("+header/2", start + PAGE_HEADER.size // 2)):
            if 0 <= cut < len(snapshot):
                yield f"cut@page{number}{label}", snapshot[:cut]
    yield "cut@end-1", snapshot[:-1]
    yield "trailing", snapshot + b"\x00"
    yield "undamaged", snapshot


def read_table(table):
    """Every row of every index of ``table``, sorted per index — touches
    each page the table has."""
    out = []
    for index in table.all_indexes:
        if isinstance(index, ColumnstoreIndex):
            rows = [row for batch in index.scan(index.columns)
                    for row in batch_to_rows(batch, index.columns)]
        elif isinstance(index, HeapFile):
            rows = [row for _rids, chunk in index.scan() for row in chunk]
        else:
            rows = [tuple(row) for _key, row in iter_entries(index.scan())]
        out.append(sorted(rows, key=repr))
    return out


def touch(table) -> str:
    read_table(table)
    return "ok"


def outcome(call, directory):
    try:
        return call()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}".replace(directory, "<dir>")


def observe_damage(label, snapshot: bytes, directory: str, healthy,
                   defects):
    """The outcome of opening one (possibly damaged) snapshot through
    each entry point. What must hold of a paged open whatever the
    outcome — nothing left pinned, no table answering with other rows —
    is reported into ``defects`` rather than asserted, so that the
    recording can be made from the loaders this replaced (which broke
    both)."""
    path = os.path.join(directory, SNAPSHOT_FILENAME)
    with open(path, "wb") as out:
        out.write(snapshot)

    def eager(source):
        load_snapshot(source)
        return "ok"

    def lazy():
        pool = BufferPool(budget_bytes=POOL_BYTES)
        database, _meta, reader = load_snapshot_paged(path, pool)
        try:
            assert pool.bytes_resident == 0
            touched = {table.name: outcome(lambda: touch(table), directory)
                       for table in database.tables()}
            if pool.pinned_pages():
                defects.append(f"{label}: {pool.pinned_pages()} left pinned")
            pool.check_consistency()
            # Damage is to one page: at most its table fails, and every
            # other table still answers with the rows it always had.
            assert sum(value != "ok" for value in touched.values()) <= 1
            for table in database.tables():
                if (touched[table.name] == "ok"
                        and read_table(table) != healthy[table.name]):
                    defects.append(f"{label}: wrong rows from {table.name}")
            return {"open": "ok", "touch": touched}
        finally:
            reader.close()

    return {"path": outcome(lambda: eager(path), directory),
            "bytes": outcome(lambda: eager(snapshot), directory),
            "paged": outcome(lazy, directory)}


def record_corruption(directory, defects):
    database = small_database()
    healthy = {table.name: read_table(table) for table in database.tables()}
    return {label: observe_damage(label, damaged, directory, healthy, defects)
            for label, damaged in damaged_snapshots(snapshot_bytes(database))}


#: A deferred page is keyed in the buffer pool by its position in the
#: stream, not by the id in its own (not yet checksummed) header. Keyed
#: by that id, a segment page whose damaged id named the segment page
#: before it was served its neighbour's frame, and ``u`` answered with
#: one column's values under another (the recordings of format version
#: 1 held that defect). Each now fails its checksum at first touch, like
#: any other damaged deferred page.
NEIGHBOUR_ID_FLIPS = {
    "page11.page_id": "StorageError: page 10 checksum mismatch",
    "page15.page_id": "StorageError: page 14 checksum mismatch",
}


def test_corruption_matrix_matches_recording(tmp_path):
    defects = []
    observed = record_corruption(str(tmp_path), defects)
    assert not defects
    recorded = expected()["corruption"]
    for label, message in NEIGHBOUR_ID_FLIPS.items():
        assert observed[label]["paged"]["touch"]["u"] == message
    assert sorted(observed) == sorted(recorded)
    wrong = {label: (observed[label], recorded[label])
             for label in observed if observed[label] != recorded[label]}
    assert not wrong
    assert observed["undamaged"] == {
        "path": "ok", "bytes": "ok",
        "paged": {"open": "ok", "touch": {"t": "ok", "u": "ok", "h": "ok"}}}
    # The matrix holds both kinds of paged outcome: refused at open, and
    # opened with the error waiting at the damaged page's first touch.
    paged = [entry["paged"] for entry in observed.values()]
    assert any(isinstance(p, str) for p in paged)
    assert any(isinstance(p, dict) and set(p["touch"].values()) != {"ok"}
               for p in paged)


# ================================================ (c) the pre-paging format

def without_paging_metadata(snapshot: bytes) -> bytes:
    """Rewrite ``snapshot`` as the format before demand paging wrote it:
    no leaf fences in B+ descriptors, no segment metadata in row-group
    pages."""
    out, offset = bytearray(), 0
    while offset < len(snapshot):
        page, offset = parse_page(snapshot, offset)
        if isinstance(page.payload, dict):
            page.payload.pop("leaf_fences", None)
            page.payload.pop("segment_meta", None)
        out += build_page(page.page_id, page.page_type, page.lsn,
                          page.payload)
    return bytes(out)


def record_old_format(directory):
    recorded = {}
    for name, keep in (("btree", "t"), ("columnstore", "u")):
        database = small_database()
        for table in database.table_names():
            if table != keep:
                database.drop_table(table)
        old = without_paging_metadata(snapshot_bytes(database))
        assert old != snapshot_bytes(database)
        loaded, _meta = load_snapshot(old)
        assert state_digest(loaded) == state_digest(database)
        path = os.path.join(directory, f"{name}.db")
        with open(path, "wb") as out:
            out.write(old)
        with pytest.raises(StorageError) as refused:
            load_snapshot_paged(path, BufferPool(budget_bytes=POOL_BYTES))
        recorded[name] = str(refused.value)
    return recorded


def test_old_format_loads_eagerly_and_is_refused_paged(tmp_path):
    recorded = record_old_format(str(tmp_path))
    assert recorded == expected()["old_format"]
    assert all("predates the paged format" in message
               for message in recorded.values())


# ============================================ (d) one copy of each row

def three_designs() -> Database:
    """A heap, a clustered and a primary-CSI table, each with a
    secondary B+ tree and a secondary CSI whose delta store holds rows
    (over one leaf page's worth on the updated tables)."""
    database = Database("designs")
    for name in ("h", "b", "c"):
        table = _table(database, name)
        table.bulk_load(_rows(2500))
        if name == "b":
            table.set_primary_btree(["k"])
        elif name == "c":
            table.set_primary_columnstore(rowgroup_size=2048)
        table.create_secondary_btree(f"ix_{name}", ["s"],
                                     included_columns=["a"])
        table.create_secondary_columnstore(
            f"csi_{name}", rowgroup_size=2048, allow_multiple=True)
    executor = Executor(database)
    for name in ("h", "b", "c"):
        executor.execute(f"DELETE FROM {name} WHERE k < 20")
        executor.execute(f"UPDATE {name} SET a = 99 "
                         "WHERE k BETWEEN 100 AND 1300")
        executor.execute(f"INSERT INTO {name} VALUES (5000, 1, 'new')")
    return database


def leaf_tree(index):
    return index._delta if isinstance(index, ColumnstoreIndex) else index.tree


def test_each_structure_is_written_once_as_its_own_leaf_run():
    database = three_designs()
    runs, previous, descriptor = {}, None, None
    offset, snapshot = 0, snapshot_bytes(database)
    while offset < len(snapshot):
        page, offset = parse_page(snapshot, offset)
        assert page.page_type != 3, "no page holds a table's rows"
        if page.page_type == PT_INDEX:
            descriptor = page.payload
            runs[descriptor["name"]] = []
        elif page.page_type == PT_BTREE_LEAF:
            # A run follows its descriptor, unbroken.
            assert previous in (PT_INDEX, PT_BTREE_LEAF)
            keys, values = _leaf_chunk(page.payload)
            runs[descriptor["name"]] += zip(keys, values)
        previous = page.page_type
    for table in database.tables():
        for index in table.all_indexes:
            entries = list(leaf_tree(index).items())
            assert runs.pop(index.name) == entries, index.name
            if isinstance(index, ColumnstoreIndex):
                assert len(entries) > 1024, index.name   # two leaf pages
    assert not runs


def test_eager_and_paged_opens_answer_as_the_original(tmp_path):
    database = three_designs()
    digest = state_digest(database)
    database.save(str(tmp_path))
    eager = Database.open(str(tmp_path))
    paged = Database.open(str(tmp_path), paging=True, pool_bytes=POOL_BYTES)
    try:
        # The clustered tree's rid -> key map came from its leaf pages,
        # none of which the open left in the pool.
        assert paged.buffer_pool.bytes_resident == 0
        clustered = paged.table("b")
        assert clustered.primary.is_paged
        rids = [rid for rid, _row in eager.table("b").iter_rows()]
        assert rids == [rid for rid, _row in database.table("b").iter_rows()]
        for rid in rids:
            assert rid in clustered.primary
        assert (clustered.get_rows(rids) == eager.table("b").get_rows(rids)
                == database.table("b").get_rows(rids))
        assert clustered.get_rows(rids[::-7]) \
            == eager.table("b").get_rows(rids[::-7])
        assert clustered.primary.is_paged
        for reopened in (eager, paged):
            assert check_database(reopened).ok
            assert state_digest(reopened) == digest
    finally:
        eager.close()
        paged.close()


def with_version(page: bytes, version: int) -> bytes:
    """``page`` as a writer of format ``version`` frames it: the version
    byte and the checksum over it."""
    (_magic, _version, page_type, reserved, page_id, lsn, length,
     _crc) = PAGE_HEADER.unpack_from(page)
    body = page[PAGE_HEADER.size:]
    meta = struct.pack("<BBQQI", version, page_type, page_id, lsn, length)
    return PAGE_HEADER.pack(PAGE_MAGIC, version, page_type, reserved,
                            page_id, lsn, length,
                            zlib.crc32(body, zlib.crc32(meta))) + body


def test_a_version_1_page_is_refused_by_both_opens(tmp_path):
    """And a version-2 page, whose leaves were entries, not columns."""
    snapshot = snapshot_bytes(small_database())
    offsets = page_offsets(snapshot)
    path = os.path.join(str(tmp_path), SNAPSHOT_FILENAME)
    for version in (1, 2):
        refused = f"^unsupported page version {version}$"
        for start, end in zip(offsets, offsets[1:] + [len(snapshot)]):
            old = snapshot[:start] \
                + with_version(snapshot[start:end], version) + snapshot[end:]
            with open(path, "wb") as out:
                out.write(old)
            for source in (old, path):
                with pytest.raises(StorageError, match=refused):
                    load_snapshot(source)
            with pytest.raises(StorageError, match=refused):
                load_snapshot_paged(path, BufferPool(budget_bytes=POOL_BYTES))


# ================================== a reopened heap keeps its high-water rid

def heap_database(directory) -> Database:
    database = Database("heap")
    table = database.create_table(TableSchema("h", [
        Column("k", INT, nullable=False), Column("v", INT)]))
    table.bulk_load([(i, i * 10) for i in range(6)])
    table.create_secondary_btree("ix_h_v", ["v"])
    database.enable_durability(directory)
    return database


def rolled_back_delete_then_scan(database):
    database.fault_injector.arm("table.secondary_apply")
    with pytest.raises(InjectedFault):
        Executor(database).execute("DELETE FROM h WHERE k = 2")
    database.fault_injector.disarm()
    rows = Executor(database).execute("SELECT k FROM h").rows
    assert check_database(database).ok
    return rows


@pytest.mark.parametrize("paging", [False, True], ids=["eager", "paged"])
def test_reopened_heap_scans_in_rid_order_after_a_rollback(tmp_path, paging):
    never_closed = heap_database(str(tmp_path / "kept"))
    try:
        want = rolled_back_delete_then_scan(never_closed)
    finally:
        never_closed.close()
    assert want == [(k,) for k in range(6)]

    heap_database(str(tmp_path / "reopened")).close()
    reopened = Database.open(str(tmp_path / "reopened"), paging=paging)
    try:
        assert rolled_back_delete_then_scan(reopened) == want
    finally:
        reopened.close()


@pytest.mark.parametrize("paging", [False, True], ids=["eager", "paged"])
def test_redo_insert_below_the_snapshots_largest_rid(tmp_path, paging):
    database = heap_database(str(tmp_path))
    Executor(database).execute("DELETE FROM h WHERE k = 2")
    database.wal.log_ops([{"op": "insert", "table": "h", "rid": 2,
                           "row": (2, 20)}])
    database.close()
    reopened = Database.open(str(tmp_path), paging=paging)
    try:
        assert reopened.last_recovery.ops_replayed == 2
        rows = Executor(reopened).execute("SELECT k FROM h").rows
        assert rows == [(k,) for k in range(6)]
        assert check_database(reopened).ok
    finally:
        reopened.close()


# ============================================ close() and leaked descriptors

def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_close_and_failed_recovery_leak_no_descriptor(tmp_path):
    good = str(tmp_path / "good")
    database = small_database()
    database.enable_durability(good)
    database.close()
    database.close()        # idempotent

    bad = str(tmp_path / "bad")
    shutil.copytree(good, bad)
    broken = Database.open(bad)
    broken.wal.log_ops([{"op": "delete", "table": "gone", "rids": [1]}])
    broken.close()

    before = open_descriptors()
    for _ in range(5):
        database = Database.open(good, paging=True, pool_bytes=POOL_BYTES)
        assert read_table(database.table("t"))
        assert database.buffer_pool.misses > 0
        # The benchmark's own two closes, then ours on top.
        database.wal.close()
        database._snapshot_reader.close()
        database.close()
        with pytest.raises(StorageError):
            database.table("u").primary.segment_ranges("k")
    for paging in (False, True):
        with pytest.raises(RecoveryError):
            Database.open(bad, paging=paging)
        with pytest.raises(RecoveryError):
            recover(bad, buffer_pool=BufferPool(budget_bytes=POOL_BYTES)
                    if paging else None)
    assert open_descriptors() == before


def test_loader_entry_points_keep_their_shapes(tmp_path):
    """The names the benchmark's tracer wraps, and what they return."""
    path = publish(small_database(), str(tmp_path))
    database, meta = load_snapshot(path)
    assert sorted(meta) == ["checkpoint_lsn", "name", "pages_read"]
    assert isinstance(database, Database)
    database, meta, reader = load_snapshot_paged(
        path, BufferPool(budget_bytes=POOL_BYTES))
    assert isinstance(reader, SnapshotReader)
    reader.close()


if __name__ == "__main__":     # regenerate the recording
    import tempfile

    def in_scratch(observe, *args):
        with tempfile.TemporaryDirectory() as directory:
            return observe(*args, directory)

    parent_defects = []
    record = {
        "load": {name: in_scratch(observe_load, build, statements)
                 for name, build, statements in load_cases()},
        "corruption": in_scratch(lambda directory: record_corruption(
            directory, parent_defects)),
        "old_format": in_scratch(record_old_format),
    }
    os.makedirs(os.path.dirname(EXPECTED_PATH), exist_ok=True)
    with open(EXPECTED_PATH, "w") as out:
        json.dump(record, out, indent=1, sort_keys=True)
        out.write("\n")
    print(f"wrote {EXPECTED_PATH}; defects seen while recording: "
          f"{parent_defects}", file=sys.stderr)

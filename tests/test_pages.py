"""On-disk page format: value codec, page framing, snapshot round trips.

The contract under test: ``save`` followed by ``open``/``recover``
reproduces the database *byte-identically* (state_digest equality) for
every physical design — heap, clustered B+ tree, primary and secondary
columnstores with live delta-store / delete-buffer / deleted-bitmap
state — and every corruption of a page is detected by its checksum.
"""

import os
import random
import struct
import zlib
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.errors import StorageError
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, varchar
from repro.engine.executor import Executor
from repro.storage import pages
from repro.storage.database import Database
from repro.storage.pages import (
    PAGE_HEADER,
    PAGE_MAGIC,
    PAGE_VERSION,
    PT_BTREE_LEAF,
    PT_INDEX,
    Records,
    build_page,
    census,
    load_snapshot,
    pack_value,
    parse_page,
    snapshot_bytes,
    unpack_value,
)
from repro.storage.records import lossless_array
from repro.storage.recovery import state_digest
from repro.workloads.ch import generate_ch
from tests.oracle import examples


def roundtrip(value):
    buf = bytearray()
    pack_value(value, buf)
    decoded, consumed = unpack_value(bytes(buf), 0)
    assert consumed == len(buf)
    return decoded


class TestValueCodec:
    def test_scalars(self):
        for value in (None, True, False, 0, 1, -1, 2**40, -(2**40),
                      2**100, -(2**100), 0.0, -1.5, 3.14159,
                      "", "hello", "ünïcode", b"", b"\x00\xff raw"):
            assert roundtrip(value) == value

    def test_containers(self):
        assert roundtrip([1, "a", None]) == [1, "a", None]
        assert roundtrip((1, (2, 3))) == (1, (2, 3))
        assert roundtrip({"b": 1, "a": (2,)}) == {"b": 1, "a": (2,)}
        assert roundtrip([]) == []
        assert roundtrip({}) == {}

    def test_ndarrays(self):
        for array in (np.array([1, 2, 3], dtype=np.int64),
                      np.array([1.5, -2.5]),
                      np.array([], dtype=np.int64),
                      np.array([True, False])):
            decoded = roundtrip(array)
            assert isinstance(decoded, np.ndarray)
            assert decoded.dtype == array.dtype
            assert np.array_equal(decoded, array)

    def test_object_array(self):
        array = np.array(["x", None, 3], dtype=object)
        decoded = roundtrip(array)
        assert decoded.dtype == object
        assert list(decoded) == ["x", None, 3]

    def test_deterministic_dict_order(self):
        one, two = bytearray(), bytearray()
        pack_value({"a": 1, "b": 2}, one)
        pack_value({"b": 2, "a": 1}, two)
        assert bytes(one) == bytes(two)

    def test_truncated_rejected(self):
        buf = bytearray()
        pack_value({"key": [1, 2, 3]}, buf)
        for cut in range(len(buf)):
            with pytest.raises(StorageError):
                unpack_value(bytes(buf[:cut]), 0)


def encode(value) -> bytes:
    buf = bytearray()
    pack_value(value, buf)
    return bytes(buf)


#: One value of every kind the codec writes, and long uniform sequences
#: (each coded one value at a time, as every sequence is).
EVERY_KIND = {
    "none": None, "false": False, "true": True, "int": -7, "bigint": 2**70,
    "float": -2.5, "str": "ünï", "bytes": b"\x00raw",
    "list": [1, "a", None], "tuple": (1, (2.0, None)),
    "dict": {"k": [1], "j": (True,)},
    "ndarray": np.array([1, 2, 3], dtype=np.int64),
    "objarray": np.array(["x", None, 3], dtype=object),
    "record ints": list(range(16)),
    "record leaves": [((k, k + 1), (k, -k, 0.5, None, True))
                      for k in range(20)],
    "record objarray": np.array(list(range(20)), dtype=object),
}


class TestTypedErrors:
    """Every malformed payload is a StorageError: the WAL scan and the
    snapshot loader catch that type only."""

    @pytest.mark.parametrize("payload", [
        b"\x0b",                                  # ndarray: no dtype length
        b"\x0b\x03<i",                            # ndarray: dtype cut short
        b"\x0b\x03zzz\x00\x00\x00\x00",           # ndarray: no such dtype
        b"\x0b\x03<,8\x00\x00\x00\x00",           # ndarray: dtype not Python
        b"\x0b\x02|O\x01\x00\x00\x00" + bytes(8),  # ndarray of objects
        b"\x0b\x03|V0\x01\x00\x00\x00",           # ndarray: empty items
        b"\x06\x01\x00\x00\x00\xff",              # str: not UTF-8
        b"\x04\x01\x00\x00\x00\xff",              # bigint: not ASCII
        b"\x04\x01\x00\x00\x00x",                 # bigint: not digits
        b"\x0a\x01\x00\x00\x00\x08\x00\x00\x00\x00\x00",  # dict: list key
        b"\x08\x01\x00\x00\x00" * 5000,           # nested past the stack
        b"\x0d",                                  # unknown tag
    ])
    def test_malformed_payload(self, payload):
        with pytest.raises(StorageError):
            unpack_value(payload, 0)

    @pytest.mark.parametrize("value", EVERY_KIND.values(), ids=EVERY_KIND)
    def test_every_prefix(self, value):
        buf = encode(value)
        for cut in range(len(buf)):
            with pytest.raises(StorageError):
                unpack_value(buf[:cut], 0)

    # a damaged dtype may spell numpy's deprecated alias "a"
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("value", EVERY_KIND.values(), ids=EVERY_KIND)
    def test_every_single_byte_corruption(self, value):
        buf = encode(value)
        replacements = range(256) if len(buf) < 64 else (0x01, 0x80, 0xFF)
        for position in range(len(buf)):
            for byte in replacements:
                corrupt = bytearray(buf)
                corrupt[position] = byte
                try:
                    unpack_value(bytes(corrupt), 0)
                except StorageError:
                    pass

    def test_uniform_list_cut_at_and_inside_every_record(self):
        ints = encode(list(range(1024)))          # 5-byte head, 9-byte ints
        for record in range(1024):
            with pytest.raises(StorageError):
                unpack_value(ints[:5 + 9 * record], 0)
        leaf = encode([((k, k), (k, k, k, k)) for k in range(1024)])
        size = (len(leaf) - 5) // 1024
        for record in (0, 1, 511, 1023):
            for inside in range(1, size):
                with pytest.raises(StorageError):
                    unpack_value(leaf[:5 + size * record + inside], 0)


def pages_of(snapshot: bytes):
    """(page bytes, decoded page) for each page of a snapshot."""
    offset = 0
    while offset < len(snapshot):
        start = offset
        page, offset = parse_page(snapshot, offset)
        yield snapshot[start:offset], page


def leaf_runs(snapshot: bytes):
    """Index name -> the (page bytes, payload) of each leaf page of its
    run, in order."""
    runs, name = {}, None
    for raw, page in pages_of(snapshot):
        if page.page_type == PT_INDEX:
            name = page.payload["name"]
            runs[name] = []
        elif page.page_type == PT_BTREE_LEAF:
            runs[name].append((raw, page.payload))
    return runs


def all_int_clustered(n: int) -> Database:
    database = Database("leaves")
    table = database.create_table(TableSchema("t", [
        Column("k", INT, nullable=False), Column("a", BIGINT),
        Column("b", BIGINT), Column("c", BIGINT)]))
    table.bulk_load([(k, k * 3, -k, 2**40 + k) for k in range(n)])
    table.set_primary_btree(["k"])
    return database


class TestRecordPath:
    def test_leaf_page_decodes_without_per_value_calls(self, monkeypatch):
        database = all_int_clustered(3000)
        [leaves] = leaf_runs(snapshot_bytes(database)).values()
        # one page a leaf of the tree
        assert [len(p["keys"][0]) for _, p in leaves] == [
            len(keys) for keys, _ in database.table("t").primary.scan()]
        calls = []
        per_value = pages._unpack

        def counted(buf, offset):
            calls.append(offset)
            return per_value(buf, offset)

        monkeypatch.setattr(pages, "_unpack", counted)
        for raw, payload in leaves:
            calls.clear()
            keys, values = pages._leaf_chunk(parse_page(raw)[0].payload)
            assert len(keys) == len(values) == len(payload["keys"][0])
            # the payload dict, its two names, the two lists and their
            # 2 key and 4 value columns: one call a column, not 6 an entry
            assert len(calls) == 11

    def test_leaf_bytes_per_entry(self):
        """An all-integer entry costs 8 bytes a field on a leaf page:
        (k, rid) and (k, a, b, c) are six int64 columns."""
        n = 3000
        database = all_int_clustered(n)
        snapshot = snapshot_bytes(database)
        [leaves] = leaf_runs(snapshot).values()
        n_pages = len(leaves)
        assert n_pages == database.table("t").primary.tree.leaf_count
        per_page = 160      # header, payload names and array headers
        assert census(snapshot)["btree_leaf"] <= 6 * 8 * n + per_page * n_pages

    def test_census_adds_up_to_the_snapshot(self):
        snapshot = snapshot_bytes(make_database("hybrid"))
        sizes = census(snapshot)
        assert sum(sizes.values()) == len(snapshot)
        assert set(sizes) == {"catalog", "table", "index", "btree_leaf",
                              "csi_group", "csi_segment", "csi_side"}
        with pytest.raises(StorageError):
            census(snapshot[:-1])

    def test_heap_leaf_pages_with_strings_round_trip(self):
        database = Database("ch")
        generate_ch(database, n_warehouses=1)
        Executor(database).execute(
            "UPDATE customer SET c_last = NULL, c_payment_cnt = NULL "
            "WHERE c_id BETWEEN 100 AND 140")
        snapshot = snapshot_bytes(database)
        leaves = leaf_runs(snapshot)["customer_heap"]
        assert len(leaves) == database.table("customer").primary.tree.leaf_count
        rows = []
        for raw, payload in leaves:
            # heap keys are one int64 rid column
            assert payload["keys"].dtype == np.int64
            rows += pages._leaf_chunk(payload)[1]
        assert any(isinstance(value, str) for value in rows[0])
        assert any(row[3] is None and row[6] is None for row in rows)
        restored, _ = load_snapshot(snapshot)
        assert state_digest(restored) == state_digest(database)
        assert (list(restored.table("customer").iter_rows())
                == list(database.table("customer").iter_rows()))


#: Leaf entry kinds: fields of one type each (a NULL column holds only
#: None), then fields that mix types.
FIXED_LEAVES = ["int key", "composite key", "float values", "null column",
                "empty payload"]
LIST_LEAVES = ["strings", "int and null"]


def leaf_items(kind, count, rng):
    """``count`` B+ leaf entries ``(key + (rid,), value)`` in key order."""
    items = []
    for rid in range(count):
        k = rid * 3 + rng.randrange(3)
        big = rng.randrange(-2 ** 63, 2 ** 63)
        if kind == "int key":
            entry = ((k, rid), (k, big, rng.getrandbits(40), -rid))
        elif kind == "composite key":
            entry = ((k // 7, k, rid), (k // 7, k, float(rid)))
        elif kind == "float values":
            entry = ((k, rid), (k, rng.uniform(-1e9, 1e9),
                                rng.choice([0.0, -0.0, 5e-324])))
        elif kind == "null column":
            entry = ((k, rid), (k, None, big))
        elif kind == "empty payload":
            entry = ((k, rid), ())
        elif kind == "strings":
            entry = ((k, rid), (k, f"s{rid % 5}"))
        else:       # an int column with a NULL in some rows
            entry = ((k, rid), (k, None if rid % 4 == 0 else big))
        items.append(entry)
    return items


def leaf_page(items) -> bytes:
    """The leaf page the snapshot writer makes of ``items``."""
    return build_page(3, PT_BTREE_LEAF, 7, pages._leaf_payload(
        [key for key, _ in items],
        Records.from_rows([value for _, value in items])))


def framed(body: bytes) -> bytes:
    """A leaf page around ``body`` whose checksum matches it."""
    meta = struct.pack("<BBQQI", PAGE_VERSION, PT_BTREE_LEAF, 3, 7, len(body))
    return PAGE_HEADER.pack(PAGE_MAGIC, PAGE_VERSION, PT_BTREE_LEAF, 0, 3, 7,
                            len(body), zlib.crc32(body, zlib.crc32(meta))) \
        + body


def eager_chunk(page: bytes):
    """The entries the generic decode of the page gives: its key and
    value columns read back, value by value, into key tuples and row
    tuples."""
    payload = parse_page(page)[0].payload
    keys = payload["keys"]
    keys = (keys.tolist() if isinstance(keys, np.ndarray)    # rids
            else list(zip(*[column.tolist() for column in keys])))
    rows = list(zip(*[column.tolist() for column in payload["values"]]))
    return keys, rows if payload["values"] else [()] * len(keys)


def leaf_chunk(page: bytes):
    """The chunk the leaf decoder gives (a fault, an eager open)."""
    return pages._leaf_chunk(parse_page(page)[0].payload)


class TestLeafDecoder:
    """A decoded leaf page is the entries it was written from: the same
    key list, and records that read as the same list however they are
    indexed, sliced or iterated (``repr`` tells ``1`` from ``1.0``,
    ``-0.0`` from ``0.0`` and tuples from lists)."""

    @given(st.sampled_from(FIXED_LEAVES + LIST_LEAVES),
           st.sampled_from([1, 15, 16, 17, 300, 1024]),
           st.randoms(use_true_random=False))
    @examples(60)
    def test_equals_eager_decode(self, kind, count, rng):
        items = leaf_items(kind, count, rng)
        page = leaf_page(items)
        keys, values = leaf_chunk(page)
        eager_keys, eager_values = eager_chunk(page)
        assert eager_keys == [key for key, _ in items]
        assert repr(eager_values) == repr([value for _, value in items])
        assert type(keys) is list and keys == eager_keys
        # One leaf representation whatever the layout: typed columns,
        # each of the dtype the lossless rule gives its values, and
        # copies (a cached leaf never holds the page bytes).
        assert type(values) is Records
        assert all(column.flags.owndata for column in values.columns)
        assert ([column.dtype for column in values.columns]
                == [lossless_array(list(field)).dtype
                    for field in zip(*eager_values)])
        assert len(values) == len(eager_values)
        assert ([repr(values[i]) for i in range(-count, count)]
                == [repr(eager_values[i]) for i in range(-count, count)])
        for outside in (count, -count - 1):
            with pytest.raises(IndexError):
                values[outside]
        assert repr(list(values)) == repr(eager_values)
        bounds = [None] + list(range(-count - 2, count + 2))
        for _ in range(20):
            cut = slice(rng.choice(bounds), rng.choice(bounds),
                        rng.choice([None, 1, 2, -1, -3]))
            assert repr(values[cut]) == repr(eager_values[cut])
        for _ in range(20):
            probe = (rng.randrange(-2, 3 * count + 2),)
            if kind == "composite key":
                probe = (probe[0] // 7,) + probe
            assert bisect_left(keys, probe) == bisect_left(eager_keys, probe)
            assert (bisect_right(keys, probe)
                    == bisect_right(eager_keys, probe))

    def test_object_columns_are_narrowed(self):
        """An object column whose values the lossless rule types (a page
        cut from a leaf column that a NULL elsewhere made objects) is
        written and read typed."""
        values = Records([np.array([1, 2, 3], dtype=object),
                          np.array([0.5, None, 1.5], dtype=object)], 3)
        payload = pages._leaf_payload([(1, 0), (2, 1), (3, 2)], values)
        assert [c.dtype for c in payload["values"]] == [np.int64, object]
        payload["values"][0] = payload["values"][0].astype(object)
        _, decoded = leaf_chunk(build_page(3, PT_BTREE_LEAF, 7, payload))
        assert [c.dtype for c in decoded.columns] == [np.int64, object]
        assert list(decoded) == [(1, 0.5), (2, None), (3, 1.5)]

    @pytest.mark.parametrize("items", [
        [((k, k), (k, 1), k) for k in range(20)],     # triples
        [((k, k),) for k in range(20)],               # singles
        list(range(20)),                              # not sequences
    ], ids=["triples", "singles", "ints"])
    def test_entries_that_are_not_pairs(self, items):
        """Entries, of any shape, are no leaf page: only columns are.
        A page of format version 2 held ``{"table", "index", "items"}``."""
        page = build_page(3, PT_BTREE_LEAF, 7,
                          {"table": "t", "index": "ix", "items": items})
        with pytest.raises(StorageError, match="not key and value columns"):
            leaf_chunk(page)

    @pytest.mark.parametrize("payload", [
        [np.arange(3)],                                    # not a dict
        {"keys": [], "values": []},                        # no key column
        {"keys": (np.arange(3),), "values": []},           # keys a tuple
        {"keys": [np.arange(3)], "values": np.arange(3)},  # values an array
        {"keys": [[1, 2]], "values": []},                  # key not an array
        {"keys": [np.arange(3)], "values": [np.arange(2)]},   # ragged
        {"keys": np.arange(3, dtype=np.int32), "values": []},  # not lossless
        {"keys": [np.arange(3)], "values": [np.zeros(3, ">f8")]},
    ])
    def test_payloads_that_are_not_columns(self, payload):
        with pytest.raises(StorageError):
            leaf_chunk(build_page(3, PT_BTREE_LEAF, 7, payload))

    # a damaged dtype may spell numpy's deprecated alias "a"
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("kind", FIXED_LEAVES + LIST_LEAVES)
    def test_every_single_byte_corruption(self, kind):
        """A damaged body that still checksums (the CRC is recomputed)
        raises StorageError from the leaf decoder whenever the generic
        decode fails; when the leaf decoder succeeds, it gives the
        generic decode's entries, in lossless columns of one length."""
        body = leaf_page(leaf_items(kind, 20, random.Random(kind)))[
            PAGE_HEADER.size:]
        for position in range(len(body)):
            for byte in (0x00, 0x01, 0x80, 0xFF, body[position] ^ 0x08):
                corrupt = bytearray(body)
                corrupt[position] = byte
                page = framed(bytes(corrupt))
                try:
                    keys, values = leaf_chunk(page)
                except StorageError:
                    continue
                assert all(column.dtype == lossless_array(
                    column.tolist()).dtype for column in values.columns)
                assert all(len(column) == len(keys)
                           for column in values.columns)
                assert repr((keys, list(values))) == repr(eager_chunk(page))


class TestPageFraming:
    def test_roundtrip(self):
        page_bytes = build_page(17, 3, 9, {"rows": [1, 2]})
        page, consumed = parse_page(page_bytes)
        assert consumed == len(page_bytes)
        assert (page.page_type, page.page_id, page.lsn) == (3, 17, 9)
        assert page.payload == {"rows": [1, 2]}

    def test_every_byte_corruption_detected(self):
        page_bytes = build_page(1, 3, 2, {"k": "payload"})
        for position in range(len(page_bytes)):
            corrupt = bytearray(page_bytes)
            corrupt[position] ^= 0xFF
            with pytest.raises(StorageError):
                parse_page(bytes(corrupt))

    def test_truncation_detected(self):
        page_bytes = build_page(1, 3, 0, {"k": 1})
        with pytest.raises(StorageError):
            parse_page(page_bytes[:PAGE_HEADER.size - 1])
        with pytest.raises(StorageError):
            parse_page(page_bytes[:-1])


def make_database(design: str) -> Database:
    database = Database("snap")
    table = database.create_table(TableSchema("t", [
        Column("a", INT, nullable=False),
        Column("b", INT),
        Column("s", varchar(8)),
    ]))
    table.bulk_load([(i, i % 7, f"s{i % 3}") for i in range(500)])
    if design == "heap":
        pass
    elif design == "btree":
        table.set_primary_btree(["a"])
        table.create_secondary_btree("ix_b", ["b"], included_columns=["s"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=128)
    elif design == "hybrid":
        table.set_primary_btree(["a"])
        table.create_secondary_columnstore("csi_t", rowgroup_size=128)
    # DML so columnstores carry live delta / delete-buffer / bitmap state
    # and heaps/btrees see post-load churn.
    executor = Executor(database)
    executor.execute("INSERT INTO t (a, b, s) VALUES (1000, 1, 'new'), "
                     "(1001, 2, 'new')")
    executor.execute("DELETE FROM t WHERE a < 20")
    executor.execute("UPDATE t SET b = 99 WHERE a BETWEEN 100 AND 140")
    return database


@pytest.mark.parametrize("design", ["heap", "btree", "csi", "hybrid"])
class TestSnapshotRoundTrip:
    def test_digest_identical(self, design):
        database = make_database(design)
        blob = snapshot_bytes(database)
        restored, meta = load_snapshot(blob)
        assert meta["pages_read"] > 1
        assert state_digest(restored) == state_digest(database)

    def test_logical_state_identical(self, design, tmp_path):
        database = make_database(design)
        database.save(str(tmp_path))
        restored, _ = load_snapshot(str(tmp_path / "snapshot.db"))
        table, copy = database.table("t"), restored.table("t")
        assert list(copy.iter_rows()) == list(table.iter_rows())
        assert copy._next_rid == table._next_rid
        assert copy.modification_counter == table.modification_counter
        assert [i.name for i in copy.all_indexes] == [
            i.name for i in table.all_indexes]
        # Queries answer identically through every access path.
        for sql in ("SELECT sum(b) FROM t",
                    "SELECT count(*) FROM t WHERE a BETWEEN 100 AND 300"):
            assert (Executor(restored).execute(sql).rows
                    == Executor(database).execute(sql).rows)

    def test_corruption_detected(self, design, tmp_path):
        database = make_database(design)
        path = database.save(str(tmp_path))
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(StorageError):
            load_snapshot(bytes(blob))

    def test_trailing_garbage_detected(self, design):
        database = make_database(design)
        blob = snapshot_bytes(database) + b"x"
        with pytest.raises(StorageError):
            load_snapshot(blob)


class TestSnapshotProtocol:
    def test_save_is_atomic_publish(self, tmp_path):
        database = make_database("hybrid")
        path = database.save(str(tmp_path))
        assert os.path.basename(path) == "snapshot.db"
        assert not os.path.exists(str(tmp_path / "snapshot.tmp"))
        # Overwrite: save again after more DML replaces it atomically.
        Executor(database).execute(
            "INSERT INTO t (a, b, s) VALUES (5000, 5, 'x')")
        database.save(str(tmp_path))
        restored, _ = load_snapshot(path)
        assert state_digest(restored) == state_digest(database)

    def test_rid_allocation_continues_after_reload(self, tmp_path):
        database = make_database("btree")
        database.save(str(tmp_path))
        restored, _ = load_snapshot(str(tmp_path / "snapshot.db"))
        rid = restored.table("t").insert_row((9999, 1, "z"))
        assert rid == database.table("t")._next_rid

    def test_fresh_object_ids_above_restored(self, tmp_path):
        # Columnstore object ids key their segment frames in the buffer
        # pool; a fresh index built after a restore must never reuse a
        # restored id.
        database = make_database("hybrid")
        database.save(str(tmp_path))
        restored, _ = load_snapshot(str(tmp_path / "snapshot.db"))
        old_id = restored.table("t").secondary_indexes["csi_t"].object_id
        new_index = restored.table("t").create_secondary_columnstore(
            "csi_new", rowgroup_size=128, allow_multiple=True)
        assert new_index.object_id > old_id

    def test_two_databases_built_alike_match(self, tmp_path):
        # Each database draws its own columnstore object ids, so what
        # else the process built does not change a snapshot's bytes.
        def build(directory):
            database = Database()
            table = database.create_table(TableSchema("t", [
                Column("k", INT, nullable=False), Column("a", INT)]))
            table.bulk_load([(k, k % 7) for k in range(100)])
            table.set_primary_columnstore()
            database.enable_durability(str(directory))
            return database

        first, second = build(tmp_path / "a"), build(tmp_path / "b")
        assert state_digest(first) == state_digest(second)
        for database in (first, second):
            database.close()
        for paging in (False, True):
            first, second = (
                Database.open(str(tmp_path / name), paging=paging)
                for name in ("a", "b"))
            assert state_digest(first) == state_digest(second), paging
            first.close()
            second.close()

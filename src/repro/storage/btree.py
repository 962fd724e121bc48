"""B+ tree index implementation.

A genuine B+ tree with internal nodes, leaf chaining, splits and
merge/borrow on underflow. Two index flavours wrap the tree:

* :class:`PrimaryBTreeIndex` — the clustered index: full rows live in the
  leaves, ordered by the key columns.
* :class:`SecondaryBTreeIndex` — a nonclustered index: leaves hold the key
  columns, any *included* columns, and the row id (RID) used to look up
  the remaining columns in the primary structure.

Because SQL Server uniquifies nonunique clustered keys, the internal sort
key is always ``key_values + (rid,)`` which makes every entry unique and
deletion exact.

NULLs are not permitted in index key columns (the workloads in the paper's
benchmarks never index nullable keys); inserting one raises
:class:`~repro.core.errors.StorageError`.

Cost accounting: index methods charge *I/O* (random page reads for
traversals, leaf-chain bandwidth for range scans) against the supplied
:class:`~repro.engine.metrics.ExecutionContext`. Per-row *CPU* is charged
by the operators that consume the rows, so the same index can feed row-mode
and batch-mode plans with different CPU costs.

Leaf layout: a leaf holds its keys as a Python list (``bisect`` runs
in C) and its values as :class:`~repro.storage.records.Records`, one
typed numpy array per value field. A resident leaf and a leaf faulted
in from a snapshot page are the same two objects.

Scan protocol: every range read hands out **leaf chunks** — one
``(keys, values)`` pair of equal length per leaf touched, in key order,
never empty: a key list and a :class:`Records`. A leaf that lies wholly
inside the bounds is handed out as the leaf's own list and records
(borrowed, not copied: read them, never mutate them, and do not keep
them past the statement whose latch protects the tree); the first and
last leaf are cut at the bounds, which slices the key list and gives a
:meth:`Records.view` of the leaf's arrays. :func:`iter_entries`
flattens chunks into (key, row tuple) pairs for per-entry consumers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby, islice
from operator import add, itemgetter, lt
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import StorageError
from repro.core.schema import TableSchema
from repro.engine.metrics import ExecutionContext
from repro.storage.faults import FaultInjector, trip
from repro.storage.records import Records, lossless_array
from repro.storage.telemetry import IndexUsageStats
from repro.storage.undo import UndoLog

Key = Tuple[object, ...]
Row = Tuple[object, ...]
#: One leaf's worth of a scan: a key list and the equal-length records
#: of its values (see the module docstring).
Chunk = Tuple[List[Key], Records]


def iter_entries(chunks: Iterable[Chunk]) -> Iterator[Tuple[Key, Row]]:
    """Flatten a chunk stream into its (key, value) pairs, in order.

    Works for B+ chunks (the rid is ``key[-1]``) and for
    :meth:`HeapFile.scan <repro.storage.heap.HeapFile.scan>` chunks
    (the key *is* the rid)."""
    for keys, values in chunks:
        yield from zip(keys, values)


def _clip_leaf(keys: List[Key], values: Records, low: Optional[Key],
               high: Optional[Key], low_inclusive: bool,
               high_inclusive: bool) -> Tuple[List[Key], Records, bool]:
    """The part of one leaf inside the bounds, and whether the scan ends
    here (the leaf's last key reaches ``high``). ``low`` is passed for
    the first leaf only; a leaf wholly inside comes back as it is."""
    start, end = 0, len(keys)
    if low is not None:
        start = (bisect_left if low_inclusive else bisect_right)(keys, low)
    last = high is not None and end > 0 and keys[-1] >= high
    if last:
        end = (bisect_right if high_inclusive else bisect_left)(keys, high, start)
    if start > 0 or end < len(keys):
        keys, values = keys[start:end], values.view(start, end)
    return keys, values, last


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev", "page_no")

    def __init__(self) -> None:
        self.keys: List[Key] = []
        self.values = Records()
        self.next: Optional["_Leaf"] = None
        self.prev: Optional["_Leaf"] = None
        self.page_no: int = -1


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest.
        self.keys: List[Key] = []
        self.children: List[object] = []


class BPlusTree:
    """Ordered map from unique key tuples to payload rows.

    ``leaf_capacity`` and ``internal_capacity`` are the maximum number of
    entries per node; nodes split at capacity and borrow/merge when they
    fall below half.
    """

    def __init__(self, leaf_capacity: int = 128, internal_capacity: int = 64):
        if leaf_capacity < 4 or internal_capacity < 4:
            raise StorageError("node capacity must be at least 4")
        self.leaf_capacity = leaf_capacity
        self.internal_capacity = internal_capacity
        self._root: object = _Leaf()
        self._height = 1
        self._count = 0
        self._next_page_no = 0
        self._first_leaf: _Leaf = self._root  # type: ignore[assignment]
        self._first_leaf.page_no = self._alloc_page()

    def _alloc_page(self) -> int:
        page = self._next_page_no
        self._next_page_no += 1
        return page

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of node levels from root to leaf."""
        return self._height

    @property
    def leaf_count(self) -> int:
        """Number of leaf nodes in the chain."""
        count = 0
        leaf = self._first_leaf
        while leaf is not None:
            count += 1
            leaf = leaf.next
        return count

    # ------------------------------------------------------------ search
    def _find_leaf(self, key: Key) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect_right(node.keys, key)
            node = node.children[idx]
        return node  # type: ignore[return-value]

    def _position(self, key: Key) -> Tuple[_Leaf, int]:
        """The leaf that holds ``key`` and its index there (-1 if absent)."""
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf, idx
        return leaf, -1

    def __contains__(self, key: Key) -> bool:
        return self._position(key)[1] >= 0

    def get(self, key: Key) -> Optional[Row]:
        """Look up the payload stored under ``key`` (None if absent)."""
        leaf, idx = self._position(key)
        return leaf.values[idx] if idx >= 0 else None

    def replace(self, key: Key, value: Row) -> bool:
        """Overwrite the payload stored under ``key`` in place; False
        (and nothing written) when ``key`` is absent."""
        leaf, idx = self._position(key)
        if idx < 0:
            return False
        leaf.values[idx] = value
        return True

    def leaf_chunks(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Chunk]:
        """Leaf chunks (see the module docstring) holding exactly the
        entries with low <= key <= high, in key order.

        Open bounds are expressed with ``None``. Exclusive bounds via the
        ``*_inclusive`` flags. Prefix bounds work naturally because Python
        tuple comparison is lexicographic.
        """
        leaf = self._first_leaf if low is None else self._find_leaf(low)
        while leaf is not None:
            keys, values, last = _clip_leaf(
                leaf.keys, leaf.values, low, high, low_inclusive, high_inclusive)
            if keys:
                yield keys, values
            if last:
                return
            low = None
            leaf = leaf.next

    def scan_range(self, *bounds, **inclusive) -> Iterator[Tuple[Key, Row]]:
        """The (key, value) pairs of :meth:`leaf_chunks`, same arguments."""
        return iter_entries(self.leaf_chunks(*bounds, **inclusive))

    def count_range(self, low: Optional[Key], high: Optional[Key]) -> int:
        """Number of keys within the given bounds."""
        return sum(len(keys) for keys, _ in self.leaf_chunks(low, high))

    # ------------------------------------------------------------ insert
    def insert(self, key: Key, value: Row) -> None:
        """Insert a unique key. Raises on duplicates."""
        split = self._insert_into(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._count += 1

    def _insert_into(self, node: object, key: Key, value: Row):
        if isinstance(node, _Leaf):
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                raise StorageError(f"duplicate index key {key!r}")
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            if len(node.keys) > self.leaf_capacity:
                return self._split_leaf(node)
            return None
        assert isinstance(node, _Internal)
        idx = bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) > self.internal_capacity:
            return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.page_no = self._alloc_page()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values.split(mid)
        del leaf.keys[mid:]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep, right

    # ------------------------------------------------------------ delete
    def delete(self, key: Key) -> Row:
        """Remove ``key``; returns its payload. Raises if absent."""
        removed = self._delete_from(self._root, key)
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        self._count -= 1
        return removed

    def _delete_from(self, node: object, key: Key) -> Row:
        if isinstance(node, _Leaf):
            idx = bisect_left(node.keys, key)
            if idx >= len(node.keys) or node.keys[idx] != key:
                raise StorageError(f"index key not found: {key!r}")
            node.keys.pop(idx)
            return node.values.pop(idx)
        assert isinstance(node, _Internal)
        idx = bisect_right(node.keys, key)
        removed = self._delete_from(node.children[idx], key)
        self._rebalance_child(node, idx)
        return removed

    def _min_entries(self, node: object) -> int:
        if isinstance(node, _Leaf):
            return self.leaf_capacity // 2
        return self.internal_capacity // 2

    def _entries(self, node: object) -> int:
        if isinstance(node, _Leaf):
            return len(node.keys)
        return len(node.children)  # type: ignore[union-attr]

    def _rebalance_child(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        if self._entries(child) >= self._min_entries(child):
            return
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        if left is not None and self._entries(left) > self._min_entries(left):
            self._borrow_from_left(parent, idx)
        elif right is not None and self._entries(right) > self._min_entries(right):
            self._borrow_from_right(parent, idx)
        elif left is not None:
            self._merge_children(parent, idx - 1)
        elif right is not None:
            self._merge_children(parent, idx)

    def _borrow_from_left(self, parent: _Internal, idx: int) -> None:
        left, child = parent.children[idx - 1], parent.children[idx]
        if isinstance(child, _Leaf):
            assert isinstance(left, _Leaf)
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            assert isinstance(left, _Internal) and isinstance(child, _Internal)
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Internal, idx: int) -> None:
        child, right = parent.children[idx], parent.children[idx + 1]
        if isinstance(child, _Leaf):
            assert isinstance(right, _Leaf)
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            assert isinstance(right, _Internal) and isinstance(child, _Internal)
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge_children(self, parent: _Internal, idx: int) -> None:
        left, right = parent.children[idx], parent.children[idx + 1]
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
            if right.next is not None:
                right.next.prev = left
        else:
            assert isinstance(left, _Internal) and isinstance(right, _Internal)
            left.keys.append(parent.keys[idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(idx)
        parent.children.pop(idx + 1)

    # ---------------------------------------------------------- bulk load
    @classmethod
    def bulk_load(
        cls,
        items: Sequence[Tuple[Key, Row]],
        leaf_capacity: int = 128,
        internal_capacity: int = 64,
    ) -> "BPlusTree":
        """Build a tree bottom-up from *sorted* unique (key, value) pairs.

        Leaves are filled to ~85% like a real bulk load, leaving headroom
        for subsequent inserts.
        """
        return cls.from_columns([k for k, _ in items],
                                Records.from_rows([v for _, v in items]),
                                leaf_capacity, internal_capacity)

    @classmethod
    def from_columns(
        cls,
        keys: List[Key],
        values: Records,
        leaf_capacity: int = 128,
        internal_capacity: int = 64,
    ) -> "BPlusTree":
        """:meth:`bulk_load` from a sorted unique key list and the records
        of its values, whose columns the leaves adopt: a typed column is
        cut into views, one per leaf, and an object column is narrowed
        per leaf to the tightest lossless dtype, so one NULL leaves one
        leaf's column an object array rather than the whole column's."""
        tree = cls(leaf_capacity=leaf_capacity, internal_capacity=internal_capacity)
        if not keys:
            return tree
        if len(keys) != len(values):
            raise StorageError("bulk_load needs one value per key")
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise StorageError("bulk_load requires sorted unique keys")
        columns = values.live_columns()
        fill = max(4, int(leaf_capacity * 0.85))
        leaves: List[_Leaf] = []
        for start in range(0, len(keys), fill):
            stop = min(start + fill, len(keys))
            leaf = _Leaf()
            leaf.page_no = tree._alloc_page() if leaves else tree._first_leaf.page_no
            leaf.keys = keys[start:stop]
            leaf.values = Records(
                [column[start:stop] if column.dtype != object
                 else lossless_array(column[start:stop].tolist())
                 for column in columns], stop - start)
            if leaves:
                leaves[-1].next = leaf
                leaf.prev = leaves[-1]
            leaves.append(leaf)
        tree._first_leaf = leaves[0]
        tree._count = len(keys)
        # Build internal levels bottom-up.
        level: List[object] = list(leaves)
        separators = [leaf.keys[0] for leaf in leaves]
        height = 1
        fanout = max(4, int(internal_capacity * 0.85))
        while len(level) > 1:
            next_level: List[object] = []
            next_seps: List[Key] = []
            for start in range(0, len(level), fanout):
                group = level[start:start + fanout]
                node = _Internal()
                node.children = list(group)
                node.keys = separators[start + 1:start + len(group)]
                next_level.append(node)
                next_seps.append(separators[start])
            level = next_level
            separators = next_seps
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    def items(self) -> Iterator[Tuple[Key, Row]]:
        """Iterate all (key, value) pairs in key order."""
        return self.scan_range(None, None)

    def check_invariants(self) -> None:
        """Verify ordering and leaf-chain consistency (used by tests)."""
        previous = None
        count = 0
        leaf = self._first_leaf
        while leaf is not None:
            for key in leaf.keys:
                if previous is not None and key <= previous:
                    raise StorageError(f"key order violated at {key!r}")
                previous = key
                count += 1
            if len(leaf.values) != len(leaf.keys):
                raise StorageError("leaf keys and values differ in length")
            if leaf.next is not None and leaf.next.prev is not leaf:
                raise StorageError("leaf chain back-pointer broken")
            leaf = leaf.next
        if count != self._count:
            raise StorageError(f"count mismatch: chain {count} vs counter {self._count}")


def _check_key_not_null(key_values: Sequence[object]) -> None:
    if any(v is None for v in key_values):
        raise StorageError("NULL is not allowed in index key columns")


class _BTreeIndexBase:
    """State and sizing shared by primary and secondary B+ tree indexes."""

    kind = "btree"

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        key_columns: Sequence[str],
        entry_byte_width: int,
        object_id: int = 0,
    ):
        if not key_columns:
            raise StorageError(f"index {name!r} needs at least one key column")
        self.name = name
        self.schema = schema
        self.key_columns = list(key_columns)
        self.key_ordinals = schema.ordinals(key_columns)
        self.entry_byte_width = entry_byte_width
        self.object_id = object_id
        #: Fault injector attached by the owning Table (None standalone).
        self.faults: Optional[FaultInjector] = None
        #: The owning Table's undo log (a private, never-opened one
        #: standalone): each write records its inverse there.
        self.undo = UndoLog()
        #: Cumulative usage counters (dm_db_index_usage_stats); recorded
        #: only for context-carrying (user) accesses, never charged.
        self.usage = IndexUsageStats()
        leaf_capacity = max(8, min(512, 8192 // max(1, entry_byte_width)))
        self.tree = BPlusTree(leaf_capacity=leaf_capacity)

    def __len__(self) -> int:
        return len(self.tree)

    def size_bytes(self) -> int:
        """Approximate on-disk size: entries plus ~2% internal overhead.

        Uses ``len(self)`` (not ``len(self.tree)``) so sizing a paged
        index reads the resident item count instead of materializing."""
        data = len(self) * self.entry_byte_width
        return int(data * 1.02) + 8192

    def keys_of(self, rids: List[int], values: Records) -> List[Key]:
        """The index key of each table row of ``values``, at ``rids``: one
        pass per key column."""
        key_columns = [values.column(i).tolist() for i in self.key_ordinals]
        if any(None in column for column in key_columns):
            raise StorageError("NULL is not allowed in index key columns")
        return list(zip(*key_columns, rids))

    def _sorted_entries(self, rids: np.ndarray, values: Records
                        ) -> Tuple[List[Key], np.ndarray]:
        """:meth:`keys_of` in key order, and the row positions in that
        order: a bulk build's entries."""
        keys = self.keys_of(rids.tolist(), values)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return list(map(keys.__getitem__, order)), np.array(order, np.intp)

    def _add(self, key: Key, value: Row) -> None:
        """Insert one entry; its undo removes it."""
        tree = self.tree
        tree.insert(key, value)
        self.undo.record(tree.delete, key)

    def _remove(self, key: Key) -> None:
        """Remove one entry; its undo puts it back."""
        tree = self.tree
        self.undo.record(tree.insert, key, tree.delete(key))

    def _make_key(self, row: Row, rid: int) -> Key:
        key_values = tuple(row[i] for i in self.key_ordinals)
        _check_key_not_null(key_values)
        return key_values + (rid,)

    def _charge_traversal(self, ctx: Optional[ExecutionContext]) -> None:
        if ctx is None:
            return
        ctx.charge_random_read(self.tree.height)
        ctx.charge_serial_cpu(ctx.cost_model.seek_cpu_ms)

    def _charge_range_io(
        self, ctx: Optional[ExecutionContext], rows_touched: int
    ) -> None:
        if ctx is None:
            return
        nbytes = rows_touched * self.entry_byte_width
        ctx.charge_btree_scan_read(nbytes)
        ctx.record_data_read(nbytes)

    def _get_many(self, keys: List[Key]) -> List[Optional[Row]]:
        """The payload under each of the ascending ``keys`` (None where
        absent)."""
        return list(map(self.tree.get, keys))

    def _leaf_chunks(self, *bounds) -> Iterator[Chunk]:
        return self.tree.leaf_chunks(*bounds)

    def _read_chunks(self, ctx: Optional[ExecutionContext], *bounds
                     ) -> Iterator[Chunk]:
        """Leaf chunks within full-key ``bounds``; the leaf-chain I/O for
        the entries handed out is charged once the scan is exhausted."""
        entries = 0
        for chunk in self._leaf_chunks(*bounds):
            entries += len(chunk[0])
            yield chunk
        self._charge_range_io(ctx, entries)

    def _seek_chunks(self, low, high, ctx, low_inclusive, high_inclusive
                     ) -> Iterator[Chunk]:
        self._charge_traversal(ctx)
        self._record_range_access(ctx, low, high)
        low_key, high_key = _pad_prefix_bounds(low, high, low_inclusive, high_inclusive)
        return self._read_chunks(ctx, low_key, high_key,
                                 low_inclusive, high_inclusive)

    def _record_range_access(
        self,
        ctx: Optional[ExecutionContext],
        low: Optional[Key],
        high: Optional[Key],
    ) -> None:
        """Classify a user range access: open bounds on both ends are a
        scan, anything bounded is a seek. Context-free (internal) reads
        are not user accesses and record nothing."""
        if ctx is None:
            return
        if low is None and high is None:
            self.usage.record_scan()
        else:
            self.usage.record_seek()


class PrimaryBTreeIndex(_BTreeIndexBase):
    """Clustered B+ tree: the table's rows live in the leaves."""

    is_primary = True

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        key_columns: Sequence[str],
        object_id: int = 0,
    ):
        super().__init__(
            name, schema, key_columns,
            entry_byte_width=schema.row_byte_width, object_id=object_id,
        )
        #: rid -> the key its row is stored under, None where no row is:
        #: a list indexed by rid holding the leaves' own key tuples.
        self.rid_keys: List[Optional[Key]] = []

    @classmethod
    def build(
        cls,
        name: str,
        schema: TableSchema,
        key_columns: Sequence[str],
        rids: np.ndarray,
        values: Records,
        object_id: int = 0,
    ) -> "PrimaryBTreeIndex":
        """A clustered index on the table rows ``values`` at ``rids``."""
        index = cls(name, schema, key_columns, object_id=object_id)
        keys, order = index._sorted_entries(rids, values)
        index.tree = BPlusTree.from_columns(
            keys, values.take(order), leaf_capacity=index.tree.leaf_capacity)
        index.map_rids(keys)
        return index

    def map_rids(self, keys: Sequence[Key]) -> None:
        """Rebuild the rid -> key map from ``keys``, every key stored."""
        rid_keys: List[Optional[Key]] = [None] * (
            max(map(itemgetter(-1), keys)) + 1 if keys else 0)
        for key in keys:
            rid_keys[key[-1]] = key
        self.rid_keys = rid_keys

    def _map_rid(self, rid: int, key: Optional[Key]) -> None:
        """Point ``rid`` at ``key``; its undo points it back."""
        rid_keys = self.rid_keys
        if rid >= len(rid_keys):
            rid_keys.extend([None] * (rid + 1 - len(rid_keys)))
        self.undo.record(self._map_rid, rid, rid_keys[rid])
        rid_keys[rid] = key

    def __contains__(self, rid: int) -> bool:
        return 0 <= rid < len(self.rid_keys) and self.rid_keys[rid] is not None

    def fetch(self, rid: int) -> Row:
        """The row at ``rid`` (StorageError if none), uncharged: its key
        from the rid map, then one point read."""
        if rid not in self:
            raise StorageError(f"rid {rid} not in index {self.name!r}")
        return self.fetch_many([rid])[0]

    def fetch_many(self, rids: Sequence[int]) -> List[Row]:
        """The rows at ``rids``, every one present, uncharged: read in key
        order, so each leaf touched is read (or faulted) once."""
        order = sorted(range(len(rids)), key=lambda i: self.rid_keys[rids[i]])
        rows: List[Row] = [()] * len(rids)
        found = self._get_many([self.rid_keys[rids[i]] for i in order])
        for i, row in zip(order, found):
            rows[i] = row
        return rows

    def columns_by_rid(self) -> Tuple[np.ndarray, Records]:
        """Every rid, ascending, and the rows at them as columns (copied),
        read from the leaves uncharged."""
        chunks = list(self._leaf_chunks(None, None, True, True))
        rids = np.fromiter((key[-1] for keys, _ in chunks for key in keys),
                           np.int64, len(self))
        order = np.argsort(rids)
        return (rids[order],
                Records.concat([values for _, values in chunks]).take(order))

    def insert(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Insert one row, charging maintenance costs to ``ctx``."""
        trip(self.faults, "btree.insert")
        self._charge_traversal(ctx)
        key = self._make_key(row, rid)
        self._add(key, row)
        self._map_rid(rid, key)
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.btree_update_cpu_ms_per_row)

    def delete(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Delete one row, charging maintenance costs to ``ctx``."""
        trip(self.faults, "btree.delete")
        self._charge_traversal(ctx)
        self._remove(self._make_key(row, rid))
        self._map_rid(rid, None)
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.btree_update_cpu_ms_per_row)

    def update(
        self,
        rid: int,
        old_row: Row,
        new_row: Row,
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        """Update one row in place (delete+insert when keys change)."""
        old_key = self._make_key(old_row, rid)
        new_key = self._make_key(new_row, rid)
        trip(self.faults, "btree.update")
        self._charge_traversal(ctx)
        if old_key == new_key:
            if not self.tree.replace(old_key, new_row):
                raise StorageError(f"row {rid} not found for in-place update")
            self.undo.record(self.tree.replace, old_key, old_row)
        else:
            self._remove(old_key)
            trip(self.faults, "btree.insert")
            self._add(new_key, new_row)
            self._map_rid(rid, new_key)
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.btree_update_cpu_ms_per_row)

    def seek_range(
        self,
        low: Optional[Key],
        high: Optional[Key],
        ctx: Optional[ExecutionContext] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Chunk]:
        """Range scan on a key prefix: (keys, rows) leaf chunks in key
        order; each key ends in the row's rid.

        ``low``/``high`` are key-column-value tuples (no rid); bounds are
        padded so that inclusive/exclusive semantics apply per key prefix.
        """
        yield from self._seek_chunks(low, high, ctx, low_inclusive, high_inclusive)

    def scan(self, ctx: Optional[ExecutionContext] = None) -> Iterator[Chunk]:
        """Full ordered scan of the leaf chain, as leaf chunks."""
        if ctx is not None:
            self.usage.record_scan()
        yield from self._read_chunks(ctx, None, None, True, True)


class SecondaryBTreeIndex(_BTreeIndexBase):
    """Nonclustered B+ tree: leaves store key + included columns + RID."""

    is_primary = False

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        key_columns: Sequence[str],
        included_columns: Sequence[str] = (),
        object_id: int = 0,
    ):
        overlap = set(key_columns) & set(included_columns)
        if overlap:
            raise StorageError(
                f"columns {sorted(overlap)} are both key and included in {name!r}"
            )
        width = (
            sum(schema.column(c).col_type.byte_width for c in key_columns)
            + sum(schema.column(c).col_type.byte_width for c in included_columns)
            + 8  # RID
        )
        super().__init__(name, schema, key_columns, entry_byte_width=width,
                         object_id=object_id)
        self.included_columns = list(included_columns)
        self.included_ordinals = schema.ordinals(included_columns)
        #: Columns available without a primary lookup, in payload order.
        self.covered_columns = list(key_columns) + list(included_columns)

    @classmethod
    def build(
        cls,
        name: str,
        schema: TableSchema,
        key_columns: Sequence[str],
        rids: np.ndarray,
        values: Records,
        included_columns: Sequence[str] = (),
        object_id: int = 0,
    ) -> "SecondaryBTreeIndex":
        """A nonclustered index on the table rows ``values`` at ``rids``."""
        index = cls(name, schema, key_columns, included_columns, object_id=object_id)
        keys, order = index._sorted_entries(rids, values)
        payloads = Records([values.column(i)[order]
                            for i in index.included_ordinals], len(keys))
        index.tree = BPlusTree.from_columns(
            keys, payloads, leaf_capacity=index.tree.leaf_capacity)
        return index

    def _payload(self, row: Row) -> Row:
        return tuple(row[i] for i in self.included_ordinals)

    def insert(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Insert one row, charging maintenance costs to ``ctx``."""
        trip(self.faults, "btree.insert")
        self._charge_traversal(ctx)
        self._add(self._make_key(row, rid), self._payload(row))
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.btree_update_cpu_ms_per_row)

    def delete(self, rid: int, row: Row, ctx: Optional[ExecutionContext] = None) -> None:
        """Delete one row, charging maintenance costs to ``ctx``."""
        trip(self.faults, "btree.delete")
        self._charge_traversal(ctx)
        self._remove(self._make_key(row, rid))
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.btree_update_cpu_ms_per_row)

    def update(
        self,
        rid: int,
        old_row: Row,
        new_row: Row,
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        """Update one row in place (delete+insert when keys change)."""
        old_key = self._make_key(old_row, rid)
        new_key = self._make_key(new_row, rid)
        relevant = self.key_ordinals + self.included_ordinals
        if old_key == new_key and all(old_row[i] == new_row[i] for i in relevant):
            return  # the index does not cover any modified column
        trip(self.faults, "btree.update")
        self._charge_traversal(ctx)
        self._remove(old_key)
        trip(self.faults, "btree.insert")
        self._add(new_key, self._payload(new_row))
        if ctx is not None:
            ctx.charge_serial_cpu(ctx.cost_model.btree_update_cpu_ms_per_row)

    def entry_ordinals(self, columns: Sequence[str]) -> List[int]:
        """Where each of ``columns`` sits in ``key + payload + fetched``:
        a leaf entry's key columns, its rid, its included columns, and
        behind them whatever a bookmark lookup appends — the non-covered
        ``columns``, in their order of appearance."""
        n_keys = len(self.key_columns)
        fetched = [c for c in columns if c not in self.covered_columns]
        ordinals = []
        for column in columns:
            if column in fetched:
                ordinals.append(len(self.covered_columns) + 1 + fetched.index(column))
            else:
                position = self.covered_columns.index(column)
                ordinals.append(position if position < n_keys else position + 1)
        return ordinals

    def entry_rows(self, keys: List[Key], payloads: List[Row]) -> Sequence[Row]:
        """One chunk as ``key + payload`` rows (see :meth:`entry_ordinals`)."""
        return list(map(add, keys, payloads)) if self.included_ordinals else keys

    def seek_range(
        self,
        low: Optional[Key],
        high: Optional[Key],
        ctx: Optional[ExecutionContext] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Chunk]:
        """(keys, payloads) leaf chunks in key order: a key is the key
        columns plus the rid, a payload the included columns (see
        :meth:`entry_ordinals`)."""
        yield from self._seek_chunks(low, high, ctx, low_inclusive, high_inclusive)

    def scan(self, ctx: Optional[ExecutionContext] = None) -> Iterator[Chunk]:
        """Iterate the structure's rows/batches in storage order."""
        yield from self.seek_range(None, None, ctx)


class PagedLeafSource:
    """Demand-paged leaf storage of one B+ index.

    The lazy snapshot loader hands each paged index one of these: the
    resident half is tiny (item count, one fence key per leaf page, page
    locations), the leaf pages themselves are fetched through the buffer
    pool on first touch and evicted LRU under its budget. ``fences[i]``
    is the first key of leaf page ``i`` — a one-level "internal node"
    kept in memory, exactly the tentpole's contract (catalog and B+
    internal structure resident, leaves paged).

    ``read_page(offset, length)`` decodes one PT_BTREE_LEAF page into
    its ``(keys, values)`` chunk, which is what the pool caches: the key
    list and the :class:`Records` a resident leaf holds. It is supplied
    by :mod:`repro.storage.pages` so this module stays codec-free.

    The pool keys each frame ``(source, page id)``: a B+ index's object
    id is 0 in the snapshot, so the source itself is what tells its
    frames from every other index's, and :meth:`evict` drops only them.
    """

    __slots__ = ("pool", "n_items", "fences", "page_locs", "read_page")

    def __init__(self, pool, n_items: int, fences: Sequence[Key],
                 page_locs: Sequence[Tuple[int, int, int]],
                 read_page) -> None:
        self.pool = pool
        self.n_items = n_items
        self.fences = [tuple(f) for f in fences]
        #: (snapshot page id, byte offset, byte length) per leaf page.
        self.page_locs = list(page_locs)
        self.read_page = read_page

    @property
    def n_pages(self) -> int:
        return len(self.page_locs)

    def fetch(self, page_no: int, pin: bool = False) -> Chunk:
        """One leaf page's chunk, faulting it in through the pool."""
        page_id, offset, length = self.page_locs[page_no]
        return self.pool.get_or_load(
            (self, page_id),
            lambda: (self.read_page(offset, length), length),
            pin=pin,
        )

    def unpin(self, page_no: int) -> None:
        self.pool.unpin((self, self.page_locs[page_no][0]))

    def evict(self) -> None:
        """Drop every resident leaf page of this index from the pool."""
        self.pool.evict_object(self)


class _PagedBTreeMixin:
    """Demand-paged read paths for a B+ index restored lazily.

    While paged, seeks and scans route through the leaf-fence array and
    fetch only the touched leaf pages (pinned for the duration of the
    read); a checkpoint writes the leaves from the same chunks. Any
    access that needs the full in-memory tree — a mutation,
    ``check_invariants`` — goes through the ``tree`` property, which
    transparently **materializes**: all leaf pages are read once, their
    columns adopted by a real :class:`BPlusTree`
    (:meth:`BPlusTree.from_columns`, no row built), and the paged pages
    evicted from the pool. After materialization the index is
    indistinguishable from an eagerly restored one, so correctness never
    depends on staying paged.

    Modeled-cost parity: ``_charge_traversal`` of a paged index charges
    the height the materialized tree *would* have (the deterministic
    ``bulk_load`` shape recomputed from the item count), so modeled
    metrics are identical whether or not the index ever materializes.
    """

    _paged: Optional[PagedLeafSource] = None

    def attach_paged(self, source: PagedLeafSource) -> None:
        self._paged = source

    @property
    def tree(self) -> BPlusTree:
        if self._paged is not None:
            self._materialize()
        return self._tree

    @tree.setter
    def tree(self, value: BPlusTree) -> None:
        self._tree = value
        self._paged = None

    @property
    def is_paged(self) -> bool:
        """Whether leaf pages still live behind the buffer pool."""
        return self._paged is not None

    def release_pages(self) -> None:
        """Drop this index's leaf frames from the pool (the table drops
        or replaces the index)."""
        if self._paged is not None:
            self._paged.evict()

    def _materialize(self) -> None:
        source = self._paged
        keys: List[Key] = []
        parts: List[Records] = []
        for page_no in range(source.n_pages):
            page_keys, values = source.fetch(page_no)
            keys += page_keys
            parts.append(values)
        tree = BPlusTree.from_columns(
            keys, Records.concat(parts),
            leaf_capacity=self._tree.leaf_capacity,
            internal_capacity=self._tree.internal_capacity)
        self._tree = tree
        self._paged = None
        source.evict()
        if isinstance(self, PrimaryBTreeIndex):
            self.map_rids(keys)     # onto the resident leaves' keys

    def __len__(self) -> int:
        if self._paged is not None:
            return self._paged.n_items
        return len(self._tree)

    def _paged_height(self) -> int:
        """Height of the tree :meth:`_materialize` would build — the
        deterministic :meth:`BPlusTree.bulk_load` shape recomputed from
        the item count, so paged and materialized traversals charge
        identical modeled I/O."""
        n = self._paged.n_items
        if n == 0:
            return 1
        fill = max(4, int(self._tree.leaf_capacity * 0.85))
        fanout = max(4, int(self._tree.internal_capacity * 0.85))
        level = -(-n // fill)
        height = 1
        while level > 1:
            level = -(-level // fanout)
            height += 1
        return height

    def _charge_traversal(self, ctx: Optional[ExecutionContext]) -> None:
        if ctx is None:
            return
        if self._paged is not None:
            ctx.charge_random_read(self._paged_height())
            ctx.charge_serial_cpu(ctx.cost_model.seek_cpu_ms)
        else:
            super()._charge_traversal(ctx)

    def _leaf_chunks(self, *bounds) -> Iterator[Chunk]:
        if self._paged is None:
            return super()._leaf_chunks(*bounds)
        return self._paged_scan(*bounds)

    def _paged_scan(
        self,
        low: Optional[Key],
        high: Optional[Key],
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> Iterator[Chunk]:
        """:meth:`BPlusTree.leaf_chunks` over paged leaves: one chunk per
        page, the page pinned while its chunk is out so LRU pressure
        from other sessions cannot evict it mid-read."""
        source = self._paged
        first = 0 if low is None else max(0, bisect_right(source.fences, low) - 1)
        for page_no in range(first, source.n_pages):
            keys, values = source.fetch(page_no, pin=True)
            try:
                keys, values, last = _clip_leaf(
                    keys, values, low, high, low_inclusive, high_inclusive)
                if keys:
                    yield keys, values
            finally:
                source.unpin(page_no)
            if last:
                return
            low = None

    def _get_many(self, keys: List[Key]) -> List[Optional[Row]]:
        if self._paged is None:
            return super()._get_many(keys)
        source, found = self._paged, []
        if source.n_pages == 0:
            return [None] * len(keys)
        for page_no, group in groupby(keys, key=lambda key: max(
                0, bisect_right(source.fences, key) - 1)):
            page_keys, values = source.fetch(page_no, pin=True)
            try:
                for key in group:
                    idx = bisect_left(page_keys, key)
                    found.append(values[idx] if idx < len(page_keys)
                                 and page_keys[idx] == key else None)
            finally:
                source.unpin(page_no)
        return found


class PagedPrimaryBTreeIndex(_PagedBTreeMixin, PrimaryBTreeIndex):
    """Clustered B+ index with demand-paged leaves.

    Read paths (seek/scan/rid fetch) page leaf pages in through the
    buffer pool; the rid -> key map stays resident. Mutations inherit
    the base implementations, which touch ``self.tree`` and therefore
    materialize first (redo during recovery forces residency the same
    way).
    """


class PagedSecondaryBTreeIndex(_PagedBTreeMixin, SecondaryBTreeIndex):
    """Nonclustered B+ index with demand-paged leaves (see
    :class:`PagedPrimaryBTreeIndex`)."""


class _Infinity:
    """Sorts above every value of any type (used to pad prefix bounds)."""

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return True

    def __le__(self, other: object) -> bool:
        return other is self

    def __ge__(self, other: object) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return "+inf"


_INFINITY = _Infinity()


def _pad_prefix_bounds(
    low: Optional[Key],
    high: Optional[Key],
    low_inclusive: bool,
    high_inclusive: bool,
) -> Tuple[Optional[Key], Optional[Key]]:
    """Convert prefix bounds on key columns into full-key bounds.

    Stored keys end in a RID, so a prefix bound ``(5,)`` compares *below*
    every stored key ``(5, rid)``. To make bounds behave per-prefix:

    * an *exclusive* low bound must skip all keys with that prefix, so it
      is padded with ``+inf``;
    * an *inclusive* high bound must keep all keys with that prefix, so it
      is padded with ``+inf``;
    * the remaining two cases need no padding — tuple comparison against
      the shorter prefix already does the right thing.
    """
    low_key: Optional[Key] = None
    high_key: Optional[Key] = None
    if low is not None:
        low_key = tuple(low) if low_inclusive else tuple(low) + (_INFINITY,)
    if high is not None:
        high_key = tuple(high) + (_INFINITY,) if high_inclusive else tuple(high)
    return low_key, high_key

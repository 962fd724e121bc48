"""Leaf operators: heap scans, B+ tree seeks/scans, RID lookups, and
columnstore scans.

These are the access paths the optimizer chooses among, and the leaves
counted in Figure 10's plan-composition analysis. Every scan records a
``leaf_access`` metric tagged with the index kind it reads.

``ROW_MODE`` on the rowstore scans is the cost model's label (modeled
CPU per row); the implementation reads whole leaf chunks
(:mod:`repro.storage.btree`) by column and filters them with the
vectorised evaluator, see :meth:`_ScanBase.chunk_step`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ExecutionError
from repro.engine.batch import (
    Batch,
    PendingColumns,
    RowColumns,
    eval_column,
    rows_to_batch,
)
from repro.engine.expressions import (
    ColumnRange,
    Expr,
    drop_folded_conjuncts,
    eval_batch,
)
from repro.engine.metrics import ExecutionContext
from repro.engine.operators.base import (
    BATCH_MODE,
    DEFAULT_BATCH_ROWS,
    PhysicalOperator,
    ROW_MODE,
)
from repro.storage.btree import PrimaryBTreeIndex, SecondaryBTreeIndex
from repro.storage.columnstore import RID_COLUMN, ColumnstoreIndex
from repro.storage.heap import HeapFile
from repro.storage.table import Table


def _qualify(prefix: str, names: Sequence[str]) -> List[str]:
    return [prefix + name for name in names]


def compose_prefix_bounds(ranges: Sequence[ColumnRange]):
    """Build composite-key seek bounds from per-column ranges.

    ``ranges`` aligns with the index's leading key columns; every entry
    but the last must be a point (equality), the last may be a range —
    the classic composite-key sargability rule. Returns
    (low_tuple, high_tuple, low_inclusive, high_inclusive) with ``None``
    for open bounds.
    """
    if not ranges:
        return None, None, True, True
    for column_range in ranges[:-1]:
        if not column_range.is_point:
            raise ExecutionError(
                "only the last seek column may be a non-point range")
    points = [r.low for r in ranges[:-1]]
    final = ranges[-1]
    low_inclusive = high_inclusive = True
    if final.low is not None:
        low = tuple(points) + (final.low,)
        low_inclusive = final.low_inclusive
    elif points:
        low = tuple(points)
    else:
        low = None
    if final.high is not None:
        high = tuple(points) + (final.high,)
        high_inclusive = final.high_inclusive
    elif points:
        high = tuple(points)
    else:
        high = None
    return low, high, low_inclusive, high_inclusive


class _ScanBase(PhysicalOperator):
    """Shared bits for leaf scans: output naming and residual filters."""

    #: Whether non-covered columns are fetched by bookmark lookup.
    needs_lookup = False

    def __init__(
        self,
        table: Table,
        columns: Sequence[str],
        residual: Optional[Expr] = None,
        prefix: str = "",
        dop: int = 1,
    ):
        super().__init__(children=(), dop=dop)
        self.table = table
        self.columns = list(columns)
        self.residual = residual
        self.prefix = prefix
        self._ordinals = table.schema.ordinals(self.columns)

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return _qualify(self.prefix, self.columns)

    def _seek_on(self, key_range, key_ranges) -> None:
        """Record the seek ranges along the index key prefix and drop from
        the residual the conjuncts they were derived from: the seek
        bounds enforce those, so a point lookup keeps no residual."""
        if key_ranges is None and key_range is not None:
            key_ranges = [key_range]
        self.key_ranges = list(key_ranges) if key_ranges else None
        self.key_range = self.key_ranges[0] if self.key_ranges else None
        self.residual = drop_folded_conjuncts(self.residual, self.key_ranges or ())

    def _source_widths(self) -> List[int]:
        """Field counts of the sources an entry chunk holds, in the order
        ``_ordinals`` counts through them: by default one, the whole row
        (the records of a heap leaf or a clustered leaf)."""
        return [len(self.table.schema.columns)]

    def chunk_step(self, ctx: ExecutionContext) -> Callable:
        """The per-chunk step of a rowstore scan: ``step(sources,
        pending)`` adds to ``pending`` (a :class:`PendingColumns`) the
        output columns of the entries that pass the residual.

        An entry chunk is a list of equal-length sources read by column:
        a leaf's :class:`~repro.storage.records.Records`, or
        :class:`RowColumns` where the entries are rows (a secondary
        leaf's key tuples, bookmark-looked-up columns). ``_ordinals[i]``
        is where output column ``i`` sits across them (see
        :meth:`_source_widths`). Entries that need bookmark lookups
        first gain one more source, the looked-up columns; then the
        residual's columns are read and evaluated in one
        :func:`eval_batch` call, the sources are cut to the survivors,
        and the survivors' output columns are read.
        """
        widths = self._source_widths()
        at = [_locate(ordinal, widths) for ordinal in self._ordinals]
        widen = self._with_lookups(ctx) if self.needs_lookup else None
        residual = self.residual
        if residual is not None:
            filter_names = (list(dict.fromkeys(residual.columns()))
                            or self.output_columns[:1])  # a constant predicate
            filter_at = [at[self._output_position(name)]
                         for name in filter_names]

        def step(sources, pending):
            if widen is not None:
                sources = sources + [widen(sources)]
            if residual is not None:
                mask = eval_batch(residual, Batch({
                    name: eval_column(sources[source].column(ordinal))
                    for name, (source, ordinal) in zip(filter_names, filter_at)
                }), ctx)
                mask = np.asarray(mask, dtype=bool)
                if not mask.any():
                    return
                sources = [source.take(mask) for source in sources]
            pending.add([sources[source].column(ordinal)
                         for source, ordinal in at])
        return step

    def _chunks_to_batches(
        self,
        ctx: ExecutionContext,
        chunks: Iterable[List[object]],
        kind: str,
    ) -> Iterator[Batch]:
        """Turn a stream of entry chunks (see :meth:`chunk_step`) into
        output batches and charge the scan for them.

        Output batches hold ``DEFAULT_BATCH_ROWS`` rows (the last one
        fewer). A chunk is never stepped past the row that fills a
        batch, so a bookmark lookup's charges keep their order relative
        to the charges of the operators consuming that batch.
        """
        names = self.output_columns
        step = self.chunk_step(ctx)
        pending = PendingColumns(len(names))
        scanned = 0
        for sources in chunks:
            size = len(sources[0])
            scanned += size
            start = 0
            while start < size:
                stop = min(size, start + DEFAULT_BATCH_ROWS - pending.count)
                step(sources if stop - start == size
                     else [source.view(start, stop) for source in sources],
                     pending)
                start = stop
                if pending.count >= DEFAULT_BATCH_ROWS:
                    yield pending.batch(names)
                    pending = PendingColumns(len(names))
        self.charge_rows(ctx, scanned, 2.0 if self.needs_lookup else 1.0)
        ctx.metrics.record_leaf_access(kind)
        if pending.count:
            yield pending.batch(names)

    def _output_position(self, name: str) -> int:
        # Residual predicates reference qualified output names.
        try:
            return self.output_columns.index(name)
        except ValueError:
            raise ExecutionError(f"unknown column {name!r}") from None


def _locate(ordinal: int, widths: Sequence[int]) -> Tuple[int, int]:
    """(source, field) of entry ordinal ``ordinal`` across sources of
    ``widths`` fields each."""
    for source, width in enumerate(widths):
        if ordinal < width:
            return source, ordinal
        ordinal -= width
    raise ExecutionError(f"entry ordinal {ordinal} is past the entry")


class HeapScan(_ScanBase):
    """Full scan of a heap file (row mode)."""

    mode = ROW_MODE

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        heap = self.table.primary
        if not isinstance(heap, HeapFile):
            raise ExecutionError(f"{self.table.name} primary is not a heap")
        ctx.charge_parallel_startup(self.dop)
        chunks = ([values] for _, values in heap.scan(ctx))
        yield from self._chunks_to_batches(ctx, chunks, "heap")

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"HeapScan({self.table.name}) cols={self.columns} "
                f"[{self.mode}, dop={self.dop}]")


class _BTreeSeekBase(_ScanBase):
    """A range seek on a B+ tree. :meth:`execute` runs the seek that
    ``key_ranges`` describe; a nested-loop join runs one per outer row
    through the same :meth:`entry_chunks` and :meth:`chunk_step`. Output
    is ordered by the index key columns."""

    mode = ROW_MODE

    @property
    def output_ordering(self) -> List[str]:
        """Sorted-prefix columns of the output ([] when unsorted)."""
        return _qualify(self.prefix, self.index.key_columns)

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        low, high, *inclusive = compose_prefix_bounds(self.key_ranges or ())
        ctx.charge_parallel_startup(self.dop)
        yield from self._chunks_to_batches(
            ctx, self.entry_chunks(ctx, low, high, *inclusive), "btree")

    def entry_chunks(self, ctx: ExecutionContext, low, high,
                     *inclusive: bool) -> Iterator[List[object]]:
        """The leaf entries between the bounds as entry chunks (see
        :meth:`chunk_step`), one per leaf: the leaf's own records,
        charged as the index charges a seek."""
        return ([values] for _, values in self.index.seek_range(
            low, high, ctx, *inclusive))

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        bounds = "full" if self.key_range is None else (
            f"[{self.key_range.low}..{self.key_range.high}]")
        lookup = " +lookup" if self.needs_lookup else ""
        return (f"{type(self).__name__}({self.table.name}.{self.index.name} "
                f"{bounds}){lookup} cols={self.columns} "
                f"[{self.mode}, dop={self.dop}]")


class BTreeSeek(_BTreeSeekBase):
    """Range seek (or full ordered scan) on the clustered B+ tree.

    ``key_range`` bounds the leading key column; ``None`` means a full
    scan of the leaf chain.
    """

    def __init__(
        self,
        table: Table,
        columns: Sequence[str],
        key_range: Optional[ColumnRange] = None,
        key_ranges: Optional[Sequence[ColumnRange]] = None,
        residual: Optional[Expr] = None,
        prefix: str = "",
        dop: int = 1,
    ):
        super().__init__(table, columns, residual, prefix, dop)
        if not isinstance(table.primary, PrimaryBTreeIndex):
            raise ExecutionError(
                f"{table.name} primary is not a clustered B+ tree")
        self.index: PrimaryBTreeIndex = table.primary
        self._seek_on(key_range, key_ranges)


class SecondaryBTreeSeek(_BTreeSeekBase):
    """Seek on a nonclustered B+ tree, with RID lookups for non-covered
    columns (the classic bookmark-lookup plan whose random I/O makes
    secondary seeks expensive at high selectivity)."""

    def __init__(
        self,
        table: Table,
        index: SecondaryBTreeIndex,
        columns: Sequence[str],
        key_range: Optional[ColumnRange] = None,
        key_ranges: Optional[Sequence[ColumnRange]] = None,
        residual: Optional[Expr] = None,
        prefix: str = "",
        dop: int = 1,
    ):
        super().__init__(table, columns, residual, prefix, dop)
        self.index = index
        self._seek_on(key_range, key_ranges)
        covered = set(index.covered_columns)
        self.lookup_columns = [c for c in self.columns if c not in covered]
        self.needs_lookup = bool(self.lookup_columns)
        self._lookup_ordinals = table.schema.ordinals(self.lookup_columns)
        self._ordinals = index.entry_ordinals(self.columns)

    def entry_chunks(self, ctx, low, high, *inclusive):
        """One entry chunk per leaf: its key tuples (key columns, then
        the rid) and its payload records (the included columns)."""
        return ([RowColumns(keys), values] for keys, values in
                self.index.seek_range(low, high, ctx, *inclusive))

    def _source_widths(self) -> List[int]:
        """Key tuples, payload records, then the looked-up columns (see
        :meth:`SecondaryBTreeIndex.entry_ordinals`)."""
        return [len(self.index.key_columns) + 1,
                len(self.index.included_columns), len(self.lookup_columns)]

    def _with_lookups(self, ctx: ExecutionContext) -> Callable:
        """sources -> the bookmark-lookup columns of their entries, one
        charged fetch per rid."""
        lookup, ordinals = self.table.lookup_columns, self._lookup_ordinals
        rid_at = len(self.index.key_columns)
        return lambda sources: RowColumns(lookup(
            [key[rid_at] for key in sources[0].rows], ordinals, ctx))


def btree_seek(table: Table, index, columns: Sequence[str],
               **options) -> _BTreeSeekBase:
    """The seek operator for ``index``: every B+ seek of a plan, the
    inner side of a nested-loop join included, is built here."""
    if isinstance(index, SecondaryBTreeIndex):
        return SecondaryBTreeSeek(table, index, columns, **options)
    if isinstance(index, PrimaryBTreeIndex):
        return BTreeSeek(table, columns, **options)
    raise ExecutionError("a seek needs a B+ tree index")


class ColumnstoreScan(_ScanBase):
    """Batch-mode scan of a columnstore index with predicate pushdown.

    Pushes sargable ranges into segment elimination and applies the full
    predicate vectorized over each decoded batch.
    """

    mode = BATCH_MODE

    def __init__(
        self,
        table: Table,
        index: ColumnstoreIndex,
        columns: Sequence[str],
        pushdown_ranges: Optional[Dict[str, Tuple[object, object]]] = None,
        residual: Optional[Expr] = None,
        prefix: str = "",
        dop: int = 1,
        include_rids: bool = False,
    ):
        super().__init__(table, columns, residual, prefix, dop)
        self.index = index
        self.pushdown_ranges = pushdown_ranges or {}
        self.include_rids = include_rids
        #: Bare column names the scan must decode: projected + filtered.
        filter_columns = residual.columns() if residual is not None else []
        bare_filter = [c[len(prefix):] if c.startswith(prefix) else c
                       for c in filter_columns]
        self._read_columns = list(dict.fromkeys(list(columns) + bare_filter))

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        names = _qualify(self.prefix, self.columns)
        if self.include_rids:
            names.append(RID_COLUMN)
        return names

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        ctx.charge_parallel_startup(self.dop)
        raw_batches = self.index.scan(
            self._read_columns, ctx,
            elimination_ranges=self.pushdown_ranges or None,
            include_rids=self.include_rids)
        total = 0
        for raw in raw_batches:
            total += len(raw)
            batch = self._postprocess_raw(raw, ctx)
            if batch is not None:
                yield batch
        self.charge_rows(ctx, total)
        ctx.metrics.record_leaf_access("csi")

    def _postprocess_raw(self, raw: Batch,
                         ctx: ExecutionContext) -> Optional[Batch]:
        """Qualify names, apply the residual, and project one raw batch
        from the index scan; None when the residual filters it empty."""
        output_names = _qualify(self.prefix, self._read_columns)
        renamed = {}
        for bare, qualified in zip(self._read_columns, output_names):
            renamed[qualified] = raw.column(bare)
        if self.include_rids:
            renamed[RID_COLUMN] = raw.column(RID_COLUMN)
        batch = Batch(renamed)
        if self.residual is not None:
            mask = eval_batch(self.residual, batch, ctx)
            batch = batch.filter(mask)
        if len(batch) == 0:
            return None
        return batch.project(self.output_columns)

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        push = f" push={sorted(self.pushdown_ranges)}" if self.pushdown_ranges else ""
        return (f"ColumnstoreScan({self.table.name}.{self.index.name})"
                f"{push} cols={self.columns} [{self.mode}, dop={self.dop}]")


class RidLookup(PhysicalOperator):
    """Fetch extra columns from the base table for each input RID.

    Used when a columnstore scan feeds a plan that needs columns the CSI
    does not store, or by UPDATE/DELETE plans locating target rows.
    """

    mode = ROW_MODE

    def __init__(self, child: PhysicalOperator, table: Table,
                 columns: Sequence[str], prefix: str = "", dop: int = 1):
        super().__init__(children=(child,), dop=dop)
        self.table = table
        self.columns = list(columns)
        self.prefix = prefix
        self._ordinals = table.schema.ordinals(self.columns)

    @property
    def output_columns(self) -> List[str]:
        """Names of the columns produced, in order."""
        return self.child().output_columns + _qualify(self.prefix, self.columns)

    def execute(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Run the operator, yielding result batches."""
        new_names = _qualify(self.prefix, self.columns)
        for batch in self.child().execute(ctx):
            rids = batch.column(RID_COLUMN)
            # One batched fetch per input batch (one charge call instead
            # of one per rid) — bookmark-lookup plans stop paying Python
            # call overhead per row.
            fetched_rows = self.table.fetch_columns_batch(
                rids.tolist(), self._ordinals, ctx)
            self.charge_rows(ctx, len(batch))
            columns = dict(batch.columns)
            extra = rows_to_batch(fetched_rows, new_names)
            if extra is not None:
                for name in new_names:
                    columns[name] = extra.column(name)
                yield Batch(columns)

    def describe(self) -> str:
        """One-line human-readable summary of this node."""
        return (f"RidLookup({self.table.name}) cols={self.columns} "
                f"[{self.mode}, dop={self.dop}]")



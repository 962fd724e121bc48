"""Index merging: DTA's first global-analysis step (Section 4.1/4.3).

Per-query candidates are often near-duplicates (same keys, slightly
different INCLUDE lists). Merging produces consolidated candidates that
serve several queries with less storage:

* identical key lists -> union the INCLUDE lists;
* one key list a prefix of another -> keep the longer keys, union the
  INCLUDEs.

Columnstores never merge with B+ trees, and because the advisor considers
a single all-columns CSI per table (option (ii)), two CSI candidates on
the same table merge trivially by column union (Section 4.3: "if at least
one of the indexes is a columnstore, then the candidates are not merged"
— with B+ trees).
"""

from __future__ import annotations

from typing import List

from repro.advisor.candidates import CandidateSet
from repro.optimizer.catalog import Catalog
from repro.optimizer.plans import KIND_CSI, IndexDescriptor
from repro.optimizer.whatif import hypothetical_btree


def merge_btree_pair(a: IndexDescriptor, b: IndexDescriptor,
                     catalog: Catalog) -> IndexDescriptor:
    """Merge two B+ tree candidates on the same table (caller guarantees
    mergeability)."""
    if len(a.key_columns) >= len(b.key_columns):
        longer, shorter = a, b
    else:
        longer, shorter = b, a
    keys = list(longer.key_columns)
    include = [c for c in dict.fromkeys(
        list(longer.included_columns) + list(shorter.included_columns)
        + list(shorter.key_columns))
        if c not in keys]
    stats = catalog.stats(a.table_name)
    return hypothetical_btree(
        a.table_name, keys, include, n_rows=stats.row_count,
        column_bytes=catalog.column_bytes(a.table_name),
        name=f"hbm_{a.table_name}_{'_'.join(keys)[:40]}",
    )


def can_merge_btrees(a: IndexDescriptor, b: IndexDescriptor) -> bool:
    """Whether two B+ tree candidates are mergeable (same table, prefix keys)."""
    if a.table_name != b.table_name:
        return False
    if a.kind == KIND_CSI or b.kind == KIND_CSI:
        return False  # columnstore and B+ tree cannot be merged
    shorter, longer = sorted((a.key_columns, b.key_columns), key=len)
    return longer[:len(shorter)] == shorter


def merge_candidates(pool: CandidateSet,
                     catalog: Catalog) -> List[IndexDescriptor]:
    """Produce merged candidates from every mergeable B+ tree pair.

    Returns only the *new* merged descriptors; the originals stay in the
    pool (the global search chooses among originals and merges).
    """
    btrees = list(pool.btrees.values())
    merged: List[IndexDescriptor] = []
    seen_signatures = set()
    for i in range(len(btrees)):
        for j in range(i + 1, len(btrees)):
            a, b = btrees[i], btrees[j]
            if not can_merge_btrees(a, b):
                continue
            candidate = merge_btree_pair(a, b, catalog)
            signature = (candidate.table_name,
                         tuple(candidate.key_columns),
                         tuple(sorted(candidate.included_columns)))
            if signature in seen_signatures:
                continue
            if any(signature == (d.table_name, tuple(d.key_columns),
                                 tuple(sorted(d.included_columns)))
                   for d in btrees):
                continue
            seen_signatures.add(signature)
            merged.append(pool.add(candidate))
    return merged

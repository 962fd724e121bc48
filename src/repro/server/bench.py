"""The CH database ``serve``, the SQL-corpus tests and the e2e benchmark
share (it stays at this import path until ROADMAP item 1 moves it)."""

from __future__ import annotations

from repro.storage.database import Database


def build_ch_database(n_warehouses: int = 2) -> Database:
    """A CH database under the hybrid physical design."""
    from repro.workloads.ch import apply_ch_hybrid_design, generate_ch
    database = Database("ch-serving")
    generate_ch(database, n_warehouses=n_warehouses)
    apply_ch_hybrid_design(database)
    return database

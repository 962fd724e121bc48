"""The independent answer oracle the tests share: a ``sqlite3`` mirror.

``sqlite_mirror`` copies tables into an in-memory ``sqlite3`` database;
a test then runs the same statements (DML included, in the same order)
against the engine and the mirror and compares. The columns are created
without a declared type, so the mirror stores each value as the engine
holds it (no affinity conversion).
"""

import sqlite3
from typing import Iterable, List, Tuple

from hypothesis import settings

from repro.storage.database import Database
from repro.storage.table import Table


def sqlite_mirror(tables: Iterable[Table]) -> sqlite3.Connection:
    """An in-memory ``sqlite3`` database holding a copy of ``tables``."""
    connection = sqlite3.connect(":memory:")
    for table in tables:
        names = table.schema.column_names()
        connection.execute(f"CREATE TABLE {table.name} ({', '.join(names)})")
        connection.executemany(
            f"INSERT INTO {table.name} VALUES ({', '.join('?' * len(names))})",
            [row for _, row in table.iter_rows()])
    return connection


def sqlite_answer(database: Database, sql: str) -> List[Tuple[object, ...]]:
    """The rows ``sqlite3`` answers ``sql`` with over a copy of
    ``database``, sorted."""
    return sorted(sqlite_mirror(database.tables()).execute(sql).fetchall())


def examples(tier1: int) -> settings:
    """Hypothesis settings for a property of an oracle suite: ``tier1``
    examples in an ordinary run, the profile's count under a profile
    chosen with ``--hypothesis-profile`` (``long``, see ``conftest.py``)."""
    chosen = settings.default.max_examples
    if chosen == settings.get_profile("default").max_examples:
        chosen = tier1
    return settings(max_examples=chosen, deadline=None)

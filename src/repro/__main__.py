"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    The quickstart walkthrough (B+ tree vs columnstore, advisor loop).
``micro --experiment {selectivity,updates,groupby}``
    Run one micro-benchmark sweep and print the paper-style table.
``tune --workload {tpcds,cust1..cust5} [--mode hybrid|btree_only|csi_only]``
    Tune a workload and print the recommendation.
``inventory``
    Build the TPC-H database and print its physical design inventory.
``check [--faults]``
    Build a small hybrid-design workload, run DML through it, and run
    the CHECKDB-style consistency checker over every index; with
    ``--faults`` every statement also survives an injected storage
    fault first (exit code 1 on any inconsistency).
``analyze "<sql>" [--workload tpch|tpcds] [--design btree|csi] [--cold]``
    EXPLAIN ANALYZE: run one statement against a generated workload
    database and print the plan tree annotated with estimated vs actual
    rows and per-operator elapsed/CPU/I-O/memory; ``--trace FILE``
    additionally writes a Chrome trace-event JSON of the plan timeline.
``monitor [--snapshot|--prometheus] [--watch N] [--events-jsonl FILE]``
    Run a TPC-DS mini-workload (queries + DML) against a hybrid design
    and report the DMV telemetry it accumulates: index usage, rowgroup
    physical stats, missing-index observations, cache counters, wait
    statistics, the extended-events ring, the per-interval telemetry
    history, and the query store. Default output is a human-readable
    report assembled by SELECTing from the ``dm_*`` system views
    through the SQL engine; ``--snapshot`` prints the raw JSON
    snapshot, ``--prometheus`` the Prometheus text exposition,
    ``--watch N`` repeats the workload for N rounds printing the report
    after each, and ``--events-jsonl FILE`` exports the event ring as
    JSON Lines.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(_args) -> int:
    import random

    from repro import (Column, Database, Executor, INT, TableSchema,
                       TuningAdvisor, Workload, varchar)

    def build() -> Database:
        """Construct and populate the demo database."""
        database = Database("demo")
        orders = database.create_table(TableSchema("orders", [
            Column("o_id", INT, nullable=False),
            Column("o_customer", INT, nullable=False),
            Column("o_status", varchar(1)),
            Column("o_amount", INT),
            Column("o_region", INT),
        ]))
        rng = random.Random(7)
        orders.bulk_load([
            (i, rng.randrange(5_000), rng.choice("NPS"),
             rng.randrange(10_000), rng.randrange(8))
            for i in range(100_000)
        ])
        return database

    selective = ("SELECT sum(o_amount) FROM orders "
                 "WHERE o_id BETWEEN 500 AND 520")
    analytic = ("SELECT o_region, sum(o_amount) t FROM orders "
                "GROUP BY o_region")
    print("=== the trade-off (Figure 1 in miniature) ===")
    for design in ("B+ tree", "columnstore"):
        database = build()
        if design == "B+ tree":
            database.table("orders").set_primary_btree(["o_id"])
        else:
            database.table("orders").set_primary_columnstore()
        executor = Executor(database)
        sel = executor.execute(selective).metrics.cpu_ms
        scan = executor.execute(analytic).metrics.cpu_ms
        print(f"  {design:12s}: selective {sel:8.3f} ms CPU, "
              f"analytic {scan:8.3f} ms CPU")

    print("\n=== the advisor picks a hybrid design ===")
    database = build()
    database.table("orders").set_primary_btree(["o_id"])
    workload = Workload.from_sql([
        "SELECT sum(o_amount) FROM orders WHERE o_customer = 42",
        analytic,
    ], database)
    advisor = TuningAdvisor(database)
    recommendation = advisor.tune(workload)
    print(recommendation.summary())

    if getattr(_args, "data_dir", None):
        from repro.storage.recovery import recover, state_digest

        print("\n=== durable storage round trip ===")
        database.save(_args.data_dir)
        reopened, report = recover(_args.data_dir)
        same = state_digest(database) == state_digest(reopened)
        print(f"saved to {_args.data_dir}, reopened "
              f"{report.snapshot_pages} pages, consistency check "
              f"{'clean' if report.check_ok else 'FAILED'}, "
              f"state {'identical' if same else 'DIVERGED'}")
        if not (report.check_ok and same):
            return 1
    return 0


def _cmd_micro(args) -> int:
    from repro.bench.reporting import format_table
    from repro.engine.executor import Executor
    from repro.storage.database import Database
    from repro.workloads.synthetic import (
        PAPER_SELECTIVITIES_PCT,
        make_group_table,
        make_uniform_table,
        q1_scan,
        q3_group_by,
    )

    if args.experiment == "selectivity":
        rows = []
        db_b = Database()
        make_uniform_table(db_b, "micro", args.rows, 1, seed=5)
        db_b.table("micro").set_primary_btree(["col1"])
        db_c = Database()
        make_uniform_table(db_c, "micro", args.rows, 1, seed=5)
        db_c.table("micro").set_primary_columnstore()
        ex_b, ex_c = Executor(db_b), Executor(db_c)
        for selectivity in PAPER_SELECTIVITIES_PCT:
            sql = q1_scan(selectivity)
            bt = ex_b.execute(sql)
            csi = ex_c.execute(sql)
            rows.append((selectivity, bt.metrics.elapsed_ms,
                         csi.metrics.elapsed_ms, bt.metrics.cpu_ms,
                         csi.metrics.cpu_ms))
        print(format_table(
            ["sel%", "btree ms", "CSI ms", "btree CPU", "CSI CPU"], rows,
            title=f"Q1 selectivity sweep, {args.rows} rows (Figure 1)"))
        return 0

    if args.experiment == "groupby":
        rows = []
        for n_groups in (100, 1_000, 10_000, 50_000):
            db_b = Database()
            make_group_table(db_b, "micro3", args.rows, n_groups)
            db_b.table("micro3").set_primary_btree(["col1"])
            db_c = Database()
            make_group_table(db_c, "micro3", args.rows, n_groups)
            db_c.table("micro3").set_primary_columnstore()
            grant = 1 << 20
            bt = Executor(db_b).execute(q3_group_by(),
                                        memory_grant_bytes=grant)
            csi = Executor(db_c).execute(q3_group_by(),
                                         memory_grant_bytes=grant)
            rows.append((n_groups, bt.metrics.elapsed_ms,
                         csi.metrics.elapsed_ms,
                         csi.metrics.spilled_bytes // 1024))
        print(format_table(
            ["#groups", "btree ms", "CSI ms", "CSI spill KB"], rows,
            title=f"GROUP BY sweep, {args.rows} rows (Figure 4)"))
        return 0

    if args.experiment == "updates":
        from repro.workloads.tpch import generate_tpch
        rows = []
        for design in ("btree", "btree+csi", "pri_csi"):
            db = Database()
            generate_tpch(db, scale=0.3)
            lineitem = db.table("lineitem")
            if design in ("btree", "btree+csi"):
                lineitem.set_primary_btree(["l_shipdate"])
            if design == "btree+csi":
                lineitem.create_secondary_columnstore(
                    "csi", rowgroup_size=4096)
            if design == "pri_csi":
                lineitem.set_primary_columnstore(rowgroup_size=4096)
            executor = Executor(db)
            result = executor.execute(
                "UPDATE TOP (1000) lineitem SET l_quantity += 1 "
                "WHERE l_shipdate >= '1992-01-01'")
            rows.append((design, result.metrics.elapsed_ms))
        print(format_table(["design", "1000-row update ms"], rows,
                           title="Update cost by design (Figure 5)"))
        return 0

    print(f"unknown experiment {args.experiment!r}", file=sys.stderr)
    return 2


def _cmd_tune(args) -> int:
    from repro.advisor.advisor import TuningAdvisor
    from repro.advisor.workload import Workload
    from repro.bench.workload_setups import customer_factory, tpcds_factory

    if args.workload == "tpcds":
        database, queries = tpcds_factory()
    else:
        database, queries = customer_factory(args.workload)
    workload = Workload.from_sql(queries, database)
    advisor = TuningAdvisor(database)
    recommendation = advisor.tune(workload, mode=args.mode)
    print(recommendation.summary())
    if args.apply:
        created = advisor.apply(recommendation)
        print(f"\napplied: built {len(created)} indexes")
    return 0


def _cmd_inventory(_args) -> int:
    from repro.storage.database import Database
    from repro.workloads.tpch import generate_tpch

    database = Database("tpch")
    generate_tpch(database, scale=0.5)
    database.table("lineitem").set_primary_btree(
        ["l_orderkey", "l_linenumber"])
    database.table("lineitem").create_secondary_columnstore("csi_lineitem")
    for line in database.index_inventory():
        print(line)
    print(f"\ntotal: {database.total_size_bytes() / (1 << 20):.1f} MB")
    return 0


def _cmd_check(args) -> int:
    import random

    from repro.core.errors import StorageError
    from repro.engine.executor import Executor
    from repro.storage.checker import check_database
    from repro.storage.database import Database
    from repro.storage.faults import INJECTION_POINTS, InjectedFault
    from repro.workloads.tpch import generate_tpch

    database = Database("checkdb")
    generate_tpch(database, scale=args.scale)
    lineitem = database.table("lineitem")
    lineitem.set_primary_columnstore(rowgroup_size=4096)
    lineitem.create_secondary_btree("ix_ship", ["l_shipdate"])
    orders = database.table("orders")
    orders.set_primary_btree(["o_orderkey"])
    orders.create_secondary_columnstore("csi_orders", rowgroup_size=4096)

    executor = Executor(database)
    statements = [
        "UPDATE TOP (500) lineitem SET l_quantity += 1 "
        "WHERE l_shipdate >= '1992-01-01'",
        "DELETE TOP (200) FROM lineitem WHERE l_quantity > 40",
        "UPDATE TOP (300) orders SET o_totalprice += 10 "
        "WHERE o_orderkey >= 1",
    ]
    injector = database.fault_injector
    rng = random.Random(11)
    faults_survived = 0
    for sql in statements:
        if args.faults:
            # Arm a random point before each statement; a fault must
            # roll the statement back, after which it reruns clean.
            injector.arm(rng.choice(INJECTION_POINTS), on_hit=1)
            try:
                executor.execute(sql)
            except (InjectedFault, StorageError):
                faults_survived += 1
            injector.disarm()
        executor.execute(sql)
    # Delta stores hold rows now, and none after the maintenance below:
    # each state is saved and reopened both ways.
    failures = _reopen_round_trip(database, "after DML")
    lineitem.primary.reorganize()
    orders.secondary_indexes["csi_orders"].rebuild()
    failures += _reopen_round_trip(database, "after maintenance")

    result = check_database(database)
    if args.faults:
        print(f"injected faults survived: {faults_survived}")
    print(result.summary())
    for failure in failures:
        print(f"round trip failed: {failure}")
    return 0 if result.ok and not failures else 1


def _reopen_round_trip(database, label: str) -> list:
    """Save ``database``, reopen the snapshot eagerly and paged, and
    return what failed: a reopened ``state_digest`` that is not the
    original's, or a checker finding."""
    import tempfile

    from repro.storage.checker import check_database
    from repro.storage.database import Database
    from repro.storage.recovery import state_digest

    digest = state_digest(database)
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        database.save(directory)
        for paging in (False, True):
            mode = f"{label}, {'paged' if paging else 'eager'} open"
            found = len(failures)
            reopened = Database.open(directory, paging=paging)
            try:
                # Checked before the digest, which materializes every
                # paged B+ tree.
                checked = check_database(reopened)
                if not checked.ok:
                    failures.append(f"{mode}: {checked.summary()}")
                if state_digest(reopened) != digest:
                    failures.append(f"{mode}: state digest differs")
            finally:
                reopened.close()
            print(f"round trip {mode}: "
                  f"{'ok' if len(failures) == found else 'FAILED'}")
    return failures


def _cmd_analyze(args) -> int:
    import json

    from repro.bench.figure9 import give_all_tables_primary_btrees
    from repro.engine.executor import Executor
    from repro.storage.database import Database

    database = Database(args.workload)
    if args.workload == "tpch":
        from repro.workloads.tpch import generate_tpch
        generate_tpch(database, scale=args.scale)
    else:
        from repro.workloads.tpcds import generate_tpcds
        generate_tpcds(database, scale=args.scale)
    if args.design == "csi":
        for table in database.tables():
            table.set_primary_columnstore()
    else:
        give_all_tables_primary_btrees(database)

    executor = Executor(database)
    grant = args.grant_kb << 10 if args.grant_kb is not None else None
    analyzed = executor.explain_analyze(args.sql, cold=args.cold,
                                        memory_grant_bytes=grant)
    print(analyzed.format())
    if args.trace:
        with open(args.trace, "w") as handle:
            json.dump(analyzed.to_chrome_trace(), handle, indent=1)
        print(f"\nchrome trace written to {args.trace} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_monitor(args) -> int:
    import json

    from repro.bench.figure9 import give_all_tables_primary_btrees
    from repro.bench.reporting import format_table
    from repro.engine.dmv import snapshot, to_prometheus, unused_index_report
    from repro.engine.executor import Executor
    from repro.engine.query_store import QueryStore
    from repro.storage.database import Database
    from repro.workloads.tpcds import generate_queries, generate_tpcds

    database = Database("monitor")
    generate_tpcds(database, scale=args.scale)
    give_all_tables_primary_btrees(database)
    # A hybrid design so every DMV has something to report: a secondary
    # columnstore on the fact table (rowgroup/segment telemetry) and a
    # deliberately never-read B+ tree (the unused-index report's bait).
    database.table("store_sales").create_secondary_columnstore(
        "csi_store_sales", rowgroup_size=4096)
    database.table("web_sales").create_secondary_btree(
        "ix_ws_item_unused", ["ws_item_sk"])
    query_store = QueryStore()
    executor = Executor(database, query_store=query_store)

    queries = generate_queries(args.queries)
    dml = [
        "UPDATE TOP (300) store_sales SET ss_quantity += 1 "
        "WHERE ss_sold_date_sk BETWEEN 100 AND 160",
        "DELETE TOP (150) FROM store_sales WHERE ss_quantity > 95",
        "UPDATE TOP (200) store_sales SET ss_net_profit += 1 "
        "WHERE ss_store_sk = 3",
    ]

    def run_round() -> None:
        """One monitoring interval's worth of user work."""
        for sql in queries:
            executor.execute(sql)
        for sql in dml:
            executor.execute(sql)

    def print_report() -> None:
        """Human report, assembled by querying the DMVs through SQL."""
        usage = executor.execute(
            "SELECT table_name, index_name, index_kind, user_seeks, "
            "user_scans, user_lookups, user_updates, segments_scanned, "
            "segments_skipped FROM dm_db_index_usage_stats "
            "ORDER BY table_name")
        print(format_table(
            ["table", "index", "kind", "seeks", "scans", "lookups",
             "updates", "seg scan", "seg skip"],
            usage.rows, title="dm_db_index_usage_stats"))
        groups = executor.execute(
            "SELECT index_name, row_group_id, state, total_rows, "
            "deleted_rows, size_in_bytes, delta_store_rows, "
            "delete_buffer_rows "
            "FROM dm_db_column_store_row_group_physical_stats "
            "ORDER BY index_name")
        print()
        print(format_table(
            ["index", "rg", "state", "rows", "deleted", "bytes",
             "delta", "del buf"],
            groups.rows,
            title="dm_db_column_store_row_group_physical_stats"))
        missing = executor.execute(
            "SELECT table_name, equality_columns, inequality_columns, "
            "statement_count, avg_selectivity "
            "FROM dm_db_missing_index_details ORDER BY table_name")
        print()
        print(format_table(
            ["table", "equality", "inequality", "stmts", "avg sel"],
            missing.rows, title="dm_db_missing_index_details"))
        caches = executor.execute(
            "SELECT cache_name, entries, hits, misses, hit_ratio "
            "FROM dm_os_memory_cache_counters ORDER BY cache_name")
        print()
        print(format_table(
            ["cache", "entries", "hits", "misses", "hit ratio"],
            caches.rows, title="dm_os_memory_cache_counters"))
        waits = executor.execute(
            "SELECT wait_type, waiting_tasks_count, wait_time_ms, "
            "max_wait_time_ms FROM dm_os_wait_stats "
            "ORDER BY wait_time_ms DESC")
        print()
        print(format_table(
            ["wait type", "waits", "total ms", "max ms"],
            waits.rows, title="dm_os_wait_stats (top waits)"))
        recent = executor.execute(
            "SELECT event_id, timestamp, event_name, session_id "
            "FROM dm_xe_ring_buffer ORDER BY event_id DESC")
        print()
        print(format_table(
            ["event", "clock", "name", "session"],
            recent.rows[:8],
            title="dm_xe_ring_buffer (most recent events)"))
        unused = unused_index_report(database)
        print()
        if unused:
            print(format_table(
                ["table", "index", "kind", "updates", "bytes"],
                [(u["table_name"], u["index_name"], u["index_kind"],
                  u["user_updates"], u["size_bytes"]) for u in unused],
                title="unused indexes (reads=0)"))
        else:
            print("unused indexes (reads=0): none")
        print(f"\nlogical clock: {database.telemetry.clock.now} statements")

    def print_history() -> None:
        """Per-interval telemetry: the drift-detector's time series."""
        samples = database.history.samples()
        if not samples:
            return
        rows = []
        for sample in samples[-8:]:
            top = max(sample["waits"].items(),
                      key=lambda kv: (kv[1]["wait_ms"], kv[1]["count"]))
            top_text = (f"{top[0]} {top[1]['count']}x" if top[1]["count"]
                        else "-")
            rows.append((
                sample["clock"], sample["statements"], sample["events"],
                top_text,
            ))
        print()
        print(format_table(
            ["clock", "stmts", "events", "top wait"],
            rows, title=f"telemetry history (interval="
                        f"{database.history.interval} statements)"))

    rounds = max(1, args.watch)
    for round_no in range(rounds):
        run_round()
        # Each watch round closes one telemetry interval, so the history
        # panel always shows the round that just ran.
        database.history.sample_now(database)
        if args.snapshot or args.prometheus:
            continue
        if rounds > 1:
            print(f"=== round {round_no + 1}/{rounds} ===")
        print_report()
        print_history()
        if round_no + 1 < rounds:
            print()
    if args.snapshot:
        print(json.dumps(snapshot(database, query_store=query_store),
                         indent=1, default=str))
    if args.prometheus:
        print(to_prometheus(database, query_store=query_store), end="")
    if args.events_jsonl:
        written = database.events.write_jsonl(args.events_jsonl)
        print(f"{written} events written to {args.events_jsonl}")
    return 0


def _cmd_serve(args) -> int:
    import os

    from repro.server.frontend import serve
    from repro.server.session import SessionManager
    from repro.server.bench import build_ch_database
    from repro.storage.database import Database
    from repro.storage.wal import SNAPSHOT_FILENAME

    if args.data_dir and os.path.exists(
            os.path.join(args.data_dir, SNAPSHOT_FILENAME)):
        # Existing durable directory: crash-recover it and serve that.
        # With --pool-mb the snapshot opens lazily behind a demand-paging
        # buffer pool, so the served tables may exceed memory.
        if args.pool_mb is not None:
            database = Database.open(
                args.data_dir, paging=True,
                pool_bytes=args.pool_mb * 1024 * 1024)
            print(f"demand paging: {args.pool_mb} MiB buffer pool over "
                  f"{os.path.join(args.data_dir, SNAPSHOT_FILENAME)}")
        else:
            database = Database.open(args.data_dir)
        print(database.last_recovery.summary())
    else:
        if args.pool_mb is not None:
            raise SystemExit(
                "--pool-mb needs an existing durable --data-dir (build "
                "one first: serve with --data-dir, then restart)")
        database = build_ch_database(n_warehouses=args.warehouses)
        if args.data_dir:
            # Build in memory (fast, unlogged), then snapshot + attach
            # the WAL: every statement served from here on is durable.
            database.enable_durability(args.data_dir)
            print(f"durable: snapshot + WAL in {args.data_dir}")
    manager = SessionManager(database)
    mode = "cold" if args.cold else "hot"
    print(f"serving CH database ({args.warehouses} warehouses, {mode} "
          f"runs) on {args.host}:{args.port}")
    print("protocol: one SQL statement per line in, one JSON object per "
          "line out; empty line closes the session")
    try:
        serve(manager, host=args.host, port=args.port, cold=args.cold)
    finally:
        if database.durable:
            manager.checkpoint()
        manager.close()
        if database.wal is not None:
            database.wal.close()
    return 0


def _cmd_recover(args) -> int:
    import json

    from repro.core.errors import RecoveryError
    from repro.storage.recovery import recover

    try:
        _, report = recover(args.data_dir)
    except RecoveryError as exc:
        print(f"unrecoverable: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print(report.summary())
    return 0 if report.check_ok else 1


def _cmd_crashtest(args) -> int:
    from repro.storage.crashtest import run_chaos

    report = run_chaos(
        n_random=args.n, seed=args.seed,
        n_sessions=args.sessions, n_statements=args.statements,
        out_path=args.out or None, keep_failures=args.keep_failures,
    )
    for entry in report["iterations"]:
        label = entry["crash_point"] or entry["mode"]
        status = "ok" if entry["ok"] else "FAIL"
        print(f"  [{entry['iteration']:3d}] {label:16s} "
              f"exit={entry['child_exit']} {status}")
        for problem in entry["problems"]:
            print(f"        - {problem}")
    print(f"{report['total'] - report['failures']}/{report['total']} "
          f"iterations recovered to exactly the committed prefix")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if report["ok"] else 1


def _cmd_crash_child(args) -> int:
    from repro.storage.crashtest import run_child

    return run_child(
        args.data_dir, args.oracle, args.seed, args.sessions,
        args.statements, crash_point=args.crash_point,
        crash_hit=args.crash_hit, checkpoint_every=args.checkpoint_every,
    )


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Columnstore and B+ tree - Are "
                    "Hybrid Physical Designs Important?' (SIGMOD 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="quickstart walkthrough")
    demo.add_argument("--data-dir", default=None,
                      help="also save the final database here, reopen "
                           "it, and verify the round trip")

    micro = sub.add_parser("micro", help="run a micro-benchmark sweep")
    micro.add_argument("--experiment", default="selectivity",
                       choices=("selectivity", "groupby", "updates"))
    micro.add_argument("--rows", type=int, default=200_000)

    tune = sub.add_parser("tune", help="tune a workload with the advisor")
    tune.add_argument("--workload", default="tpcds",
                      choices=("tpcds", "cust1", "cust2", "cust3",
                               "cust4", "cust5"))
    tune.add_argument("--mode", default="hybrid",
                      choices=("hybrid", "btree_only", "csi_only"))
    tune.add_argument("--apply", action="store_true",
                      help="build the recommended indexes")

    sub.add_parser("inventory", help="print a sample physical design")

    check = sub.add_parser(
        "check", help="run the consistency checker over a workload build")
    check.add_argument("--scale", type=float, default=0.1,
                       help="TPC-H scale factor for the workload build")
    check.add_argument("--faults", action="store_true",
                       help="inject a storage fault before each statement")

    analyze = sub.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE one statement against a generated workload")
    analyze.add_argument("sql", help="the statement to run and analyze")
    analyze.add_argument("--workload", default="tpch",
                         choices=("tpch", "tpcds"),
                         help="which generated database to run against")
    analyze.add_argument("--scale", type=float, default=0.1,
                         help="workload scale factor")
    analyze.add_argument("--design", default="btree",
                         choices=("btree", "csi"),
                         help="primary index design for every table")
    analyze.add_argument("--cold", action="store_true",
                         help="charge storage I/O (cold run)")
    analyze.add_argument("--grant-kb", type=int, default=None,
                         help="memory grant in KB (default: cost-model)")
    analyze.add_argument("--trace", metavar="FILE", default=None,
                         help="also write a Chrome trace-event JSON here")

    monitor = sub.add_parser(
        "monitor",
        help="run a mini-workload and report its DMV telemetry")
    monitor.add_argument("--scale", type=float, default=0.2,
                         help="TPC-DS scale factor for the workload build")
    monitor.add_argument("--queries", type=int, default=24,
                         help="number of workload queries per round")
    monitor.add_argument("--watch", type=int, default=1, metavar="N",
                         help="repeat the workload N rounds, reporting "
                              "after each")
    monitor.add_argument("--snapshot", action="store_true",
                         help="print the JSON telemetry snapshot instead "
                              "of the report")
    monitor.add_argument("--prometheus", action="store_true",
                         help="print the Prometheus text exposition "
                              "instead of the report")
    monitor.add_argument("--events-jsonl", metavar="FILE", default=None,
                         help="also export the extended-events ring "
                              "buffer as JSON Lines to FILE")

    serve = sub.add_parser(
        "serve",
        help="serve a CH database over a line-protocol TCP socket")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=5433)
    serve.add_argument("--warehouses", type=int, default=2,
                       help="CH scale (TPC-C warehouses)")
    serve.add_argument("--cold", action="store_true",
                       help="run client statements cold (charge modeled "
                            "I/O)")
    serve.add_argument("--data-dir", default=None,
                       help="durable storage directory: recover and "
                            "serve it if it holds a snapshot, else "
                            "build the CH database and make it durable "
                            "there (WAL + checkpoint on shutdown)")
    serve.add_argument("--pool-mb", type=int, default=None,
                       help="demand-page the snapshot through a buffer "
                            "pool of this many MiB instead of loading "
                            "it fully into memory (requires an existing "
                            "--data-dir snapshot; enables serving "
                            "tables larger than memory)")

    recover = sub.add_parser(
        "recover",
        help="crash-recover a durable data directory and report "
             "(exit 0 clean, 1 checker findings, 2 unrecoverable)")
    recover.add_argument("data_dir", help="directory with snapshot + WAL")
    recover.add_argument("--json", action="store_true",
                         help="print the report as JSON")

    crashtest = sub.add_parser(
        "crashtest",
        help="chaos suite: kill a live serving workload mid-statement "
             "(crash points, SIGKILL, WAL truncation) and verify every "
             "recovery lands on exactly the committed prefix")
    crashtest.add_argument("--n", type=int, default=25,
                           help="randomized iterations after the "
                                "one-per-crash-point sweep")
    crashtest.add_argument("--seed", type=int, default=0)
    crashtest.add_argument("--sessions", type=int, default=3)
    crashtest.add_argument("--statements", type=int, default=30,
                           help="statements per session")
    crashtest.add_argument("--out", default="",
                           help="write the JSON report here")
    crashtest.add_argument("--keep-failures", action="store_true",
                           help="keep the work dirs of failed iterations")

    crash_child = sub.add_parser("crash-child")  # internal: harness child
    crash_child.add_argument("data_dir")
    crash_child.add_argument("oracle")
    crash_child.add_argument("--seed", type=int, default=0)
    crash_child.add_argument("--sessions", type=int, default=3)
    crash_child.add_argument("--statements", type=int, default=30)
    crash_child.add_argument("--crash-point", default=None)
    crash_child.add_argument("--crash-hit", type=int, default=1)
    crash_child.add_argument("--checkpoint-every", type=int, default=7)

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "micro": _cmd_micro,
        "tune": _cmd_tune,
        "inventory": _cmd_inventory,
        "check": _cmd_check,
        "analyze": _cmd_analyze,
        "monitor": _cmd_monitor,
        "serve": _cmd_serve,
        "recover": _cmd_recover,
        "crashtest": _cmd_crashtest,
        "crash-child": _cmd_crash_child,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

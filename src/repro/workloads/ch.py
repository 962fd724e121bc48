"""CH benchmark: TPC-C plus TPC-H-like analytic queries (Cole et al.).

"The CH benchmark is an extension of the TPC-C benchmark and schema with
three additional tables and 22 additional queries (modeled along the
TPC-H queries)" (Section 5.1). This module adds the three tables
(supplier, nation, region) to a TPC-C database and provides the analytic
query set, adapted to the engine's SQL subset: queries whose original
formulation needs correlated subqueries / EXISTS / HAVING are flattened
to variants that preserve their access-path character (which tables are
scanned, how selective the filters are, which joins appear) — the
properties Figure 11 depends on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.storage.database import Database
from repro.storage.table import Table
from repro.workloads.tpcc import (
    DISTRICTS_PER_WAREHOUSE,
    ORDERS_PER_DISTRICT,
    generate_tpcc,
)

N_NATIONS = 25
N_REGIONS = 5
SUPPLIERS = 200


def generate_ch(database: Database, n_warehouses: int = 2,
                seed: int = 37) -> Dict[str, Table]:
    """TPC-C tables plus the CH additions (supplier, nation, region)."""
    tables = generate_tpcc(database, n_warehouses=n_warehouses, seed=seed)
    rng = random.Random(seed + 1)

    region = database.create_table(TableSchema("region", [
        Column("r_regionkey", INT, nullable=False),
        Column("r_name", varchar(25)),
    ]))
    region.bulk_load([(i, f"REGION{i}") for i in range(N_REGIONS)])
    tables["region"] = region

    nation = database.create_table(TableSchema("nation", [
        Column("n_nationkey", INT, nullable=False),
        Column("n_name", varchar(25)),
        Column("n_regionkey", INT, nullable=False),
    ]))
    nation.bulk_load([
        (i, f"NATION{i:02d}", i % N_REGIONS) for i in range(N_NATIONS)
    ])
    tables["nation"] = nation

    supplier = database.create_table(TableSchema("supplier", [
        Column("su_suppkey", INT, nullable=False),
        Column("su_name", varchar(25)),
        Column("su_nationkey", INT, nullable=False),
        Column("su_acctbal", decimal(2)),
    ]))
    supplier.bulk_load([
        (i, f"Supplier{i:04d}", rng.randrange(N_NATIONS),
         round(rng.uniform(-999, 9999), 2))
        for i in range(SUPPLIERS)
    ])
    tables["supplier"] = supplier
    return tables


def apply_ch_btree_design(database: Database) -> None:
    """B+ tree-only physical design for CH: the TPC-C OLTP design plus
    key B+ trees on the three analytic tables."""
    from repro.workloads.tpcc import apply_oltp_btree_design
    apply_oltp_btree_design(database)
    database.table("region").set_primary_btree(["r_regionkey"])
    database.table("nation").set_primary_btree(["n_nationkey"])
    database.table("supplier").set_primary_btree(["su_suppkey"])


def apply_ch_hybrid_design(database: Database) -> None:
    """Hybrid design: the B+ tree OLTP design plus secondary
    columnstores on the analytics-heavy tables (order_line, orders,
    stock, customer) — the kind of design the extended DTA recommends
    for CH."""
    apply_ch_btree_design(database)
    for name in ("order_line", "orders", "stock", "customer"):
        database.table(name).create_secondary_columnstore(f"csi_{name}")


def ch_analytic_queries() -> List[Tuple[str, str]]:
    """The CH-benCHmark analytic queries as (name, sql) pairs.

    Adapted to the supported SQL subset; each adaptation preserves the
    original query's table footprint and selectivity character.
    """
    return [
        ("Q1", "SELECT ol_number, sum(ol_quantity) sum_qty, "
               "sum(ol_amount) sum_amount, avg(ol_quantity) avg_qty, "
               "count(*) count_order FROM order_line "
               "WHERE ol_delivery_d > 0 GROUP BY ol_number "
               "ORDER BY ol_number"),
        ("Q3", "SELECT o.o_id, o.o_entry_d, sum(ol.ol_amount) revenue "
               "FROM orders o JOIN order_line ol ON o.o_id = ol.ol_o_id "
               "JOIN customer c ON o.o_c_id = c.c_id "
               "WHERE c.c_state = 'CA' AND o.o_entry_d < 100 "
               "GROUP BY o.o_id, o.o_entry_d ORDER BY o.o_id"),
        ("Q4", "SELECT o_ol_cnt, count(*) order_count FROM orders "
               "WHERE o_entry_d BETWEEN 100 AND 500 "
               "GROUP BY o_ol_cnt ORDER BY o_ol_cnt"),
        ("Q5", "SELECT n.n_name, sum(ol.ol_amount) revenue "
               "FROM order_line ol "
               "JOIN supplier su ON ol.ol_supply_w_id = su.su_suppkey "
               "JOIN nation n ON su.su_nationkey = n.n_nationkey "
               "GROUP BY n.n_name ORDER BY n.n_name"),
        ("Q6", "SELECT sum(ol_amount) revenue FROM order_line "
               "WHERE ol_delivery_d >= 0 AND ol_quantity BETWEEN 1 AND 10"),
        ("Q7", "SELECT su.su_nationkey, sum(ol.ol_amount) revenue "
               "FROM order_line ol "
               "JOIN supplier su ON ol.ol_supply_w_id = su.su_suppkey "
               "WHERE ol.ol_delivery_d > 0 "
               "GROUP BY su.su_nationkey ORDER BY su.su_nationkey"),
        ("Q12", "SELECT o_ol_cnt, count(*) cnt FROM orders "
                "WHERE o_carrier_id BETWEEN 1 AND 2 "
                "GROUP BY o_ol_cnt ORDER BY o_ol_cnt"),
        ("Q14", "SELECT sum(ol.ol_amount) revenue FROM order_line ol "
                "JOIN item i ON ol.ol_i_id = i.i_id "
                "WHERE i.i_price > 50"),
        ("Q19", "SELECT sum(ol.ol_amount) revenue FROM order_line ol "
                "JOIN item i ON ol.ol_i_id = i.i_id "
                "WHERE i.i_price BETWEEN 10 AND 20 "
                "AND ol.ol_quantity BETWEEN 1 AND 5"),
    ]


def ch_point_queries(n_warehouses: int, seed: int = 41) -> List[Tuple[str, str]]:
    """Selective single-key analytic queries (OLTP-flavoured reads) that
    round out the H side of the mix."""
    rng = random.Random(seed)
    w = rng.randrange(n_warehouses)
    d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
    o = rng.randrange(ORDERS_PER_DISTRICT)
    return [
        ("Q-order", f"SELECT sum(ol_amount) FROM order_line "
                    f"WHERE ol_w_id = {w} AND ol_d_id = {d} "
                    f"AND ol_o_id = {o}"),
        ("Q-stock", f"SELECT count(*) FROM stock WHERE s_w_id = {w} "
                    f"AND s_quantity < 15"),
    ]

"""Scaled-down TPC-H data generator.

Implements the TPC-H schema (lineitem, orders, customer, part, supplier,
partsupp, nation, region) with the cardinality ratios of the official
benchmark, scaled so that a "scale factor" of 1.0 here produces
``lineitem`` rows in the tens of thousands rather than six million. Value
distributions follow the spec where they matter to the paper's
experiments: l_shipdate spans ~7 years with uniform spread (the update
statement Q4 selects by shipdate), l_quantity is 1-50, prices derive from
part retail prices, and n_nationkey has exactly 25 distinct values (the
size-estimation example of Section 4.4).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.schema import Column, TableSchema
from repro.core.types import DATE, INT, date_to_int, decimal, varchar
from repro.storage.database import Database
from repro.storage.table import Table

import datetime as _dt

#: Base cardinalities at scale factor 1.0 (scaled from TPC-H's 6M).
BASE_LINEITEM_ROWS = 60_000
BASE_ORDERS_ROWS = 15_000
BASE_CUSTOMER_ROWS = 1_500
BASE_PART_ROWS = 2_000
BASE_SUPPLIER_ROWS = 100
N_NATIONS = 25
N_REGIONS = 5

SHIPDATE_START = date_to_int(_dt.date(1992, 1, 1))
SHIPDATE_END = date_to_int(_dt.date(1998, 12, 1))


def lineitem_schema() -> TableSchema:
    """The 16-column TPC-H lineitem schema."""
    return TableSchema("lineitem", [
        Column("l_orderkey", INT, nullable=False),
        Column("l_partkey", INT, nullable=False),
        Column("l_suppkey", INT, nullable=False),
        Column("l_linenumber", INT, nullable=False),
        Column("l_quantity", decimal(2)),
        Column("l_extendedprice", decimal(2)),
        Column("l_discount", decimal(2)),
        Column("l_tax", decimal(2)),
        Column("l_returnflag", varchar(1)),
        Column("l_linestatus", varchar(1)),
        Column("l_shipdate", DATE),
        Column("l_commitdate", DATE),
        Column("l_receiptdate", DATE),
        Column("l_shipinstruct", varchar(25)),
        Column("l_shipmode", varchar(10)),
        Column("l_comment", varchar(44)),
    ])


SHIP_MODES = ("AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR")
SHIP_INSTRUCTIONS = ("DELIVER IN PERSON", "COLLECT COD", "NONE",
                     "TAKE BACK RETURN")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                    "5-LOW")


def generate_tpch(database: Database, scale: float = 1.0,
                  seed: int = 13) -> Dict[str, Table]:
    """Populate ``database`` with the TPC-H tables at ``scale``."""
    rng = random.Random(seed)
    n_lineitem = int(BASE_LINEITEM_ROWS * scale)
    n_orders = int(BASE_ORDERS_ROWS * scale)
    n_customer = max(100, int(BASE_CUSTOMER_ROWS * scale))
    n_part = max(200, int(BASE_PART_ROWS * scale))
    n_supplier = max(20, int(BASE_SUPPLIER_ROWS * scale))

    tables: Dict[str, Table] = {}

    region = database.create_table(TableSchema("region", [
        Column("r_regionkey", INT, nullable=False),
        Column("r_name", varchar(25)),
        Column("r_comment", varchar(152)),
    ]))
    region.bulk_load([
        (i, f"REGION{i}", f"comment {i}") for i in range(N_REGIONS)
    ])
    tables["region"] = region

    nation = database.create_table(TableSchema("nation", [
        Column("n_nationkey", INT, nullable=False),
        Column("n_name", varchar(25)),
        Column("n_regionkey", INT, nullable=False),
        Column("n_comment", varchar(152)),
    ]))
    nation.bulk_load([
        (i, f"NATION{i:02d}", i % N_REGIONS, f"comment {i}")
        for i in range(N_NATIONS)
    ])
    tables["nation"] = nation

    supplier = database.create_table(TableSchema("supplier", [
        Column("s_suppkey", INT, nullable=False),
        Column("s_name", varchar(25)),
        Column("s_nationkey", INT, nullable=False),
        Column("s_acctbal", decimal(2)),
    ]))
    supplier.bulk_load([
        (i, f"Supplier{i:05d}", rng.randrange(N_NATIONS),
         round(rng.uniform(-999.99, 9999.99), 2))
        for i in range(n_supplier)
    ])
    tables["supplier"] = supplier

    part = database.create_table(TableSchema("part", [
        Column("p_partkey", INT, nullable=False),
        Column("p_name", varchar(55)),
        Column("p_brand", varchar(10)),
        Column("p_type", varchar(25)),
        Column("p_size", INT),
        Column("p_retailprice", decimal(2)),
    ]))
    part.bulk_load([
        (i, f"part {i}", f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
         f"TYPE{rng.randrange(150)}", rng.randrange(1, 51),
         round(900 + (i % 1000) * 0.1 + rng.uniform(0, 100), 2))
        for i in range(n_part)
    ])
    tables["part"] = part

    customer = database.create_table(TableSchema("customer", [
        Column("c_custkey", INT, nullable=False),
        Column("c_name", varchar(25)),
        Column("c_nationkey", INT, nullable=False),
        Column("c_acctbal", decimal(2)),
        Column("c_mktsegment", varchar(10)),
    ]))
    segments = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                "HOUSEHOLD")
    customer.bulk_load([
        (i, f"Customer{i:06d}", rng.randrange(N_NATIONS),
         round(rng.uniform(-999.99, 9999.99), 2), rng.choice(segments))
        for i in range(n_customer)
    ])
    tables["customer"] = customer

    orders = database.create_table(TableSchema("orders", [
        Column("o_orderkey", INT, nullable=False),
        Column("o_custkey", INT, nullable=False),
        Column("o_orderstatus", varchar(1)),
        Column("o_totalprice", decimal(2)),
        Column("o_orderdate", DATE),
        Column("o_orderpriority", varchar(15)),
    ]))
    order_rows = []
    for i in range(n_orders):
        order_date = rng.randrange(SHIPDATE_START, SHIPDATE_END - 200)
        order_rows.append((
            i, rng.randrange(n_customer), rng.choice("OFP"),
            round(rng.uniform(1000, 500000), 2), order_date,
            rng.choice(ORDER_PRIORITIES),
        ))
    orders.bulk_load(order_rows)
    tables["orders"] = orders

    lineitem = database.create_table(lineitem_schema())
    lineitem_rows = []
    lines_per_order = max(1, n_lineitem // max(1, n_orders))
    i = 0
    while len(lineitem_rows) < n_lineitem:
        orderkey = i % n_orders
        order_date = order_rows[orderkey][4]
        for line in range(1, rng.randrange(1, 2 * lines_per_order + 1) + 1):
            if len(lineitem_rows) >= n_lineitem:
                break
            quantity = float(rng.randrange(1, 51))
            partkey = rng.randrange(n_part)
            price = round(quantity * (900 + partkey % 1000) * 0.001 + 1.0, 2)
            ship_date = min(SHIPDATE_END,
                            order_date + rng.randrange(1, 122))
            lineitem_rows.append((
                orderkey, partkey, rng.randrange(n_supplier), line,
                quantity, price, round(rng.randrange(0, 11) * 0.01, 2),
                round(rng.randrange(0, 9) * 0.01, 2),
                rng.choice("RAN"), rng.choice("OF"),
                ship_date, ship_date + rng.randrange(1, 31),
                ship_date + rng.randrange(1, 31),
                rng.choice(SHIP_INSTRUCTIONS), rng.choice(SHIP_MODES),
                f"comment {len(lineitem_rows)}",
            ))
        i += 1
    lineitem.bulk_load(lineitem_rows)
    tables["lineitem"] = lineitem
    return tables


def q4_update(n_rows: int, ship_date: str) -> str:
    """The paper's Q4: UPDATE TOP (N) ... WHERE l_shipdate = date."""
    return (f"UPDATE TOP ({n_rows}) lineitem SET l_quantity += 1, "
            f"l_extendedprice += 0.01 WHERE l_shipdate = '{ship_date}'")


def q5_scan(ship_date: str) -> str:
    """The paper's Q5: revenue aggregate over a one-day shipdate window."""
    return (
        "SELECT sum(l_quantity) sum_quantity, "
        "sum(l_extendedprice * (1 - l_discount)) revenue "
        f"FROM lineitem WHERE l_shipdate BETWEEN '{ship_date}' "
        f"AND DATEADD(day, 1, '{ship_date}')"
    )


def random_ship_date(rng: random.Random) -> str:
    """A random date within the populated l_shipdate range."""
    day = rng.randrange(SHIPDATE_START + 30, SHIPDATE_END - 30)
    return (_dt.date(1970, 1, 1) + _dt.timedelta(days=day)).isoformat()


def analytic_queries() -> List[str]:
    """A TPC-H-flavoured read-only query set in the supported SQL subset
    (pricing summary, revenue by nation/segment, shipping modes, ...)."""
    return [
        # Q1-like pricing summary
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) sum_qty, "
        "sum(l_extendedprice) sum_base, "
        "sum(l_extendedprice * (1 - l_discount)) sum_disc, "
        "count(*) count_order FROM lineitem "
        "WHERE l_shipdate <= '1998-09-02' "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus",
        # Q6-like forecasting revenue change
        "SELECT sum(l_extendedprice * l_discount) revenue FROM lineitem "
        "WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31' "
        "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
        # revenue per nation for one market segment
        "SELECT n.n_name, sum(l.l_extendedprice * (1 - l.l_discount)) rev "
        "FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey "
        "JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation n ON c.c_nationkey = n.n_nationkey "
        "WHERE o.o_orderdate >= '1994-01-01' "
        "GROUP BY n.n_name ORDER BY n.n_name",
        # shipping-mode priority counts
        "SELECT l_shipmode, count(*) cnt FROM lineitem "
        "WHERE l_receiptdate >= '1994-01-01' AND "
        "l_receiptdate < '1995-01-01' GROUP BY l_shipmode "
        "ORDER BY l_shipmode",
        # selective single-order lookup (OLTP-ish point query)
        "SELECT sum(l_extendedprice) FROM lineitem WHERE l_orderkey = 42",
    ]

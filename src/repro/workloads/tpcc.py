"""Scaled-down TPC-C schema, data generator, and transaction mix.

TPC-C is the OLTP side of the CH benchmark (Section 5.1). The schema
keeps the benchmark's table and column structure (warehouse, district,
customer, orders, order_line, new_order, item, stock, history) with
per-warehouse cardinalities scaled down ~10x. Transactions are expressed
as lists of SQL statements in the supported subset; the mixed-workload
simulator measures their solo cost and replays them under concurrency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.core.schema import Column, TableSchema
from repro.core.types import INT, decimal, varchar
from repro.storage.database import Database
from repro.storage.table import Table

#: Scaled per-warehouse cardinalities (spec values in comments).
DISTRICTS_PER_WAREHOUSE = 10         # 10
CUSTOMERS_PER_DISTRICT = 300         # 3000
ORDERS_PER_DISTRICT = 300            # 3000
N_ITEMS = 2_000                      # 100_000
STOCK_PER_WAREHOUSE = 2_000          # 100_000
AVG_LINES_PER_ORDER = 10


def generate_tpcc(database: Database, n_warehouses: int = 2,
                  seed: int = 17) -> Dict[str, Table]:
    """Populate ``database`` with the scaled TPC-C tables."""
    rng = random.Random(seed)
    tables: Dict[str, Table] = {}

    warehouse = database.create_table(TableSchema("warehouse", [
        Column("w_id", INT, nullable=False),
        Column("w_name", varchar(10)),
        Column("w_state", varchar(2)),
        Column("w_tax", decimal(4)),
        Column("w_ytd", decimal(2)),
    ]))
    warehouse.bulk_load([
        (w, f"WH{w}", "CA", round(rng.uniform(0, 0.2), 4), 300000.0)
        for w in range(n_warehouses)
    ])
    tables["warehouse"] = warehouse

    district = database.create_table(TableSchema("district", [
        Column("d_id", INT, nullable=False),
        Column("d_w_id", INT, nullable=False),
        Column("d_tax", decimal(4)),
        Column("d_ytd", decimal(2)),
        Column("d_next_o_id", INT),
    ]))
    district.bulk_load([
        (d, w, round(rng.uniform(0, 0.2), 4), 30000.0,
         ORDERS_PER_DISTRICT + 1)
        for w in range(n_warehouses)
        for d in range(DISTRICTS_PER_WAREHOUSE)
    ])
    tables["district"] = district

    customer = database.create_table(TableSchema("customer", [
        Column("c_id", INT, nullable=False),
        Column("c_d_id", INT, nullable=False),
        Column("c_w_id", INT, nullable=False),
        Column("c_last", varchar(16)),
        Column("c_balance", decimal(2)),
        Column("c_ytd_payment", decimal(2)),
        Column("c_payment_cnt", INT),
        Column("c_state", varchar(2)),
    ]))
    lasts = ("BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI",
             "CALLY", "ATION", "EING")
    customer.bulk_load([
        (c, d, w, rng.choice(lasts) + rng.choice(lasts),
         round(rng.uniform(-100, 5000), 2), 10.0, 1, "CA")
        for w in range(n_warehouses)
        for d in range(DISTRICTS_PER_WAREHOUSE)
        for c in range(CUSTOMERS_PER_DISTRICT)
    ])
    tables["customer"] = customer

    item = database.create_table(TableSchema("item", [
        Column("i_id", INT, nullable=False),
        Column("i_name", varchar(24)),
        Column("i_price", decimal(2)),
    ]))
    item.bulk_load([
        (i, f"item{i}", round(rng.uniform(1, 100), 2))
        for i in range(N_ITEMS)
    ])
    tables["item"] = item

    stock = database.create_table(TableSchema("stock", [
        Column("s_i_id", INT, nullable=False),
        Column("s_w_id", INT, nullable=False),
        Column("s_quantity", INT),
        Column("s_ytd", INT),
        Column("s_order_cnt", INT),
    ]))
    stock.bulk_load([
        (i, w, rng.randrange(10, 101), 0, 0)
        for w in range(n_warehouses)
        for i in range(STOCK_PER_WAREHOUSE)
    ])
    tables["stock"] = stock

    orders = database.create_table(TableSchema("orders", [
        Column("o_id", INT, nullable=False),
        Column("o_d_id", INT, nullable=False),
        Column("o_w_id", INT, nullable=False),
        Column("o_c_id", INT, nullable=False),
        Column("o_entry_d", INT),
        Column("o_ol_cnt", INT),
        Column("o_carrier_id", INT),
    ]))
    order_rows = []
    order_line_rows = []
    entry = 0
    for w in range(n_warehouses):
        for d in range(DISTRICTS_PER_WAREHOUSE):
            for o in range(ORDERS_PER_DISTRICT):
                n_lines = rng.randrange(5, 16)
                order_rows.append((
                    o, d, w, rng.randrange(CUSTOMERS_PER_DISTRICT),
                    entry, n_lines, rng.randrange(1, 11)))
                for line in range(n_lines):
                    item_id = rng.randrange(N_ITEMS)
                    order_line_rows.append((
                        o, d, w, line, item_id, w,
                        rng.randrange(1, 11),
                        round(rng.uniform(1, 100), 2),
                        entry,
                    ))
                entry += 1
    orders.bulk_load(order_rows)
    tables["orders"] = orders

    order_line = database.create_table(TableSchema("order_line", [
        Column("ol_o_id", INT, nullable=False),
        Column("ol_d_id", INT, nullable=False),
        Column("ol_w_id", INT, nullable=False),
        Column("ol_number", INT, nullable=False),
        Column("ol_i_id", INT, nullable=False),
        Column("ol_supply_w_id", INT),
        Column("ol_quantity", INT),
        Column("ol_amount", decimal(2)),
        Column("ol_delivery_d", INT),
    ]))
    order_line.bulk_load(order_line_rows)
    tables["order_line"] = order_line

    new_order = database.create_table(TableSchema("new_order", [
        Column("no_o_id", INT, nullable=False),
        Column("no_d_id", INT, nullable=False),
        Column("no_w_id", INT, nullable=False),
    ]))
    new_order.bulk_load([
        (o, d, w)
        for w in range(n_warehouses)
        for d in range(DISTRICTS_PER_WAREHOUSE)
        for o in range(ORDERS_PER_DISTRICT - 30, ORDERS_PER_DISTRICT)
    ])
    tables["new_order"] = new_order

    history = database.create_table(TableSchema("history", [
        Column("h_c_id", INT, nullable=False),
        Column("h_w_id", INT, nullable=False),
        Column("h_amount", decimal(2)),
        Column("h_date", INT),
    ]))
    history.bulk_load([
        (rng.randrange(CUSTOMERS_PER_DISTRICT), rng.randrange(n_warehouses),
         10.0, i)
        for i in range(200 * n_warehouses)
    ])
    tables["history"] = history
    return tables


def apply_oltp_btree_design(database: Database) -> None:
    """The TPC-C B+ tree design: clustered key indexes on every table."""
    database.table("warehouse").set_primary_btree(["w_id"])
    database.table("district").set_primary_btree(["d_w_id", "d_id"])
    database.table("customer").set_primary_btree(
        ["c_w_id", "c_d_id", "c_id"])
    database.table("item").set_primary_btree(["i_id"])
    database.table("stock").set_primary_btree(["s_w_id", "s_i_id"])
    database.table("orders").set_primary_btree(
        ["o_w_id", "o_d_id", "o_id"])
    database.table("order_line").set_primary_btree(
        ["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"])
    database.table("new_order").set_primary_btree(
        ["no_w_id", "no_d_id", "no_o_id"])
    database.table("history").set_primary_btree(["h_w_id", "h_c_id"])


@dataclass
class Transaction:
    """One TPC-C transaction: a name and its SQL statements."""

    name: str
    statements: List[str]
    is_write: bool
    #: (warehouse, district) the transaction touches, for lock footprints.
    warehouse: int = 0
    district: int = 0


class TpccTransactionGenerator:
    """Generates the five TPC-C transaction types with spec frequencies
    (45% NewOrder, 43% Payment, 4% each of the rest)."""

    def __init__(self, n_warehouses: int, seed: int = 23):
        self.n_warehouses = n_warehouses
        self.rng = random.Random(seed)
        self._next_order_id = ORDERS_PER_DISTRICT + 1

    def next_transaction(self) -> Transaction:
        """Draw the next transaction per the TPC-C mix."""
        roll = self.rng.random()
        if roll < 0.45:
            return self.new_order()
        if roll < 0.88:
            return self.payment()
        if roll < 0.92:
            return self.order_status()
        if roll < 0.96:
            return self.delivery()
        return self.stock_level()

    def new_order(self) -> Transaction:
        """Build a NewOrder transaction."""
        rng = self.rng
        w = rng.randrange(self.n_warehouses)
        d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        c = rng.randrange(CUSTOMERS_PER_DISTRICT)
        o_id = self._next_order_id
        self._next_order_id += 1
        n_lines = rng.randrange(5, 16)
        statements = [
            f"SELECT w_tax FROM warehouse WHERE w_id = {w}",
            f"UPDATE district SET d_next_o_id = d_next_o_id + 1 "
            f"WHERE d_w_id = {w} AND d_id = {d}",
            f"INSERT INTO orders VALUES ({o_id}, {d}, {w}, {c}, 0, "
            f"{n_lines}, 0)",
            f"INSERT INTO new_order VALUES ({o_id}, {d}, {w})",
        ]
        for line in range(n_lines):
            item_id = rng.randrange(N_ITEMS)
            statements.append(
                f"SELECT i_price FROM item WHERE i_id = {item_id}")
            statements.append(
                f"UPDATE stock SET s_quantity = s_quantity - 1, "
                f"s_ytd = s_ytd + 1, s_order_cnt = s_order_cnt + 1 "
                f"WHERE s_w_id = {w} AND s_i_id = "
                f"{item_id % STOCK_PER_WAREHOUSE}")
            statements.append(
                f"INSERT INTO order_line VALUES ({o_id}, {d}, {w}, {line}, "
                f"{item_id}, {w}, 1, 9.99, 0)")
        return Transaction("NewOrder", statements, True, w, d)

    def payment(self) -> Transaction:
        """Build a Payment transaction."""
        rng = self.rng
        w = rng.randrange(self.n_warehouses)
        d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        c = rng.randrange(CUSTOMERS_PER_DISTRICT)
        amount = round(rng.uniform(1, 5000), 2)
        statements = [
            f"UPDATE warehouse SET w_ytd = w_ytd + {amount} "
            f"WHERE w_id = {w}",
            f"UPDATE district SET d_ytd = d_ytd + {amount} "
            f"WHERE d_w_id = {w} AND d_id = {d}",
            f"UPDATE customer SET c_balance = c_balance - {amount}, "
            f"c_ytd_payment = c_ytd_payment + {amount}, "
            f"c_payment_cnt = c_payment_cnt + 1 "
            f"WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}",
            f"INSERT INTO history VALUES ({c}, {w}, {amount}, 1)",
        ]
        return Transaction("Payment", statements, True, w, d)

    def order_status(self) -> Transaction:
        """Build an OrderStatus transaction."""
        rng = self.rng
        w = rng.randrange(self.n_warehouses)
        d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        c = rng.randrange(CUSTOMERS_PER_DISTRICT)
        o = rng.randrange(ORDERS_PER_DISTRICT)
        statements = [
            f"SELECT c_balance, c_last FROM customer WHERE c_w_id = {w} "
            f"AND c_d_id = {d} AND c_id = {c}",
            f"SELECT sum(ol_amount) FROM order_line WHERE ol_w_id = {w} "
            f"AND ol_d_id = {d} AND ol_o_id = {o}",
        ]
        return Transaction("OrderStatus", statements, False, w, d)

    def delivery(self) -> Transaction:
        """Build a Delivery transaction."""
        rng = self.rng
        w = rng.randrange(self.n_warehouses)
        d = rng.randrange(DISTRICTS_PER_WAREHOUSE)
        o = rng.randrange(ORDERS_PER_DISTRICT - 30, ORDERS_PER_DISTRICT)
        statements = [
            f"UPDATE orders SET o_carrier_id = 7 WHERE o_w_id = {w} "
            f"AND o_d_id = {d} AND o_id = {o}",
            f"UPDATE order_line SET ol_delivery_d = 99 WHERE ol_w_id = {w} "
            f"AND ol_d_id = {d} AND ol_o_id = {o}",
        ]
        return Transaction("Delivery", statements, True, w, d)

    def stock_level(self) -> Transaction:
        """Build a StockLevel transaction."""
        rng = self.rng
        w = rng.randrange(self.n_warehouses)
        threshold = rng.randrange(10, 21)
        statements = [
            f"SELECT count(*) FROM stock WHERE s_w_id = {w} "
            f"AND s_quantity < {threshold}",
        ]
        return Transaction("StockLevel", statements, False, w, 0)

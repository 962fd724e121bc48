"""The fixed statement corpus the SQL frontend tests share.

Every statement the workload generators produce (``ch``, 2 000 generated
``tpcc`` statements, ``tpch``, ``tpcds``, ``customer``, ``synthetic``)
plus every string in ``tests/test_sql.py`` that parses, and helpers to
turn a token stream back into text with its literals changed.
"""

import ast
import functools
import os
import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.errors import SqlError
from repro.server.bench import build_ch_database
from repro.sql.lexer import EOF, KEYWORD, NUMBER, PARAM, STRING, Token, tokenize
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.workloads import ch, customer, synthetic, tpcds, tpch
from repro.workloads.tpcc import TpccTransactionGenerator

Statement = Tuple[str, tuple]

#: The customer workloads share four query makers; cust5 is the cheapest
#: to generate and has the longest statements (eight-table join chains).
CUSTOMER = "cust5"
TPCC_STATEMENTS = 2000


def _tpcc_statements() -> List[str]:
    generator = TpccTransactionGenerator(n_warehouses=1, seed=23)
    out: List[str] = []
    while len(out) < TPCC_STATEMENTS:
        out.extend(generator.next_transaction().statements)
    return out[:TPCC_STATEMENTS]


def _ch_statements() -> List[str]:
    return ([sql for _, sql in ch.ch_analytic_queries()]
            + [sql for _, sql in ch.ch_point_queries(1)])


def _tpch_statements() -> List[str]:
    rng = random.Random(5)
    dates = [tpch.random_ship_date(rng) for _ in range(3)]
    return (tpch.analytic_queries()
            + [tpch.q5_scan(date) for date in dates]
            + [tpch.q4_update(10 * (i + 1), date)
               for i, date in enumerate(dates)])


def _synthetic_statements() -> List[str]:
    out = [synthetic.q3_group_by()]
    for pct in (0.0, 0.001, 0.1, 5.0, 50.0, 100.0):
        out += [synthetic.q1_scan(pct), synthetic.q2_sort(pct)]
    return out


def _dummy_params(sql: str) -> tuple:
    return tuple(range(1, sql.count("?") + 1))


@functools.lru_cache(maxsize=None)
def strings_of_test_sql() -> Tuple[Tuple[Statement, ...], Tuple[Statement, ...]]:
    """Every string constant in ``tests/test_sql.py``, split into those
    that parse (with integer parameters for their ``?``) and the rest."""
    path = os.path.join(os.path.dirname(__file__), "test_sql.py")
    with open(path, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    texts = sorted({node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)})
    good, bad = [], []
    for text in texts:
        statement = (text, _dummy_params(text))
        try:
            parse(*statement)
        except SqlError:
            bad.append(statement)
        else:
            good.append(statement)
    return tuple(good), tuple(bad)


@functools.lru_cache(maxsize=None)
def runnable_workloads() -> Tuple[Tuple[str, Callable[[], Database],
                                        Tuple[str, ...]], ...]:
    """``(name, build_database, statements)`` per workload; the builder
    makes a small database the statements run against."""
    def build_tpch() -> Database:
        database = Database()
        tpch.generate_tpch(database, scale=0.02)
        return database

    def build_tpcds() -> Database:
        database = Database()
        tpcds.generate_tpcds(database, scale=0.02)
        return database

    def build_synthetic() -> Database:
        database = Database()
        synthetic.make_uniform_table(database, "micro", 2000)
        synthetic.make_uniform_table(database, "micro2", 2000, n_columns=2)
        synthetic.make_group_table(database, "micro3", 2000, 50)
        return database

    customer_database = Database()
    customer_queries = customer.generate_customer(
        customer_database, CUSTOMER).queries
    return (
        ("ch", lambda: build_ch_database(1),
         tuple(_ch_statements() + _tpcc_statements())),
        ("tpch", build_tpch, tuple(_tpch_statements())),
        ("tpcds", build_tpcds, tuple(tpcds.generate_queries())),
        ("customer", lambda: customer_database, tuple(customer_queries)),
        ("synthetic", build_synthetic, tuple(_synthetic_statements())),
    )


@functools.lru_cache(maxsize=None)
def statement_corpus() -> Tuple[Statement, ...]:
    """Every corpus statement as ``(sql, params)``, duplicates removed."""
    statements = [(sql, ()) for _, _, texts in runnable_workloads()
                  for sql in texts]
    statements += strings_of_test_sql()[0]
    return tuple(dict.fromkeys(statements))


# ------------------------------------------------------- token rendering
def sql_literal(value: object) -> str:
    """A number or string as the lexer reads it back."""
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def render(tokens: Sequence[Token]) -> str:
    """SQL text that tokenizes to ``tokens`` (positions aside)."""
    return " ".join(
        sql_literal(token.value) if token.type in (NUMBER, STRING)
        else token.value
        for token in tokens if token.type != EOF)


def _is_parameter_position(tokens: Sequence[Token], i: int) -> bool:
    """Whether the grammar takes a ``?`` where literal token ``i`` stands:
    everywhere except ``DATE '...'`` and ``LIMIT n``."""
    token = tokens[i]
    if token.type not in (NUMBER, STRING):
        return False
    previous = tokens[i - 1] if i else None
    return not (previous is not None and previous.type == KEYWORD
                and previous.value in ("date", "limit"))


def parameterise(sql: str, params: Sequence[object] = ()
                 ) -> Tuple[str, List[object]]:
    """``sql`` with every literal that can be a parameter replaced by
    ``?``, and the values to pass: the literals interleaved with
    ``params`` in text order."""
    tokens = tokenize(sql)
    remaining = iter(params)
    values: List[object] = []
    out: List[Token] = []
    for i, token in enumerate(tokens):
        if _is_parameter_position(tokens, i):
            values.append(token.value)
            out.append(Token(PARAM, "?", token.position))
        else:
            if token.type == PARAM:
                values.append(next(remaining))
            out.append(token)
    return render(out), values


def with_other_literals(sql: str) -> Optional[str]:
    """A text of the same shape as ``sql`` whose parameterisable literals
    all differ, or None when it has none."""
    tokens = tokenize(sql)
    out: List[Token] = []
    changed = False
    for i, token in enumerate(tokens):
        if _is_parameter_position(tokens, i):
            changed = True
            if token.type == STRING:
                value = token.value + "'x"
            elif isinstance(token.value, int):
                value = token.value + 1
            else:
                value = token.value + 0.5
            token = Token(token.type, value, token.position)
        out.append(token)
    return render(out) if changed else None

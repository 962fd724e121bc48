"""Python function calls per statement on the paths a serving workload
takes every statement: a work count that repeats exactly from run to run,
where wall clock on a shared host drifts by more than the changes it
would judge.

Counted with ``sys.setprofile``'s "call" events: one per Python frame
entered, a generator's resumption included; calls into C are not
events. Each count is split into calls of code in the ``repro`` package
and all calls (the standard library's and generated ``__init__``s
included). Each pin is the count when it was set plus a small margin:
a change that adds work to every statement fails here and must show
that the work is worth it, and one that saves work lowers the pin.

Each statement is counted once, at a fixed point of a fixed sequence
run on a fresh database, so the telemetry history's sampling (every
``DEFAULT_SAMPLE_INTERVAL`` statements) falls where it always does.
"""

import os
import sys
from collections import Counter

import pytest

import repro
from repro.core.schema import Column, TableSchema
from repro.core.types import INT
from repro.server.bench import build_ch_database
from repro.server.session import SessionManager
from repro.storage.database import Database

REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep

#: A count may grow this much over its pin before the guard fails.
MARGIN = 1.03

CUSTOMER = ("SELECT c_balance, c_last FROM customer WHERE c_w_id = {} "
            "AND c_d_id = {} AND c_id = {}")
CUSTOMER_PARAMETERISED = CUSTOMER.format("?", "?", "?")
RANGE = "SELECT sum(v) s FROM r WHERE k BETWEEN ? AND ?"

#: statement -> (calls into ``repro``, all calls) when the pin was set.
PINS = {
    "customer literal": (195, 230),
    "customer parameterised": (195, 233),
    "range template hit": (364, 411),
}


def calls(run):
    """Python calls ``run()`` makes, as ``(into repro, all)``."""
    counted = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counted["all"] += 1
            if frame.f_code.co_filename.startswith(REPRO_ROOT):
                counted["repro"] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counted["repro"], counted["all"] - 1     # the ``run`` lambda


@pytest.fixture(scope="module")
def counts():
    """Each statement's count, measured after its text and template are
    cached (the point_lookup and btree_range benchmark workloads run
    cached statements almost only)."""
    measured = {}
    with SessionManager(build_ch_database(1)) as manager:
        session = manager.session()
        for i in range(2):
            session.execute(CUSTOMER.format(0, 3, i))
            session.execute(CUSTOMER_PARAMETERISED, (0, 3, i))
        measured["customer literal"] = calls(
            lambda: session.execute(CUSTOMER.format(0, 3, 7)))
        measured["customer parameterised"] = calls(
            lambda: session.execute(CUSTOMER_PARAMETERISED, (0, 3, 7)))

    database = Database()
    table = database.create_table(TableSchema("r", [
        Column("k", INT, nullable=False), Column("v", INT, nullable=False)]))
    table.bulk_load([(i, i * 7 % 1000) for i in range(2000)])
    table.set_primary_btree(["k"])
    with SessionManager(database) as manager:
        session = manager.session()
        for i in range(2):
            session.execute(RANGE, (10 * i, 10 * i + 20))
        hits = database.statement_cache.plan_hits
        measured["range template hit"] = calls(
            lambda: session.execute(RANGE, (500, 540)))
        assert database.statement_cache.plan_hits == hits + 1
    return measured


@pytest.mark.parametrize("statement", sorted(PINS))
def test_statement_work_stays_within_its_pin(counts, statement):
    (repro_calls, all_calls), (repro_pin, all_pin) = \
        counts[statement], PINS[statement]
    assert 0 < repro_calls <= all_calls
    assert repro_calls <= repro_pin * MARGIN, \
        f"{statement}: {repro_calls} calls into repro, pinned {repro_pin}"
    assert all_calls <= all_pin * MARGIN, \
        f"{statement}: {all_calls} calls, pinned {all_pin}"

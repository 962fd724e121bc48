"""A plan-cache hit against a miss over the SQL corpus.

For every SELECT of ``tests/sql_corpus.py::runnable_workloads()`` whose
template keeps its plan, the next text of the same template (another
text with other values where the corpus has one) run on an executor
warmed with the first (a hit: the kept operator tree run with its own
values) must equal a fresh executor's first execution of that text (a
miss: bound, optimized and materialized). Rows, ``rows_affected``, every
``QueryMetrics`` field and the span rows are compared, with encoded and
decoded columnstore scans and under two memory grants.

Tier-1 runs every reusable statement of the small workloads and a
fixed-seed sample of the CH/TPC-C ones; under ``--hypothesis-profile
long`` (the ``oracle-long`` CI job) it runs all of them.
"""

import random
from dataclasses import asdict

import pytest
from hypothesis import settings

from repro.engine.executor import Executor
from repro.sql.lexer import tokenize
from repro.sql.parser import normalise
from tests.reference_scan import scans
from tests.sql_corpus import runnable_workloads

#: Statements of one workload the tier-1 run samples.
TIER1_SAMPLE = 80
GRANTS = (None, 20_000)


def _long_profile() -> bool:
    return settings.default.max_examples != settings.get_profile(
        "default").max_examples


def span_rows(span) -> list:
    return [(span.label, span.rows_out)] + [
        row for child in span.children for row in span_rows(child)]


def observed(result) -> tuple:
    return (result.columns, result.rows, result.rows_affected,
            asdict(result.metrics), span_rows(result.root_span))


def _selects(build, texts):
    """``(text, next text of its template)`` per SELECT of ``texts``
    (sampled in tier-1), the next wrapping round to the first."""
    database = build()
    probe = Executor(database)
    selects = [sql for sql in dict.fromkeys(texts)
               if probe.prepare(sql).read_only]
    by_template = {}
    for sql in selects:
        by_template.setdefault(normalise(tokenize(sql))[0], []).append(sql)
    following = {}
    for same in by_template.values():
        following.update(zip(same, same[1:] + same[:1]))
    if len(selects) > TIER1_SAMPLE and not _long_profile():
        selects = random.Random(41).sample(selects, TIER1_SAMPLE)
    return [(sql, following[sql]) for sql in selects]


@pytest.mark.parametrize("encoded", (True, False),
                         ids=("encoded", "decoded"))
@pytest.mark.parametrize("workload", [name for name, _, _ in
                                      runnable_workloads()])
def test_a_hit_equals_a_fresh_miss(workload, encoded):
    (build, texts), = [(build, texts) for name, build, texts
                       in runnable_workloads() if name == workload]
    hits = 0
    with scans(encoded):
        selects = _selects(build, texts)
        for grant in GRANTS:
            database = build()
            warmed = Executor(database)
            for sql, following in selects:
                warmed.execute(sql, memory_grant_bytes=grant)
                before = database.statement_cache.plan_hits
                hit = warmed.execute(following, memory_grant_bytes=grant)
                if database.statement_cache.plan_hits == before:
                    continue        # not reusable, or planned otherwise
                hits += 1
                miss = Executor(database).execute(
                    following, memory_grant_bytes=grant)
                assert observed(hit) == observed(miss), (following, grant)
    assert hits, workload

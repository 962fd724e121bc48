"""Self-test of the benchmark harness (``pytest benchmarks/e2e -q``).

Runs every workload at a tiny internal scale. It checks the harness, not
the engine's speed: inputs are a function of the seed, engine counts
repeat exactly, the emitted metric names are the declared ones, trace
spans nest and their self times add up, and a wrong answer is counted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(REPO_ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import run  # noqa: E402
from workloads import NOT_GATED, WORKLOADS  # noqa: E402

SCALE = 0.03
SINGLE_CLIENT = ("point_lookup", "analytic", "btree_range", "durable_oltp",
                 "paged_reads")
#: Per-layer metrics that are counts of engine work: with one client they
#: must repeat exactly, whatever the clock and ``--seconds`` say.
COUNTS = (
    "sql.parser.parses_per_stmt", "storage.btree.seeks_per_stmt",
    "engine.executor.pages_read_per_stmt",
    "engine.executor.rows_returned_per_stmt",
    "engine.encoded.code_path_hit_ratio",
    "engine.encoded.columns_late_materialized",
    "storage.columnstore.segments_read",
    "storage.columnstore.segment_skip_ratio",
    "storage.columnstore.delta_rows",
    "storage.bufferpool.hit_ratio", "storage.bufferpool.evictions",
    "storage.pages.page_reads", "storage.pages.snapshot_bytes",
    "storage.pages.stored_bytes_per_user_byte",
    "storage.wal.fsyncs_per_commit", "storage.wal.bytes_per_commit",
    "storage.wal.bytes_per_user_byte", "storage.recovery.ops_replayed",
)


def _run(name: str, out_dir, seconds: float = 0.0):
    return harness.run_workload(
        WORKLOADS[name], seed=5, seconds=seconds, trace=True, scale=SCALE,
        setups=1, out_dir=str(out_dir))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced run of every workload, shared by the tests below."""
    out_dir = tmp_path_factory.mktemp("e2e")
    results = {name: _run(name, out_dir) for name in WORKLOADS}
    return out_dir, results


def _inputs(name: str, seed: int):
    workload = WORKLOADS[name](seed, SCALE, harness.OUT_DIR)
    workload.generate()
    if workload.statements:
        return workload.statements
    return workload.stream.take(80)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_every_workload_answers_correctly(traced):
    _, results = traced
    for name, result in results.items():
        assert result.failures == [], name
        assert result.correct and result.attempted > 0, name


@pytest.mark.parametrize("name", SINGLE_CLIENT)
def test_engine_counts_repeat_exactly(name, traced, tmp_path):
    _, results = traced
    again = _run(name, tmp_path, seconds=2.0)
    first = results[name]
    assert first.attempted == again.attempted
    for metric in COUNTS:
        assert first.per_layer[metric] == again.per_layer[metric], metric
    # the counts are not all trivially zero
    assert any(first.per_layer[metric] for metric in COUNTS)


def test_emitted_names_are_the_declared_ones(traced):
    _, results = traced
    spec = harness.load_spec()
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layers = [m["name"] for m in spec["per_layer"]]
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name not in NOT_GATED]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] and metric["better"] in ("lower", "higher")
    for name, result in results.items():
        assert sorted(result.end_to_end) == sorted(declared_e2e), name
        assert sorted(result.per_layer) == sorted(declared_layers), name
        for metric in declared_e2e:
            assert result.end_to_end[metric]["value"] > 0, (name, metric)


def test_trace_spans_nest_and_self_times_sum(traced):
    out_dir, results = traced
    for name, result in results.items():
        assert result.per_layer["trace.self_sum_error"] < 0.01, name
        with open(os.path.join(str(out_dir), f"trace_{name}.json")) as f:
            events = json.load(f)["traceEvents"]
        assert events, name
        by_id = {e["args"]["span"]: e for e in events}
        for event in events:
            parent = by_id.get(event["args"]["parent"])
            if parent is None:
                assert event["args"]["parent"] == 0
                continue
            assert parent["args"]["stmt"] == event["args"]["stmt"]
            assert parent["ts"] <= event["ts"] + 1e-3
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-3)
            assert event["args"]["self_us"] <= event["args"]["busy_us"] + 1e-3


def test_layers_separate_the_workloads(traced):
    _, results = traced
    layers = {name: result.per_layer for name, result in results.items()}
    for name in WORKLOADS:
        assert (layers[name]["storage.bufferpool.fault_ms"] > 0) == \
            (name == "paged_reads")
        assert (layers[name]["storage.wal.commit_ms"] > 0) == \
            (name == "durable_oltp")
    assert layers["point_lookup"]["sql.parser.parses_per_stmt"] == 2.0
    for name in ("durable_oltp", "paged_reads"):
        assert layers[name]["storage.recovery.open_s"] > 0
        # measured with tracing off, in every run
        assert results[name].extras["storage.recovery.open_s"] == \
            layers[name]["storage.recovery.open_s"]
    assert layers["durable_oltp"]["storage.pages.checkpoint_s"] > 0
    assert layers["ch_mixed_tcp"]["server.frontend.reply_bytes_per_stmt"] > 0


def test_a_wrong_expected_answer_is_a_failure(tmp_path):
    workload = WORKLOADS["point_lookup"](5, SCALE, str(tmp_path))
    try:
        workload.generate()
        workload.build()
        workload.prepare_oracle()
        assert workload.run_pass().failures == []
        sql, params, _ = workload.statements[0]
        workload.expected[(sql, params)] = [("not", "the answer")]
        failures = workload.run_pass().failures
        assert len(failures) >= 1 and sql in failures[0]
    finally:
        workload.teardown()


def test_nothing_is_left_behind(traced):
    out_dir, _ = traced
    left = [n for n in os.listdir(str(out_dir)) if not n.startswith("trace_")]
    assert left == []


def _result_file(path, p50: float, q3: float, seed: int = 12) -> str:
    spec = harness.load_spec()
    stats = lambda value, hi=None: {"value": value, "q1": value,
                                    "q3": hi or value, "samples": 5}
    workloads = {}
    for workload in WORKLOADS:
        metrics = {m["name"]: stats(10.0) for m in spec["end_to_end"]}
        metrics["stmt_p50_ms"] = stats(p50, q3)
        workloads[workload] = {"end_to_end": metrics, "failed": 0}
    with open(path, "w") as f:
        json.dump({"seed": seed, "runs": 1,
                   "environment": {"seconds_per_run": 8},
                   "workloads": workloads}, f)
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", 10.0, 10.0)
    same = _result_file(tmp_path / "same.json", 10.4, 10.4)
    slow = _result_file(tmp_path / "slow.json", 14.0, 14.0)
    fast = _result_file(tmp_path / "fast.json", 6.0, 6.0)
    noisy = _result_file(tmp_path / "noisy.json", 14.0, 30.0)
    assert run.main(["--compare", base, same]) == 0
    assert "within bound" in capsys.readouterr().out
    assert run.main(["--compare", base, slow]) == 1
    assert "worse" in capsys.readouterr().out
    assert run.main(["--compare", base, fast]) == 0
    assert "better" in capsys.readouterr().out
    assert run.main(["--compare", base, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out
    other_seed = _result_file(tmp_path / "seed.json", 10.0, 10.0, seed=13)
    assert run.main(["--compare", base, other_seed]) == 2
    assert "not comparable" in capsys.readouterr().out


def test_a_run_set_reports_the_spread_over_runs(traced):
    _, results = traced
    one = results["point_lookup"].as_dict()
    other = json.loads(json.dumps(one))
    other["seed"] += 1
    p50 = one["end_to_end"]["stmt_p50_ms"]["value"]
    other["end_to_end"]["stmt_p50_ms"]["value"] = 3 * p50
    entry = run.merge_runs([one, other], [one])
    stats = entry["end_to_end"]["stmt_p50_ms"]
    assert stats["values"] == [p50, 3 * p50] and stats["samples"] == 2
    assert stats["value"] == pytest.approx(2 * p50)
    assert stats["q1"] < stats["value"] < stats["q3"]
    assert entry["seeds"] == [one["seed"], one["seed"] + 1]
    assert entry["attempted"] == 3 * one["attempted"]
    assert entry["per_layer"] == one["per_layer"]


def test_the_committed_baseline_resolves_every_gated_pair(capsys):
    """A pair whose spread exceeds its bound in the baseline could never
    be judged ``worse`` against it."""
    baseline = os.path.join(HERE, "results", "baseline.json")
    assert run.main(["--compare", baseline, baseline]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(
        harness.load_spec()["end_to_end"])
    for row in rows:
        assert "missing" not in row
        # durable_oltp follows the host's disk: that is why the driver
        # does not gate it
        assert "unresolved" not in row or row.split()[0] in NOT_GATED, row


def test_without_the_engine_the_command_fails(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is no engine to measure: exit non-zero, print no result."""
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "benchmarks" / "e2e"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "point_lookup", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

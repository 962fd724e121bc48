"""One command for the engine's wall-clock benchmark.

``python3 benchmarks/e2e/run.py --seed 12`` runs every workload (each in
its own process, so CPU and peak RSS belong to one workload), checks
every answer against SQLite, prints every metric by name with its unit
and writes the full result to ``benchmarks/e2e/out/``. ``--trace`` adds
the traced pass and the per-layer metrics, ``--workload NAME`` runs one
workload in this process and ends with the one-line JSON result the
benchmark driver reads, ``--runs N`` repeats all of it with the next N seeds
and reports medians and quartiles over the runs (a run set), and
``--compare A.json B.json`` judges B against A with the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import harness
from harness import OUT_DIR, REPO_ROOT

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _metric_lines(spec, result) -> str:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"== {result['workload']} (seed {result['seed']}): "
             f"{result['attempted']} attempted, {result['failed']} failed, "
             f"failed_share {result['failed_share']:.6f}"]
    for name, stats in result["end_to_end"].items():
        raw = f" raw {stats['raw']:.4f}" if "raw" in stats else ""
        lines.append(
            f"  {name:<44}{stats['value']:>14.4f} {units[name]:<10}"
            f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f}"
            f" n={stats['samples']}{raw}")
    for name, value in (result["per_layer"] or {}).items():
        lines.append(f"  {name:<44}{value:>14.4f} {units[name]}")
    for failure in result["failures"][:10]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def _result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")


def run_one(args) -> int:
    """One workload in this process; the full result goes to ``out/`` and
    the last stdout line is the driver's JSON object."""
    from workloads import WORKLOADS     # needs the engine under src/

    spec = harness.load_spec()
    result = harness.run_workload(
        WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace)).as_dict()
    print(_metric_lines(spec, result))
    with open(_result_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump(result, f, indent=1)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": result["per_layer"][name],
                          "unit": units[name]} for name in units}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": result["end_to_end"][name]["value"],
                          "unit": units[name]} for name in units}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def environment(seconds: float) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
        "commit": commit, "seconds_per_run": seconds,
        "flush_policy": "durable_oltp: fsync on every COMMIT; "
                        "other workloads have no log",
        "engine_config": "Database() and SessionManager(db) defaults "
                         "in-process; repro serve defaults (4 morsel "
                         "workers, hot, io_replay_scale=0) for the TCP "
                         "server; segment cache off as shipped",
    }


def _run_child(workload: str, seed: int, seconds: float, trace: int):
    """One run of one workload in a child process; returns its full
    result, or the tail of its stderr when it did not produce one."""
    part = _result_path(workload, seed, trace)
    if os.path.exists(part):
        os.remove(part)
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0 or not os.path.exists(part):
        return proc.stderr[-2000:]
    print("\n".join(proc.stdout.splitlines()[:-1]))
    with open(part) as f:
        return json.load(f)


def merge_runs(untraced: list, traced: list) -> dict:
    """One workload's entry of the result file. A single run keeps its
    own statistics (median and quartiles over passes). Several runs are a
    run set: every metric is the median of the runs' values, and the
    quartiles and sample count of the end-to-end metrics are over runs,
    which is how the benchmark driver judges them."""
    runs = untraced + traced
    first = untraced[0]
    entry = {
        "seeds": [r["seed"] for r in untraced],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:50],
        "end_to_end": first["end_to_end"],
        "extras": first["extras"],
        "properties": first["properties"],
    }
    if len(untraced) > 1:
        entry["end_to_end"] = {}
        for name in first["end_to_end"]:
            stats = [r["end_to_end"][name] for r in untraced]
            merged = harness.spread([s["value"] for s in stats])
            merged["values"] = [s["value"] for s in stats]
            if "raw" in stats[0]:
                raw = harness.spread([s["raw"] for s in stats])
                merged.update(raw=raw["value"], raw_q1=raw["q1"],
                              raw_q3=raw["q3"])
            entry["end_to_end"][name] = merged
        entry["extras"] = {
            name: statistics.median(r["extras"][name] for r in untraced)
            for name in first["extras"]}
        entry["properties"] = dict(
            first["properties"],
            speed_factor=[r["properties"]["speed_factor"] for r in untraced])
    if traced:
        entry["per_layer"] = {
            name: statistics.median(r["per_layer"][name] for r in traced)
            for name in traced[0]["per_layer"]}
        entry["trace_file"] = traced[-1]["properties"]["trace_file"]
    return entry


def run_all(args) -> int:
    """``--runs`` runs of every workload (seeds ``--seed``, ``--seed`` + 1,
    ...), one child process per workload and run, untraced and (with
    ``--trace``) traced; merged into one result file."""
    from workloads import WORKLOADS     # needs the engine under src/

    spec = harness.load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(WORKLOADS)
    results = {name: ([], []) for name in names}
    errors = {}
    status = 0
    for run in range(args.runs):
        for workload in names:
            for trace in ([0, 1] if args.trace else [0]):
                result = _run_child(workload, args.seed + run, args.seconds,
                                    trace)
                if isinstance(result, str):
                    # a workload that raises is reported, never skipped
                    print(f"== {workload} (seed {args.seed + run}): "
                          f"FAILED to run\n{result}")
                    errors.setdefault(workload, []).append(result)
                    status = 1
                    continue
                results[workload][trace].append(result)
                if result["failed"]:
                    status = 1
    merged = {"seed": args.seed, "runs": args.runs,
              "environment": environment(args.seconds), "workloads": {}}
    for workload in names:
        untraced, traced = results[workload]
        entry = merge_runs(untraced, traced) if untraced else {}
        if workload in errors:
            entry["errors"] = errors[workload]
        merged["workloads"][workload] = entry
    if args.runs > 1:
        print(_run_set_lines(spec, merged))
    path = os.path.join(
        OUT_DIR, f"run-seed{args.seed}.json" if args.runs == 1
        else f"runs-seed{args.seed}-n{args.runs}.json")
    with open(path, "w") as f:
        json.dump(merged, f, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    return status


def _run_set_lines(spec, merged) -> str:
    """The end-to-end metrics of a run set: median, quartiles and spread
    ((q3 - q1) / median) over runs."""
    lines = [f"== run set: {merged['runs']} runs, seeds from "
             f"{merged['seed']}"]
    for workload, entry in merged["workloads"].items():
        for metric in spec["end_to_end"]:
            stats = entry.get("end_to_end", {}).get(metric["name"])
            if stats is None:
                continue
            raw = ""
            if "raw_q1" in stats:
                raw_spread = harness.ratio(
                    stats["raw_q3"] - stats["raw_q1"], stats["raw"])
                raw = f" raw {stats['raw']:.4f} spread {raw_spread:.3f}"
            lines.append(
                f"  {workload:<14}{metric['name']:<18}"
                f"{stats['value']:>12.4f} {metric['unit']:<5}"
                f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f}"
                f" spread {_relative_spread(stats):.3f}"
                f" n={stats['samples']}{raw}")
    return "\n".join(lines)


def _relative_spread(stats) -> float:
    return harness.ratio(stats["q3"] - stats["q1"], stats["value"])


def compare(args) -> int:
    """One row per (workload, end-to-end metric): is B better, worse,
    within the bound, or unresolved (spread wider than the bound; over
    runs for run sets, over passes for single runs)? Exits 1 on any
    ``worse``, 2 when the two files were not recorded with the same seed,
    number of runs and run length."""
    spec = harness.load_spec()
    files = []
    for path in args.compare:
        with open(path) as f:
            files.append(json.load(f))
    settings = [(f["seed"], f["runs"], f["environment"]["seconds_per_run"])
                for f in files]
    if settings[0] != settings[1]:
        print(f"not comparable: (seed, runs, seconds per run) is "
              f"{settings[0]} in A and {settings[1]} in B")
        return 2
    base, new = (f["workloads"] for f in files)
    worse = 0
    print(f"{'workload':<14}{'metric':<18}{'A':>12}{'B':>12}{'change':>9}"
          f"{'spread':>8}{'bound':>7}  verdict")
    for workload in base:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                a = base[workload]["end_to_end"][name]
                b = new[workload]["end_to_end"][name]
            except KeyError:
                print(f"{workload:<14}{name:<18}{'':>48}  missing")
                worse += 1
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = harness.ratio(b["value"] - a["value"], a["value"])
            widest = max(_relative_spread(a), _relative_spread(b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif sign * change > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif sign * change < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<14}{name:<18}{a['value']:>12.4f}"
                  f"{b['value']:>12.4f}{change:>+9.1%}{widest:>8.1%}"
                  f"{metric['bound']:>7.0%}  {verdict}")
        failed = new.get(workload, {}).get("failed", 0)
        if failed > base[workload].get("failed", 0):
            print(f"{workload:<14}{'failed':<18}{'':>48}  worse "
                  f"({failed} failed statements)")
            worse += 1
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in-process")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="what ch_mixed_tcp's five passes last together; "
                             "the other workloads measure fixed work "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs of every workload, each with the next "
                             "seed; more than one makes a run set")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.seconds is None:
        args.seconds = harness.load_spec()["run_seconds"]
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())

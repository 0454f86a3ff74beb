#!/usr/bin/env python3
"""One stack benchmark: four workloads, end-to-end metrics, a layer ledger.

    python3 benchmarks/stack/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]

Drives the unchanged library through its public functions only, prints
every metric by name with its unit, checks each workload's answer against
a single in-process engine on the same trace, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0``
(default) measures with tracing off and puts the end-to-end metrics in
the result line; ``--trace 1`` puts the per-layer ledger there and writes
``trace.jsonl``.  Exits 1 when any answer differs from the reference and 2
when any call failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import sys
import time

STACK_DIR = pathlib.Path(__file__).resolve().parent
REPO_DIR = STACK_DIR.parents[1]
sys.path[:0] = [str(STACK_DIR), str(REPO_DIR / "src")]

# A checkout without the library (src/) fails here, before any output.
from repro.bench.artifacts import environment_stamp  # noqa: E402

import ledger  # noqa: E402
import measure  # noqa: E402
from spans import NULL_RECORDER, SpanRecorder  # noqa: E402
from topologies import TOPOLOGIES, pinned_generator  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, build_inputs, guard_sizes, parse, reference, trace_digest,
)

#: Set-up is timed this many times per untraced run and the median
#: reported, so one slow child start does not decide ``setup_s``.
SETUP_REPEATS = 3
SMOKE_SCALE = 0.1
OUT_SCHEMA = 1


def set_up(workload, seed: int, workdir: str, recorder):
    """Everything before the first timed row → ``(inputs, seconds)``:
    trace generation, column build, parse, topology start (child bind,
    store directory, three nodes).  The topology is stopped again — each
    measured round starts its own."""
    started = time.perf_counter()
    inputs = build_inputs(workload, seed, recorder)
    with recorder.span("dsms.parser.parse"):
        parse(workload.sql)
    topo = TOPOLOGIES[workload.topology](workload, inputs, workdir, NULL_RECORDER)
    try:
        topo.start()
        elapsed = time.perf_counter() - started
    finally:
        topo.stop()
    return inputs, elapsed


def run_workload(workload, args, workdir: str, trace_file) -> dict:
    if args.smoke:
        workload = workload.scaled(SMOKE_SCALE)
    traced = bool(args.trace)
    setup_recorder = SpanRecorder() if traced else NULL_RECORDER
    repeats = 1 if traced or args.smoke else SETUP_REPEATS
    setup_seconds = []
    for _ in range(repeats):
        inputs, elapsed = set_up(workload, args.seed, workdir, setup_recorder)
        setup_seconds.append(elapsed)
    guard_sizes(inputs, reference(workload, inputs))

    # The trace and its batches are the generator's, not the system's: a
    # full collection that has to scan them costs ~20 ms and lands in
    # whichever probe triggers it, which made query_ms_p50 bimodal.  Frozen
    # objects are skipped by the collector; the system's own garbage is
    # collected as usual.
    gc.collect()
    gc.freeze()
    try:
        if traced:
            record = traced_record(workload, args, inputs, setup_recorder,
                                   workdir, trace_file)
        else:
            record = untraced_record(workload, args, inputs, setup_seconds,
                                     workdir)
    finally:
        gc.unfreeze()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": traced,
        "smoke": args.smoke,
        "trace_digest": trace_digest(inputs) if args.out else None,
        **record,
        "metrics": {
            name: {"value": value, "unit": args.units[name]}
            for name, value in record["metrics"].items()
        },
    }


def untraced_record(workload, args, inputs, setup_seconds, workdir: str) -> dict:
    metrics, samples, ops = measure.end_to_end(
        workload, inputs, workdir, args.seconds,
        min_rounds=1 if args.smoke else measure.MIN_ROUNDS,
    )
    samples["setups"] = len(setup_seconds)
    samples["ops_failed_share"] = ops.failed / max(ops.attempted, 1)
    samples["errors"] = ops.errors
    return {
        "correct": (
            samples["results_checked"] > 0
            and samples["result_mismatch_rows"] == 0
        ),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "samples": samples,
        "metrics": {"setup_s": measure.median(setup_seconds), **metrics},
    }


def traced_record(workload, args, inputs, setup_recorder, workdir: str,
                  trace_file) -> dict:
    """Ledger rounds until ``--seconds`` is spent (at least one)."""
    rounds = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if rounds and elapsed + elapsed / len(rounds) > args.seconds:
            break
        rounds.append(
            ledger.ledger_round(workload, inputs, setup_recorder, workdir)
        )
        rounds[-1].recorder.write(
            trace_file, workload=workload.name, round=len(rounds) - 1
        )
    attempted = sum(r.ops.attempted for r in rounds)
    failed = sum(r.ops.failed for r in rounds)
    mismatch = sum(r.mismatch_rows for r in rounds)
    values = ledger.combine([r.values for r in rounds])
    # The two harness metrics are totals, not medians: one bad round in
    # three must not vanish.
    values["ops_failed_share"] = failed / max(attempted, 1)
    values["result_mismatch_rows"] = float(mismatch)
    own_path = sorted(rounds[-1].own_self_ns.items(), key=lambda item: -item[1])
    names = [entry["name"] for entry in args.benchmark["per_layer"]]
    return {
        "correct": mismatch == 0,
        "attempted": attempted,
        "failed": failed,
        "count_metrics": sorted(ledger.COUNT_METRICS & values.keys()),
        "samples": {
            "ledger_rounds": len(rounds),
            "rows_per_pass": len(inputs.rows),
            "groups": inputs.groups,
            "own_path_self_ms": {
                name: round(ns / 1e6, 1) for name, ns in own_path[:10]
            },
            "off_path": [name for name in names if name not in values],
        },
        # The result line carries every per-layer metric on every workload;
        # a layer this workload's path never calls did no work: 0.
        "metrics": {name: values.get(name, 0.0) for name in names},
    }


def report(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"{'traced' if record['trace'] else 'untraced'}"
          f"{'  SMOKE (never compare)' if record['smoke'] else ''}")
    off_path = record["samples"].get("off_path", ())
    for name, entry in record["metrics"].items():
        note = "  (not on this workload's path)" if name in off_path else ""
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}{note}")
    for name, value in record["samples"].items():
        if name != "off_path":
            print(f"  [{name}] {value}")
    print(f"  [ops] attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")


def append_out(path: str, records: list[dict]) -> None:
    """Add this invocation's runs to ``path`` (a set of runs for
    ``compare.py``), creating it with the host stamp if needed."""
    document = {"schema": OUT_SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    stamp = environment_stamp()
    stamp["nproc"] = os.cpu_count()
    document["host"] = stamp
    document["runs"].extend(records)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="chooses the trace; same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each workload measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="1: per-layer ledger under the span recorder")
    parser.add_argument("--out", help="append the run records to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tenth-size inputs for the self-tests; the "
                             "record is flagged and never compared")
    args = parser.parse_args(argv)
    with open(REPO_DIR / "BENCHMARK.json") as handle:
        args.benchmark = json.load(handle)
    args.units = {
        entry["name"]: entry["unit"]
        for entry in args.benchmark["end_to_end"] + args.benchmark["per_layer"]
    }
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(args.benchmark["run_seconds"])
    chosen = [args.workload] if args.workload else list(WORKLOADS)

    workdir = STACK_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    records = []
    trace_file = open(STACK_DIR / "trace.jsonl", "w") if args.trace else None
    try:
        with pinned_generator():
            for name in chosen:
                record = run_workload(
                    WORKLOADS[name], args, str(workdir), trace_file
                )
                report(record)
                records.append(record)
    finally:
        if trace_file is not None:
            trace_file.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if args.out:
        append_out(args.out, records)

    # The result line: the end-to-end metrics of an untraced run (which
    # also measured, and printed above, the timing medians that live in the
    # layer table), every per-layer metric of a traced one.
    listed = args.benchmark["per_layer" if args.trace else "end_to_end"]
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{entry['name']}" if prefix else entry["name"]):
                r["metrics"][entry["name"]]
            for r in records
            for entry in listed
        },
    }))
    if not all(r["correct"] for r in records):
        return 1
    # A failed call has no latency sample, so its medians flatter the run.
    return 2 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())

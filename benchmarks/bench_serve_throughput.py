#!/usr/bin/env python
"""Serving benchmark: loopback wire-protocol ingest rate vs in-process.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py \
        [--out BENCH_serve.json] [--shards 0 4] [--repeats 3] \
        [--scale 1.0] [--batch-size 512]

Streams the smoke count/sum workload through a real ``repro.serve`` TCP
loopback connection — framing, codec bodies, credit round-trips and all —
into a single-engine backend and a 4-way (inline) sharded backend, and
compares against the in-process ``insert_many`` baseline.  Sharded
backends get a second pass on real worker processes.  Writes the
standard ``BENCH_serve.json`` artifact.

Gating is host-independent: absolute throughput is recorded only; the
gated entries are served-vs-in-process result equality (exact), the
deterministic shutdown-checkpoint size, the single-server columnar wire
overhead (absolute ceiling 2.0x in-process), and — on hosts with >= 4
cores — the multiprocess sharded speedup over in-process (floor 1.0x).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.artifacts import write_artifact  # noqa: E402
from repro.bench.serving import run_serve_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="artifact path (default BENCH_serve.json)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[0, 4],
        help="backends to sweep: 0 = single engine, N = N-way inline "
        "sharded (default: 0 4)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing passes (median kept)"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="trace rate multiplier"
    )
    parser.add_argument(
        "--batch-size", type=int, default=512, help="rows per INSERT_COLS frame"
    )
    parser.add_argument(
        "--no-recovery",
        action="store_true",
        help="skip the crash/restart recovery-time measurement",
    )
    parser.add_argument(
        "--no-multiprocess",
        action="store_true",
        help="skip the real-worker-process pass for sharded backends",
    )
    args = parser.parse_args(argv)

    artifact = run_serve_suite(
        scale=args.scale,
        repeats=args.repeats,
        batch_size=args.batch_size,
        shard_counts=tuple(args.shards),
        recovery=not args.no_recovery,
        multiprocess=not args.no_multiprocess,
    )
    write_artifact(artifact, args.out)

    entries = artifact["entries"]
    inprocess = entries["serve.inprocess.rows_per_sec"]["value"]
    cores = os.cpu_count() or 1
    print(
        f"serve throughput (loopback TCP, {cores} core(s), "
        f"{artifact['config']['trace_tuples']:,} rows, "
        f"batch {artifact['config']['batch_size']})"
    )
    print(f"{'backend':>12} {'rows/s':>12} {'overhead':>9} "
          f"{'ckpt bytes':>11} {'match':>6}")
    print(f"{'in-proc':>12} {inprocess:>12,.0f} {'1.00x':>9} "
          f"{'-':>11} {'-':>6}")
    failures = []
    for shards in args.shards:
        label = "single" if shards == 0 else f"sharded{shards}"
        prefix = f"serve.{label}"
        rate = entries[f"{prefix}.rows_per_sec"]["value"]
        overhead = entries[f"{prefix}.wire_overhead"]["value"]
        ckpt = entries[f"{prefix}.checkpoint_bytes"]["value"]
        match = entries[f"{prefix}.match_inprocess"]["value"] == 1.0
        print(f"{label:>12} {rate:>12,.0f} {overhead:>8.2f}x "
              f"{ckpt:>11,.0f} {'ok' if match else 'FAIL':>6}")
        if not match:
            failures.append(
                f"served result ({label}) does not match the in-process run"
            )
        if shards == 0 and overhead > 2.0:
            failures.append(
                f"single-server columnar wire overhead {overhead:.2f}x "
                "exceeds the 2.0x ceiling"
            )
        mp_key = f"{prefix}.mp.rows_per_sec"
        if mp_key in entries:
            mp_rate = entries[mp_key]["value"]
            mp_speedup = entries[f"{prefix}.mp.speedup_vs_inprocess"]
            mp_match = (
                entries[f"{prefix}.mp.match_inprocess"]["value"] == 1.0
            )
            print(f"{label + '/mp':>12} {mp_rate:>12,.0f} "
                  f"{inprocess / mp_rate:>8.2f}x {'-':>11} "
                  f"{'ok' if mp_match else 'FAIL':>6}")
            if not mp_match:
                failures.append(
                    f"multiprocess served result ({label}) does not match "
                    "the in-process run"
                )
            if mp_speedup["gate"] and mp_speedup["value"] < 1.0:
                failures.append(
                    f"multiprocess sharded speedup {mp_speedup['value']:.2f}x"
                    f" is below the 1.0x floor on a {cores}-core host"
                )
            elif not mp_speedup["gate"]:
                print(
                    f"  ({label} mp speedup {mp_speedup['value']:.2f}x vs "
                    f"in-process: report-only on a {cores}-core host)"
                )
    if "serve.recovery.restart_ms" in entries:
        restart = entries["serve.recovery.restart_ms"]["value"]
        replay = entries["serve.recovery.replay_ms"]["value"]
        recovered = entries["serve.recovery.match"]["value"] == 1.0
        print(
            f"  recovery: restart {restart:,.1f} ms, client reconnect+"
            f"replay {replay:,.1f} ms, results "
            f"{'ok' if recovered else 'FAIL'} (report-only timings)"
        )
        if not recovered:
            failures.append(
                "post-recovery result does not match the uninterrupted run"
            )
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

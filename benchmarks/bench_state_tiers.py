#!/usr/bin/env python
"""Benchmark the tiered group-state store against an all-RAM engine.

Runs the same million-group stream through an all-RAM engine and a
store-backed engine whose hot tier is capped at a small fraction of the
groups (default 5%), in paired child processes, and writes a
``BENCH_state.json`` artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_state_tiers.py \
        --out benchmarks/baselines/BENCH_state.json

Locally-asserted gates (exit 1 when violated):

* the store-backed flush digest equals the all-RAM digest (exact);
* the hot tier holds at most 10% of the groups;
* at contractual scale (>= 200k groups), the store-backed ingest's RSS
  growth stays under 0.9x the all-RAM ingest's.

Ingest rates and query latencies are recorded report-only — the repo's
reference host has one core and CI runners vary.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.artifacts import write_artifact  # noqa: E402
from repro.bench.state import run_state_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_state.json", help="artifact output path"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="group-count multiplier (1.0 = one million groups)",
    )
    parser.add_argument(
        "--groups",
        type=int,
        default=None,
        help="exact group count (overrides --scale)",
    )
    parser.add_argument(
        "--hot-fraction",
        type=float,
        default=0.05,
        help="hot-tier budget as a fraction of groups (default 0.05)",
    )
    args = parser.parse_args(argv)

    artifact = run_state_suite(
        scale=args.scale,
        groups=args.groups,
        hot_fraction=args.hot_fraction,
    )
    write_artifact(artifact, args.out)

    entries = artifact["entries"]

    def value(key: str) -> float:
        return entries[key]["value"]

    print(f"state-tier suite: {int(value('state.groups')):,} groups, "
          f"{int(value('state.rows')):,} rows "
          f"({artifact['config']['rows_per_group']} passes/group)")
    rows = [
        ("exact match vs all-RAM", "state.match_ram", "bool"),
        ("hot-tier fraction", "state.hot.fraction", ""),
        ("cold groups at ingest end", "state.cold.groups", ""),
        ("RSS ratio (store / all-RAM)", "state.rss.ratio", "x"),
        ("all-RAM ingest RSS delta", "state.rss.ram_delta_kb", "kB"),
        ("store ingest RSS delta", "state.rss.store_delta_kb", "kB"),
        ("segment bytes on disk", "state.store.segment_bytes", "B"),
        ("segment bytes per group", "state.store.bytes_per_group", "B"),
        ("key-directory bytes", "state.store.directory_bytes", "B"),
        ("store pressure at end", "state.store.pressure", ""),
        ("segments", "state.store.segments", ""),
        ("evictions", "state.store.evictions", ""),
        ("fault-ins", "state.store.fault_ins", ""),
        ("all-RAM ingest", "state.ingest.ram_rows_per_sec", "rows/s"),
        ("store ingest", "state.ingest.store_rows_per_sec", "rows/s"),
        ("ingest overhead", "state.ingest.overhead", "x all-RAM"),
        ("all-RAM query", "state.query.ram_ms", "ms"),
        ("store (cold) query", "state.query.store_ms", "ms"),
    ]
    for label, key, unit in rows:
        print(f"  {label:<30} {value(key):>16,.2f} {unit}")

    failures = []
    if value("state.match_ram") != 1.0:
        failures.append("store-backed flush diverged from the all-RAM flush")
    hot = entries["state.hot.fraction"]
    if hot["value"] > hot.get("limit", 0.10):
        failures.append(
            f"hot tier holds {hot['value']:.1%} of groups "
            f"(ceiling {hot.get('limit', 0.10):.0%})"
        )
    rss = entries["state.rss.ratio"]
    if rss["gate"] and rss["value"] > rss["limit"]:
        failures.append(
            f"store RSS delta is {rss['value']:.2f}x the all-RAM delta "
            f"(ceiling {rss['limit']:.2f}x)"
        )
    elif not rss["gate"]:
        print("  (RSS ratio report-only at this scale)")
    bpg = entries["state.store.bytes_per_group"]
    if bpg["gate"] and bpg["value"] > bpg["limit"]:
        failures.append(
            f"segments cost {bpg['value']:.0f} B/group "
            f"(ceiling {bpg['limit']:.0f} B — version-3 pages "
            "measured 174 B)"
        )
    elif not bpg["gate"]:
        print("  (bytes/group ceiling report-only at this scale)")

    print(f"\nartifact written to {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

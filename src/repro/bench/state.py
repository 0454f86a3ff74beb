"""State-tier benchmark: millions of groups under a bounded hot tier.

The tiered store's contract is that spilling group state to disk changes
*where* state lives, never *what* a query returns — Definition 3's fixed
numerators make the serialized partial states location-independent, so
merge-at-query is exact.  This suite runs the same many-group stream
through an all-RAM engine and a store-backed engine whose hot tier is
capped at a small fraction of the groups, then compares an
order-independent digest of the flushed results.

Host-independence rule (see :mod:`repro.bench.artifacts`):

* ``state.match_ram`` is gated **exactly**: the store-backed flush must
  be byte-identical to the all-RAM flush, at any scale.
* ``state.groups`` is gated exactly too, so CI cannot silently downscale
  the run the baseline artifact was produced at.
* ``state.hot.fraction`` carries an absolute ``limit`` of 0.10: the
  demonstration only counts if the hot tier holds at most 10% of the
  groups.
* ``state.rss.ratio`` — the store-backed ingest's resident-set growth
  divided by the all-RAM ingest's, measured in paired child processes on
  the same host — carries a < 1.0 ceiling at contractual scale: spilling
  must actually shrink the resident footprint, not just move bytes.
  Below :data:`_RSS_GATE_MIN_GROUPS` the deltas are allocator noise and
  the entry is report-only.
* Ingest rates and query latencies move with the host (and this repo's
  reference host has one core), so they are recorded, not gated.

Each measured run happens in a **child process** (``python -m
repro.bench.state --child``) so resident-set deltas are clean: the two
children pay identical interpreter/import/trace costs and differ only in
where group state lives.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
import time

from repro.bench.artifacts import ARTIFACT_VERSION, _entry, environment_stamp
from repro.core.errors import ParameterError
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

__all__ = ["STATE_SQL", "run_state_suite"]

#: Cheap builtins plus a per-group sketch: the sketch is what makes an
#: all-RAM table expensive at millions of groups, and its serialized
#: state is the round-trip the exactness gate exercises.
STATE_SQL = (
    "select destIP, count(*) as c, sum(len) as s, "
    "fwd_quantiles(len, 0.5) as med from TCP group by destIP"
)

#: Full scale: one million distinct groups (the ISSUE's demonstration
#: floor), each touched on four separate passes so evicted groups must
#: fault back in from segments mid-ingest.
_FULL_GROUPS = 1_000_000
_ROWS_PER_GROUP = 4
_DEFAULT_HOT_FRACTION = 0.05
_HOT_FRACTION_CEILING = 0.10
#: Below this the paired RSS deltas are dominated by allocator noise, so
#: the ratio is recorded but not gated (mirrors the serve suite's
#: core-count-conditional speedup gate).
_RSS_GATE_MIN_GROUPS = 200_000
_RSS_RATIO_CEILING = 0.9
#: Absolute ceiling on segment bytes per cold group, dead rows awaiting
#: compaction included.  Version-2 tagged records measured 244 B/group
#: on this workload at one million groups (the v1 JSON format ~324);
#: version-3 pages measure 174, and may only fall.
_BYTES_PER_GROUP_CEILING = 200.0
_DIGEST_MODULUS = 1 << 256


def _row_batches(groups: int, rows_per_group: int, batch_size: int, seed: int):
    """Yield PACKET_SCHEMA row batches without materializing the trace.

    Pass ``p`` revisits every group in order, so a store-backed engine
    has already evicted most of them by the time they come around again
    — the realistic worst case for fault-in churn.
    """
    rng = random.Random(seed)
    tick = 0
    batch = []
    for _pass in range(rows_per_group):
        for group in range(groups):
            tick += 1
            batch.append(
                (
                    tick,
                    float(tick),
                    "src",
                    f"g{group}",
                    1000,
                    80,
                    rng.randint(40, 1500),
                    "tcp",
                )
            )
            if len(batch) >= batch_size:
                yield batch
                batch = []
    if batch:
        yield batch


def _digest_rows(rows) -> str:
    """Order-independent digest: sum of per-row SHA-256 values.

    Commutative so neither child has to sort (and hold) a canonical copy
    of a million-row result; collisions would need a forged SHA-256.
    """
    total = 0
    for row in rows:
        canon = repr(sorted(dict(row).items())).encode()
        total = (
            total + int.from_bytes(hashlib.sha256(canon).digest(), "big")
        ) % _DIGEST_MODULUS
    return f"{total:064x}"


def _vm_kb(field: str) -> float:
    """Read a ``/proc/self/status`` memory field in kB (-1 off Linux)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return -1.0


def _run_child(
    mode: str,
    groups: int,
    rows_per_group: int,
    hot_groups: int,
    batch_size: int,
    seed: int,
    directory: str | None,
) -> dict:
    """One measured ingest+query pass; returns the child's report dict.

    Runs in the child process.  The RSS delta brackets only the ingest
    (state growth), not the query's result materialization, which is the
    same list in both modes.
    """
    store = None
    if mode == "store":
        from repro.store import TieredStore

        store = TieredStore(directory, hot_groups=hot_groups)
    engine = QueryEngine(
        parse_query(STATE_SQL, default_registry()),
        PACKET_SCHEMA,
        store=store,
    )
    gc.collect()
    rss_before = _vm_kb("VmRSS")
    rows = 0
    start = time.perf_counter()
    for batch in _row_batches(groups, rows_per_group, batch_size, seed):
        engine.insert_many(batch)
        rows += len(batch)
    ingest_s = time.perf_counter() - start
    gc.collect()
    rss_after = _vm_kb("VmRSS")

    stats = store.stats() if store is not None else {}
    start = time.perf_counter()
    result = engine.flush()
    query_s = time.perf_counter() - start
    digest = _digest_rows(result)
    report = {
        "mode": mode,
        "rows": rows,
        "result_groups": len(result),
        "digest": digest,
        "ingest_s": ingest_s,
        "query_s": query_s,
        "rss_delta_kb": rss_after - rss_before,
        "vm_hwm_kb": _vm_kb("VmHWM"),
        "store": stats,
    }
    if store is not None:
        store.close()
    return report


def _spawn_child(mode: str, config: dict, directory: str | None) -> dict:
    """Run :func:`_run_child` in a fresh interpreter, return its report."""
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    argv = [
        sys.executable,
        "-m",
        "repro.bench.state",
        "--child",
        "--mode",
        mode,
        "--groups",
        str(config["groups"]),
        "--rows-per-group",
        str(config["rows_per_group"]),
        "--hot-groups",
        str(config["hot_groups"]),
        "--batch-size",
        str(config["batch_size"]),
        "--seed",
        str(config["seed"]),
    ]
    if directory is not None:
        argv += ["--dir", directory]
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise ParameterError(
            f"state bench child ({mode}) failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def run_state_suite(
    name: str = "state",
    scale: float = 1.0,
    groups: int | None = None,
    hot_fraction: float = _DEFAULT_HOT_FRACTION,
    rows_per_group: int = _ROWS_PER_GROUP,
    batch_size: int = 20_000,
    seed: int = 7,
    inline: bool = False,
) -> dict:
    """Run the state-tier suite, returning a BENCH artifact dict.

    ``inline=True`` runs both passes in this process (no subprocesses) —
    cheap for tests, but the RSS deltas then share one allocator and the
    second pass inherits the first's freed arenas, so the ratio entry is
    emitted report-only in that mode.
    """
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    if groups is None:
        groups = max(1, int(round(_FULL_GROUPS * scale)))
    if groups < 1:
        raise ParameterError(f"groups must be >= 1, got {groups!r}")
    if rows_per_group < 1:
        raise ParameterError(
            f"rows_per_group must be >= 1, got {rows_per_group!r}"
        )
    if not 0.0 < hot_fraction <= 1.0:
        raise ParameterError(
            f"hot_fraction must be in (0, 1], got {hot_fraction!r}"
        )
    hot_groups = max(1, int(groups * hot_fraction))
    config = {
        "groups": groups,
        "rows_per_group": rows_per_group,
        "hot_groups": hot_groups,
        "batch_size": batch_size,
        "seed": seed,
    }
    with tempfile.TemporaryDirectory() as directory:
        if inline:
            ram = _run_child(
                "ram", groups, rows_per_group, hot_groups, batch_size,
                seed, None,
            )
            store = _run_child(
                "store", groups, rows_per_group, hot_groups, batch_size,
                seed, directory,
            )
        else:
            ram = _spawn_child("ram", config, None)
            store = _spawn_child("store", config, directory)

    entries: dict[str, dict] = {}
    entries["state.groups"] = _entry(
        float(groups), "groups", gate=True, higher_is_better=True,
        exact=True,
    )
    entries["state.rows"] = _entry(float(ram["rows"]), "rows", gate=False)
    entries["state.match_ram"] = _entry(
        1.0 if store["digest"] == ram["digest"] else 0.0, "bool",
        gate=True, higher_is_better=True, exact=True,
    )

    st = store["store"]
    entries["state.hot.fraction"] = _entry(
        hot_groups / groups, "fraction", gate=True,
        limit=_HOT_FRACTION_CEILING,
    )
    entries["state.hot.groups"] = _entry(
        float(st["hot_groups"]), "groups", gate=False
    )
    entries["state.cold.groups"] = _entry(
        float(st["cold_groups"]), "groups", gate=False
    )

    rss_gated = not inline and groups >= _RSS_GATE_MIN_GROUPS
    measurable = ram["rss_delta_kb"] > 0 and store["rss_delta_kb"] > 0
    ratio = (
        store["rss_delta_kb"] / ram["rss_delta_kb"] if measurable else -1.0
    )
    entries["state.rss.ratio"] = _entry(
        ratio, "x all-ram", gate=rss_gated and measurable,
        limit=_RSS_RATIO_CEILING if rss_gated and measurable else None,
    )
    entries["state.rss.ram_delta_kb"] = _entry(
        ram["rss_delta_kb"], "kB", gate=False
    )
    entries["state.rss.store_delta_kb"] = _entry(
        store["rss_delta_kb"], "kB", gate=False
    )

    # Deterministic for a fixed seed/config: the spill serialization and
    # eviction schedule do not depend on the host.  Threshold-gated (not
    # exact) so a deliberate format change shows up as a reviewed bump,
    # not a flake.
    entries["state.store.segment_bytes"] = _entry(
        float(st["segment_bytes"]), "bytes", gate=True
    )
    # Per-cold-group segment footprint, with an absolute ceiling: a
    # regression past it means the page encoding got fatter, regardless
    # of which baseline artifact is checked in.
    # Only gated at contractual scale: below it the run is a handful of
    # giant batches, segments never rotate, and compaction never gets to
    # reclaim the multi-pass garbage the ceiling assumes.
    cold = max(1, int(st["cold_groups"]))
    bpg_gated = groups >= _RSS_GATE_MIN_GROUPS
    entries["state.store.bytes_per_group"] = _entry(
        float(st["segment_bytes"]) / cold, "B/group", gate=bpg_gated,
        limit=_BYTES_PER_GROUP_CEILING if bpg_gated else None,
    )
    # The spill-to-disk key directory is the 10M-groups enabler: its
    # mmap footprint replaces a per-key Python dict and must scale as a
    # few dozen bytes per slot.  Threshold-gated like segment_bytes.
    entries["state.store.directory_bytes"] = _entry(
        float(st["directory_bytes"]), "bytes", gate=True
    )
    # Eviction pressure after a full ingest (report-only: the serve
    # layer's credit tests gate the behavior; here it is a health gauge).
    entries["state.store.pressure"] = _entry(
        float(st["pressure"]), "fraction", gate=False
    )
    entries["state.store.segments"] = _entry(
        float(st["segments"]), "segments", gate=False
    )
    entries["state.store.evictions"] = _entry(
        float(st["evictions"]), "evictions", gate=False
    )
    entries["state.store.fault_ins"] = _entry(
        float(st["fault_ins"]), "fault-ins", gate=False
    )

    for label, report in (("ram", ram), ("store", store)):
        entries[f"state.ingest.{label}_rows_per_sec"] = _entry(
            report["rows"] / report["ingest_s"], "rows/s", gate=False,
            higher_is_better=True,
        )
        entries[f"state.query.{label}_ms"] = _entry(
            report["query_s"] * 1e3, "ms", gate=False
        )
    entries["state.ingest.overhead"] = _entry(
        store["ingest_s"] / ram["ingest_s"], "x all-ram", gate=False
    )

    return {
        "name": name,
        "version": ARTIFACT_VERSION,
        "created": time.time(),
        "environment": environment_stamp(),
        "config": {
            "scale": scale,
            "inline": inline,
            "sql": STATE_SQL,
            "cpu_count": os.cpu_count(),
            **config,
        },
        "entries": entries,
    }


def _child_main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="state bench child (internal)"
    )
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--mode", choices=("ram", "store"), required=True)
    parser.add_argument("--groups", type=int, required=True)
    parser.add_argument("--rows-per-group", type=int, required=True)
    parser.add_argument("--hot-groups", type=int, required=True)
    parser.add_argument("--batch-size", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", default=None)
    args = parser.parse_args(argv)
    report = _run_child(
        args.mode,
        args.groups,
        args.rows_per_group,
        args.hot_groups,
        args.batch_size,
        args.seed,
        args.dir,
    )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(_child_main())

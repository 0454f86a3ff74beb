"""Cluster-tier benchmark: exact fan-out equality, recovery, rebalance.

Measures the coordinator-routed fleet (:mod:`repro.cluster`) against a
single in-process engine on the same stream, following the repo's
host-independence rule:

* ``match_single`` entries are gated **exactly**: a 3-node cluster's
  merged query — including after a kill-and-respawn of one node and
  after a decommission rebalance — must equal the single-engine run
  byte for byte.  That is the Section VI-B contract the tier rests on.
* ``recovery.rows_lost`` is gated exactly at 0: the kill lands after a
  cluster checkpoint, so unacked batches replay and nothing acked was
  uncheckpointed — any loss is a correctness bug, not noise.
* throughputs and wall-clock timings (ingest rate, respawn time,
  decommission time) move with the host and are recorded, not gated.

Nodes are in-process (:class:`~repro.cluster.nodes.LocalNode`): the
suite isolates the coordinator's routing/fold/recovery logic, not
process-spawn cost, and must stay cheap enough for the CI smoke job's
single core.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from repro.bench.artifacts import ARTIFACT_VERSION, _entry, environment_stamp
from repro.bench.runners import build_trace
from repro.cluster import Coordinator
from repro.core.errors import ParameterError
from repro.dsms.engine import QueryEngine, run_query
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

__all__ = ["CLUSTER_SQL", "run_cluster_suite"]

#: Mergeable builtins only, so every placement must be exact.
CLUSTER_SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s "
    "from TCP group by time/60 as tb, destIP"
)

_DURATION_SEC = 1.0
_RATE_PER_SEC = 2_000.0


def _canon(rows) -> list[str]:
    return sorted(repr(sorted(dict(row).items())) for row in rows)


def _expected(trace) -> list[str]:
    query = parse_query(CLUSTER_SQL, default_registry())
    return _canon(run_query(query, PACKET_SCHEMA, trace))


def _time_inprocess(trace, batch_size: int, repeats: int) -> float:
    rates = []
    for __ in range(repeats):
        engine = QueryEngine(
            parse_query(CLUSTER_SQL, default_registry()), PACKET_SCHEMA
        )
        start = time.perf_counter_ns()
        for begin in range(0, len(trace), batch_size):
            engine.insert_many(trace[begin:begin + batch_size])
        elapsed = time.perf_counter_ns() - start
        rates.append(len(trace) / (elapsed / 1e9))
    return statistics.median(rates)


def _time_cluster(trace, nodes: int, batch_size: int, repeats: int):
    """Ingest + query through an N-node cluster.

    Returns ``(rows/s, canonical results)``; the results come from the
    coordinator's PARTIALS fan-out and local merge_all fold.
    """
    rates, served = [], None
    for __ in range(repeats):
        with tempfile.TemporaryDirectory() as state_dir:
            with Coordinator.local(
                CLUSTER_SQL,
                PACKET_SCHEMA,
                state_dir,
                node_count=nodes,
                batch_size=batch_size,
            ) as cluster:
                start = time.perf_counter_ns()
                cluster.insert(trace)
                cluster.flush()
                elapsed = time.perf_counter_ns() - start
                rates.append(len(trace) / (elapsed / 1e9))
                served = _canon(cluster.query())
    return statistics.median(rates), served


def _time_recovery(trace, nodes: int, batch_size: int, repeats: int):
    """Checkpoint, kill one node, finish the stream, query.

    Returns ``(respawn ms, rows lost, canonical results)``.  The kill
    lands right after a cluster checkpoint, so the exact-accounting
    contract says zero rows may be lost: acked rows are durable in the
    checkpoint and unacked batches replay on reconnect.
    """
    respawn_ms, lost = [], 0
    served = None
    half = len(trace) // 2
    for __ in range(repeats):
        with tempfile.TemporaryDirectory() as state_dir:
            with Coordinator.local(
                CLUSTER_SQL,
                PACKET_SCHEMA,
                state_dir,
                node_count=nodes,
                batch_size=batch_size,
            ) as cluster:
                cluster.insert(trace[:half])
                cluster.checkpoint()
                victim = cluster.nodes[len(cluster.nodes) // 2]
                cluster._owners[victim].node.kill()
                start = time.perf_counter_ns()
                cluster.insert(trace[half:])
                cluster.flush()  # recovery (respawn + replay) happens here
                respawn_ms.append((time.perf_counter_ns() - start) / 1e6)
                lost += cluster.rows_lost
                served = _canon(cluster.query())
    return statistics.median(respawn_ms), lost, served


def _time_rebalance(trace, nodes: int, batch_size: int, repeats: int):
    """Decommission one node mid-stream (PARTIALS -> ADOPT blob ship).

    Returns ``(decommission ms, canonical results)``.
    """
    decommission_ms = []
    served = None
    half = len(trace) // 2
    for __ in range(repeats):
        with tempfile.TemporaryDirectory() as state_dir:
            with Coordinator.local(
                CLUSTER_SQL,
                PACKET_SCHEMA,
                state_dir,
                node_count=nodes,
                batch_size=batch_size,
            ) as cluster:
                cluster.insert(trace[:half])
                start = time.perf_counter_ns()
                cluster.decommission(cluster.nodes[0])
                decommission_ms.append(
                    (time.perf_counter_ns() - start) / 1e6
                )
                cluster.insert(trace[half:])
                served = _canon(cluster.query())
    return statistics.median(decommission_ms), served


def run_cluster_suite(
    name: str = "cluster",
    scale: float = 1.0,
    repeats: int = 3,
    nodes: int = 3,
    batch_size: int = 256,
) -> dict:
    """Run the cluster suite, returning a BENCH artifact dict."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats!r}")
    if nodes < 2:
        raise ParameterError(f"nodes must be >= 2, got {nodes!r}")
    trace = build_trace(
        duration_sec=_DURATION_SEC, rate_per_sec=_RATE_PER_SEC * scale
    )
    expected = _expected(trace)
    entries: dict[str, dict] = {}

    inprocess_rate = _time_inprocess(trace, batch_size, repeats)
    entries["cluster.inprocess.rows_per_sec"] = _entry(
        inprocess_rate, "rows/s", gate=False, higher_is_better=True
    )

    rate, served = _time_cluster(trace, nodes, batch_size, repeats)
    prefix = f"cluster.{nodes}node"
    entries[f"{prefix}.rows_per_sec"] = _entry(
        rate, "rows/s", gate=False, higher_is_better=True
    )
    entries[f"{prefix}.match_single"] = _entry(
        1.0 if served == expected else 0.0, "bool", gate=True,
        higher_is_better=True, exact=True,
    )

    respawn_ms, lost, recovered = _time_recovery(
        trace, nodes, batch_size, repeats
    )
    entries[f"{prefix}.recovery.respawn_ms"] = _entry(
        respawn_ms, "ms", gate=False
    )
    entries[f"{prefix}.recovery.rows_lost"] = _entry(
        float(lost), "rows", gate=True, exact=True
    )
    entries[f"{prefix}.recovery.match_single"] = _entry(
        1.0 if recovered == expected else 0.0, "bool", gate=True,
        higher_is_better=True, exact=True,
    )

    decommission_ms, rebalanced = _time_rebalance(
        trace, nodes, batch_size, repeats
    )
    entries["cluster.rebalance.decommission_ms"] = _entry(
        decommission_ms, "ms", gate=False
    )
    entries["cluster.rebalance.match_single"] = _entry(
        1.0 if rebalanced == expected else 0.0, "bool", gate=True,
        higher_is_better=True, exact=True,
    )

    return {
        "name": name,
        "version": ARTIFACT_VERSION,
        "created": time.time(),
        "environment": environment_stamp(),
        "config": {
            "trace_tuples": len(trace),
            "scale": scale,
            "repeats": repeats,
            "nodes": nodes,
            "batch_size": batch_size,
            "cpu_count": os.cpu_count(),
            "sql": CLUSTER_SQL,
        },
        "entries": entries,
    }

"""Loopback serving benchmark: wire-protocol ingest rate and correctness.

Measures the cost of putting :mod:`repro.serve` between a stream and the
engine: rows/second streamed through a real TCP loopback connection
(framing + column packing + credit round-trips included) into a single-engine and a
sharded backend, versus the in-process ``insert_many`` baseline.

Gating follows the repo's host-independence rule:

* absolute throughput (``rows_per_sec``) is recorded, not gated — it
  moves with the host's syscall and codec cost;
* ``wire_overhead`` for the single-server backend is gated with an
  absolute ceiling of 2.0x: it is a paired same-host ratio (each served
  pass divided by an in-process run timed immediately before it), so
  host speed and load drift cancel and the columnar data plane's
  contractual bound — loopback ingest within 2x of in-process — holds
  everywhere.  The sharded ratio additionally pays routing, so it stays
  report-only;
* ``mp.speedup_vs_inprocess`` (real worker processes) is gated with a
  floor of 1.0 only when the host has at least ``max(4, shards)`` cores;
  on smaller hosts the number is recorded for the table but a speedup is
  not a fair expectation;
* ``match_inprocess`` is gated **exactly**: results served over the wire
  must equal an in-process run of the same query on the same trace;
* ``checkpoint_bytes`` is gated: the shutdown checkpoint is deterministic
  (stable routing, canonical JSON), so its size only changes when the
  serialization format does — which is exactly what the gate should catch;
* recovery times (``recovery.restart_ms``, ``recovery.replay_ms``) are
  recorded, not gated — wall-clock of a crash/restart cycle is pure host
  noise; ``recovery.match`` (post-recovery result equality) is exact.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

from repro.bench.artifacts import ARTIFACT_VERSION, _entry, environment_stamp
from repro.bench.runners import build_trace
from repro.core.errors import ParameterError
from repro.dsms.engine import QueryEngine, run_query
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.serve import ServeClient, StreamServer, ThreadedServer, build_backend
from repro.workloads.netflow import PACKET_SCHEMA

__all__ = ["SERVE_SQL", "run_serve_suite"]

#: The smoke workload query — mergeable builtins, so every backend must
#: reproduce the in-process result bit-for-bit.
SERVE_SQL = (
    "select tb, destIP, destPort, count(*) as c, sum(len) as s "
    "from TCP group by time/60 as tb, destIP, destPort"
)

_SERVE_DURATION_SEC = 1.0
_SERVE_RATE_PER_SEC = 5_000.0


def _canon(rows) -> list[str]:
    return sorted(repr(sorted(dict(row).items())) for row in rows)


def _expected(trace) -> list[str]:
    query = parse_query(SERVE_SQL, default_registry())
    return _canon(run_query(query, PACKET_SCHEMA, trace))


def _time_inprocess(trace, batch_size: int, repeats: int) -> float:
    """The no-network baseline: batched ``insert_many`` rows/second."""
    rates = []
    for __ in range(repeats):
        engine = QueryEngine(
            parse_query(SERVE_SQL, default_registry()), PACKET_SCHEMA
        )
        start = time.perf_counter_ns()
        for begin in range(0, len(trace), batch_size):
            engine.insert_many(trace[begin:begin + batch_size])
        elapsed = time.perf_counter_ns() - start
        rates.append(len(trace) / (elapsed / 1e9))
    return statistics.median(rates)


def _time_served(
    trace,
    shards: int,
    batch_size: int,
    repeats: int,
    *,
    processes: int | None = 0,
):
    """Loopback ingest through a real server.

    Returns ``(rows/s, overhead, served rows, checkpoint bytes)`` where
    ``overhead`` is the median of *paired* per-repeat ratios: each served
    pass is bracketed by an in-process ``insert_many`` run immediately
    before and after it, and the harmonic mean of the two rates (i.e. the
    mean elapsed time) divides the served rate.  Adjacent measurements
    see the same host conditions, so the ratio cancels load drift that
    would dominate a cross-phase comparison on a busy (or single-core)
    machine.

    ``processes=None`` runs the sharded backend on real worker processes
    instead of inline shards.
    """
    rates, ratios = [], []
    served = None
    checkpoint_bytes = 0
    for __ in range(repeats):
        before_rate = _time_inprocess(trace, batch_size, 1)
        backend = build_backend(
            SERVE_SQL, PACKET_SCHEMA, shards=shards, processes=processes
        )
        with tempfile.TemporaryDirectory() as state_dir:
            server = ThreadedServer(
                StreamServer(backend, state_dir=state_dir)
            ).start()
            with ServeClient(server.host, server.port) as client:
                start = time.perf_counter_ns()
                for begin in range(0, len(trace), batch_size):
                    client.insert(trace[begin:begin + batch_size])
                client.flush()
                elapsed = time.perf_counter_ns() - start
                rate = len(trace) / (elapsed / 1e9)
                rates.append(rate)
                served = client.query()
            path = server.stop()
            checkpoint_bytes = os.path.getsize(path)
        after_rate = _time_inprocess(trace, batch_size, 1)
        paired_rate = statistics.harmonic_mean([before_rate, after_rate])
        ratios.append(paired_rate / rate)
    return (
        statistics.median(rates),
        statistics.median(ratios),
        _canon(served),
        checkpoint_bytes,
    )


def _time_recovery(trace, batch_size: int, repeats: int):
    """Crash/recover cycle: (restart ms, client replay ms, results match).

    Ingests half the trace, checkpoints, hard-drops the server loop (no
    graceful shutdown — the crash path), then measures two recovery
    costs separately: bringing a server back up on the same state dir
    (restore + bind), and a retrying client reconnecting, replaying its
    unacknowledged batches, and streaming the rest of the trace.
    """
    restart_ms, replay_ms = [], []
    match = True
    half = len(trace) // 2
    for __ in range(repeats):
        with tempfile.TemporaryDirectory() as state_dir:
            backend = build_backend(SERVE_SQL, PACKET_SCHEMA, processes=0)
            server = ThreadedServer(
                StreamServer(backend, state_dir=state_dir)
            ).start()
            port = server.port
            client = ServeClient(
                server.host, port, retries=10, backoff_s=0.01, jitter=False
            )
            try:
                for begin in range(0, half, batch_size):
                    client.insert(trace[begin:min(begin + batch_size, half)])
                client.flush()
                client.checkpoint()
                server.kill()  # crash: no graceful-shutdown checkpoint

                start = time.perf_counter_ns()
                backend = build_backend(SERVE_SQL, PACKET_SCHEMA, processes=0)
                server = ThreadedServer(
                    StreamServer(backend, state_dir=state_dir, port=port)
                ).start()
                restart_ms.append((time.perf_counter_ns() - start) / 1e6)

                start = time.perf_counter_ns()
                for begin in range(half, len(trace), batch_size):
                    client.insert(trace[begin:begin + batch_size])
                client.flush()  # includes the reconnect + backoff + replay
                replay_ms.append((time.perf_counter_ns() - start) / 1e6)
                match = match and _canon(client.query()) == _expected(trace)
            finally:
                client.close()
                server.stop()
    return statistics.median(restart_ms), statistics.median(replay_ms), match


def run_serve_suite(
    name: str = "serve",
    scale: float = 1.0,
    repeats: int = 3,
    batch_size: int = 512,
    shard_counts: tuple[int, ...] = (0, 4),
    recovery: bool = True,
    multiprocess: bool = True,
) -> dict:
    """Run the serving suite, returning a BENCH artifact dict.

    ``shard_counts`` selects the backends: 0 is the single in-process
    engine, N >= 1 an N-way sharded backend (inline shards — the wire cost
    is what this suite isolates, not multiprocessing).  ``recovery`` adds
    the crash/restart cycle measurements (report-only timings);
    ``multiprocess`` adds a real-worker-process pass per sharded backend,
    whose speedup over in-process is gated (floor 1.0) only on hosts with
    enough cores to make parallelism a fair expectation.
    """
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats!r}")
    trace = build_trace(
        duration_sec=_SERVE_DURATION_SEC,
        rate_per_sec=_SERVE_RATE_PER_SEC * scale,
    )
    expected = _expected(trace)
    entries: dict[str, dict] = {}
    inprocess_rate = _time_inprocess(trace, batch_size, repeats)
    entries["serve.inprocess.rows_per_sec"] = _entry(
        inprocess_rate, "rows/s", gate=False, higher_is_better=True
    )
    for shards in shard_counts:
        label = "single" if shards == 0 else f"sharded{shards}"
        rate, overhead, served, checkpoint_bytes = _time_served(
            trace, shards, batch_size, repeats
        )
        prefix = f"serve.{label}"
        entries[f"{prefix}.rows_per_sec"] = _entry(
            rate, "rows/s", gate=False, higher_is_better=True
        )
        # The contractual bound from the columnar data plane (DESIGN §10):
        # single-server loopback ingest stays within 2x the in-process
        # rate.  Wire overhead is a paired same-host ratio, so it gates
        # cleanly; the sharded ratio also pays shard routing and stays
        # report-only.
        entries[f"{prefix}.wire_overhead"] = _entry(
            overhead, "x in-process",
            gate=shards == 0, limit=2.0 if shards == 0 else None,
        )
        entries[f"{prefix}.match_inprocess"] = _entry(
            1.0 if served == expected else 0.0, "bool", gate=True,
            higher_is_better=True, exact=True,
        )
        entries[f"{prefix}.checkpoint_bytes"] = _entry(
            float(checkpoint_bytes), "bytes", gate=True
        )
        if shards > 0 and multiprocess:
            # Real worker processes: the served sharded rate should beat
            # the in-process single core once the host has the cores for
            # it; on smaller hosts the speedup is recorded, not gated.
            mp_rate, mp_overhead, mp_served, __ = _time_served(
                trace, shards, batch_size, repeats, processes=None
            )
            cores = os.cpu_count() or 1
            entries[f"{prefix}.mp.rows_per_sec"] = _entry(
                mp_rate, "rows/s", gate=False, higher_is_better=True
            )
            entries[f"{prefix}.mp.speedup_vs_inprocess"] = _entry(
                1.0 / mp_overhead, "x in-process",
                gate=cores >= max(4, shards), higher_is_better=True,
                limit=1.0 if cores >= max(4, shards) else None,
            )
            entries[f"{prefix}.mp.match_inprocess"] = _entry(
                1.0 if mp_served == expected else 0.0, "bool", gate=True,
                higher_is_better=True, exact=True,
            )
    if recovery:
        restart_ms, replay_ms, recovered = _time_recovery(
            trace, batch_size, repeats
        )
        entries["serve.recovery.restart_ms"] = _entry(
            restart_ms, "ms", gate=False
        )
        entries["serve.recovery.replay_ms"] = _entry(
            replay_ms, "ms", gate=False
        )
        entries["serve.recovery.match"] = _entry(
            1.0 if recovered else 0.0, "bool", gate=True,
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
            "batch_size": batch_size,
            "shard_counts": list(shard_counts),
            "recovery": recovery,
            "multiprocess": multiprocess,
            "cpu_count": os.cpu_count(),
            "sql": SERVE_SQL,
        },
        "entries": entries,
    }

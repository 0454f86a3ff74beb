"""The measurement loop shared by the untraced and the traced run.

A *round* is: fresh topology, one ingest pass over the whole trace, then
probes on the loaded topology — live queries (the first is checked
against the reference), checkpoints, single-batch insert→flush ack
probes, and last the bytes of durable state.  The untraced run repeats rounds until ``--seconds`` is spent and
reports medians; the traced run (``ledger.py``) runs single rounds under a
span recorder.

Closed loop: one generator thread, one client connection, the next call
is made when the previous one returned.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from repro.core.errors import DecayError

from spans import NULL_RECORDER
from topologies import TOPOLOGIES, peak_rss_kib
from workloads import canonical, mismatch_rows

__all__ = [
    "Ops", "Round", "run_round", "timings", "end_to_end", "median", "MIN_ROUNDS",
]

#: Rounds run even when ``--seconds`` is already spent, so every median
#: has at least this many passes behind it.
MIN_ROUNDS = 3


class Ops:
    """Counts calls attempted and calls that raised or were refused.

    ``RemoteError``, ``ProtocolError`` and ``ClientConnectionError`` are
    all ``DecayError``s; a raw socket error is an ``OSError``.  A failed
    call is counted and the run goes on; it contributes no latency sample.
    """

    FAILURES = (DecayError, OSError)

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, function, *args):
        """``(True, result)``, or ``(False, None)`` after a counted failure."""
        self.attempted += 1
        try:
            return True, function(*args)
        except self.FAILURES as error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(error).__name__}: {error}")
            return False, None

    def timed_ms(self, samples: list, *functions) -> object:
        """Run ``functions`` back to back as one operation; on success append
        the elapsed milliseconds to ``samples`` and return the first result."""
        start = time.perf_counter_ns()
        first = None
        for index, function in enumerate(functions):
            ok, value = self.call(function)
            if not ok:
                return None
            if index == 0:
                first = value
        samples.append((time.perf_counter_ns() - start) / 1e6)
        return first


@dataclass
class Round:
    rows_acked: int = 0
    ingest_s: float = 0.0  # wall time inside insert and the final flush
    flush_s: float = 0.0  # of which: the final flush
    cpu_s: float = 0.0  # generator + child CPU over the whole pass
    own_cpu_s: float = 0.0  # generator process only
    pass_s: float = 0.0  # wall time of the pass, interleaved reads included
    query_ms: list = field(default_factory=list)
    checkpoint_ms: list = field(default_factory=list)
    ack_ms: list = field(default_factory=list)
    state_bytes: int = 0
    mismatch: int | None = None  # None: no query result to check
    child_peak_rss_kib: int = 0


def run_round(workload, inputs, workdir, recorder, ops, topology=None,
              probes=None, query_every=0, inspect=None) -> Round:
    """One round on ``topology`` (default: the workload's own).

    ``inspect(topo, round)`` runs on the loaded topology after the probes
    (the ledger reads layer counters there); the topology is always
    stopped before this returns, also when something raised.
    """
    topo = TOPOLOGIES[topology or workload.topology](
        workload, inputs, workdir, recorder
    )
    queries, checkpoints, acks = workload.probes if probes is None else probes
    result = Round()
    try:
        topo.start()
        _ingest_pass(topo, inputs, recorder, ops, query_every, result)
        for index in range(queries):
            rows = ops.timed_ms(result.query_ms, topo.query)
            if index == 0 and rows is not None:
                result.mismatch = mismatch_rows(canonical(rows), inputs.expected)
        for _ in range(checkpoints):
            ops.timed_ms(result.checkpoint_ms, topo.checkpoint)
        batches = len(inputs.col_batches)
        for index in range(acks):
            # Cycle through the trace so ack probes meet the same mix of
            # hot and cold groups as ingest, not one re-warmed batch.
            batch = index % batches
            ops.timed_ms(
                result.ack_ms, lambda: topo.insert(batch), topo.flush
            )
        if checkpoints:
            # Last: the store compacts to count its live bytes, and the
            # probes above should meet the store as ingest left it.
            ok, size = ops.call(topo.state_bytes)
            result.state_bytes = size if ok else 0
        result.child_peak_rss_kib = topo.child_peak_rss_kib()
        if inspect is not None:
            inspect(topo, result)
        return result
    finally:
        topo.stop()


def _ingest_pass(topo, inputs, recorder, ops, query_every, result) -> None:
    acked_if_flushed = 0
    ingest_ns = 0
    own_cpu = time.process_time()
    child_cpu = topo.child_cpu_s()
    pass_start = time.perf_counter_ns()
    with recorder.span("ingest.pass"):
        for index, batch in enumerate(inputs.col_batches):
            start = time.perf_counter_ns()
            ok, _ = ops.call(topo.insert, index)
            ingest_ns += time.perf_counter_ns() - start
            if ok:
                acked_if_flushed += len(batch[0])
            if query_every and (index + 1) % query_every == 0:
                # Reads beside writes: a growing fan-out query mid-pass.
                ops.call(topo.query)
        start = time.perf_counter_ns()
        ok, _ = ops.call(topo.flush)
        flush_ns = time.perf_counter_ns() - start
    result.pass_s = (time.perf_counter_ns() - pass_start) / 1e9
    result.own_cpu_s = time.process_time() - own_cpu
    result.cpu_s = result.own_cpu_s + topo.child_cpu_s() - child_cpu
    result.ingest_s = (ingest_ns + flush_ns) / 1e9
    result.flush_s = flush_ns / 1e9
    result.rows_acked = acked_if_flushed if ok else 0


def median(values: list) -> float:
    return statistics.median(values) if values else float("nan")


def timings(rounds: list[Round]) -> dict:
    """The five timing medians over ``rounds`` (tracing off in all of them)."""
    return {
        "ingest_rows_per_s": median(
            [r.rows_acked / r.ingest_s for r in rounds if r.rows_acked]),
        "cpu_us_per_row": median(
            [r.cpu_s * 1e6 / r.rows_acked for r in rounds if r.rows_acked]),
        "ack_ms_p50": median([v for r in rounds for v in r.ack_ms]),
        "query_ms_p50": median([v for r in rounds for v in r.query_ms]),
        "checkpoint_ms_p50": median([v for r in rounds for v in r.checkpoint_ms]),
    }


def end_to_end(workload, inputs, workdir, seconds: float,
               min_rounds: int = MIN_ROUNDS) -> tuple[dict, dict, Ops]:
    """Rounds until ``seconds`` is spent → ``(metrics, samples, ops)``.

    ``setup_s`` is the caller's (it owns set-up); everything else an
    untraced run reports is computed here.
    """
    ops = Ops()
    rounds: list[Round] = []
    # From here on the high-water mark is this workload's: the trace it
    # holds plus what the rounds add, not the reference engine of set-up
    # or an earlier workload of the same invocation.
    peak_rss_kib(reset=True)
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        mean_round = elapsed / len(rounds) if rounds else 0.0
        if len(rounds) >= min_rounds and elapsed + mean_round > seconds:
            break
        rounds.append(run_round(
            workload, inputs, workdir, NULL_RECORDER, ops,
            query_every=workload.query_every,
        ))
    checked = [r.mismatch for r in rounds if r.mismatch is not None]
    child_rss_kib = max(r.child_peak_rss_kib for r in rounds)
    state_bytes = [r.state_bytes for r in rounds if r.state_bytes]
    metrics = {
        **timings(rounds),
        "peak_rss_mb": (peak_rss_kib() + child_rss_kib) / 1024.0,
        "state_bytes_per_group": (
            (state_bytes[-1] if state_bytes else float("nan"))
            / max(inputs.groups, 1)),
    }
    samples = {
        "passes": len(rounds),
        "rows_per_pass": len(inputs.rows),
        "acks": sum(len(r.ack_ms) for r in rounds),
        "queries": sum(len(r.query_ms) for r in rounds),
        "checkpoints": sum(len(r.checkpoint_ms) for r in rounds),
        "groups": inputs.groups,
        "results_checked": len(checked),
        "result_mismatch_rows": sum(checked) if checked else None,
    }
    return metrics, samples, ops

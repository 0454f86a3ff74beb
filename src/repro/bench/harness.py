"""Measurement harness shared by every figure benchmark.

The paper reports, per method: CPU load at a given stream rate, throughput
vs accuracy, and state per group.  This module measures the Python
equivalents:

* :func:`time_query` — run a GSQL query over a trace, returning per-tuple
  cost (ns) and per-group state (bytes);
* :func:`loads_at_rates` — convert measured costs into the CPU-load-%
  series the figures plot (saturating at 100%, with drop fractions from
  the load-shedding runtime);
* :func:`achievable_throughput` — the Figure 2(c) quantity.

Absolute numbers are host-dependent; the benchmarks assert and
EXPERIMENTS.md reports *shape*: orderings, ratios and saturation points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.errors import ParameterError
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.runtime import LoadSheddingRuntime, cpu_load_percent
from repro.dsms.schema import Schema
from repro.dsms.udaf import UdafRegistry

__all__ = [
    "MethodResult",
    "time_query",
    "time_consumer",
    "loads_at_rates",
    "achievable_throughput",
]

#: The share of a trace both timers run untimed first, to prime
#: dictionaries and code paths.
_WARMUP_FRACTION = 0.1


@dataclass
class MethodResult:
    """Measured behaviour of one method over one trace."""

    name: str
    ns_per_tuple: float
    groups: int = 0
    state_bytes_total: int = 0
    results: list = field(default_factory=list)

    @property
    def state_bytes_per_group(self) -> float:
        """Average aggregate state per group (Figure 2(d) / 4(c)/(d))."""
        return self.state_bytes_total / self.groups if self.groups else 0.0

    def load_at(self, rate_per_sec: float) -> float:
        """CPU load % at a stream rate (capped at 100)."""
        return cpu_load_percent(self.ns_per_tuple, rate_per_sec)


def time_query(
    name: str,
    sql: str,
    schema: Schema,
    registry: UdafRegistry,
    trace: Sequence[tuple],
    two_level: bool = True,
    batch_size: int | None = None,
    metrics=None,
    metrics_name: str | None = None,
) -> MethodResult:
    """Run ``sql`` over ``trace`` and measure per-tuple cost and state.

    A warmup prefix (``_WARMUP_FRACTION`` of the trace) primes
    dictionaries and code paths before timing starts; state is accounted
    *before* flushing so it reflects steady per-group footprints.  With
    ``batch_size`` set the engine ingests via
    :meth:`~repro.dsms.engine.QueryEngine.insert_many` in chunks of that
    size instead of tuple-at-a-time :meth:`process` — the results are
    identical, the measured cost reflects the batched path.  An enabled
    :class:`~repro.obs.registry.MetricsRegistry` passed as ``metrics``
    instruments the engine (under ``metrics_name``, default the query
    name); timing runs meant for BENCH artifacts pass none, so measured
    costs never include instrumentation overhead.
    """
    if not trace:
        raise ParameterError("trace must be non-empty")
    if batch_size is not None and batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size!r}")
    query = parse_query(sql, registry)
    engine = QueryEngine(
        query,
        schema,
        two_level=two_level,
        metrics=metrics,
        metrics_name=metrics_name if metrics_name is not None else name,
    )
    warmup = int(len(trace) * _WARMUP_FRACTION)
    timed_rows = trace[warmup:]
    if batch_size is None:
        process = engine.process
        for row in trace[:warmup]:
            process(row)
        start = time.perf_counter_ns()
        for row in timed_rows:
            process(row)
        elapsed = time.perf_counter_ns() - start
    else:
        engine.insert_many(trace[:warmup])
        start = time.perf_counter_ns()
        for begin in range(0, len(timed_rows), batch_size):
            engine.insert_many(timed_rows[begin:begin + batch_size])
        elapsed = time.perf_counter_ns() - start
    state_bytes = engine.state_size_bytes()
    groups = engine.group_count
    results = engine.flush()
    return MethodResult(
        name=name,
        ns_per_tuple=elapsed / max(1, len(timed_rows)),
        groups=groups,
        state_bytes_total=state_bytes,
        results=results,
    )


def time_consumer(
    name: str,
    consumer: Callable[[tuple], None],
    trace: Sequence[tuple],
    state_bytes: Callable[[], int] | None = None,
) -> MethodResult:
    """Measure a bare per-tuple callable (non-DSMS paths, ablations),
    after the same untimed warmup as :func:`time_query`."""
    if not trace:
        raise ParameterError("trace must be non-empty")
    warmup = int(len(trace) * _WARMUP_FRACTION)
    for row in trace[:warmup]:
        consumer(row)
    timed_rows = trace[warmup:]
    start = time.perf_counter_ns()
    for row in timed_rows:
        consumer(row)
    elapsed = time.perf_counter_ns() - start
    total_state = state_bytes() if state_bytes is not None else 0
    return MethodResult(
        name=name,
        ns_per_tuple=elapsed / max(1, len(timed_rows)),
        groups=1 if total_state else 0,
        state_bytes_total=total_state,
    )


def loads_at_rates(
    result: MethodResult,
    rates: Sequence[float],
    trace_len: int = 100_000,
) -> list[dict]:
    """CPU load and drop fraction of a method across stream rates.

    Uses the deterministic load-shedding runtime so drop fractions at
    super-saturating rates are reported the way the paper describes
    ("reached 100% CPU utilization and dropped tuples").
    """
    rows = []
    for rate in rates:
        runtime = LoadSheddingRuntime(result.ns_per_tuple, rate)
        report = runtime.replay(iter(range(trace_len)))  # content-agnostic
        rows.append(
            {
                "rate": rate,
                "load_percent": report.cpu_load_percent,
                "offered_percent": report.offered_load_percent,
                "drop_fraction": report.drop_fraction,
            }
        )
    return rows


def achievable_throughput(result: MethodResult) -> float:
    """Tuples/sec one core sustains at the measured per-tuple cost."""
    if result.ns_per_tuple <= 0:
        raise ParameterError("per-tuple cost must be positive")
    return 1e9 / result.ns_per_tuple

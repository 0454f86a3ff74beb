"""Measurement harness shared by every figure benchmark.

The paper reports, per method: CPU load at a given stream rate, throughput
vs accuracy, and state per group.  This module measures the Python
equivalents:

* :func:`time_query` — run a GSQL query over a trace, returning per-tuple
  cost (ns) and per-group state (bytes);
* :func:`time_consumer` — the same measurement for a bare per-tuple
  callable.  Both time one loop, so every figure's ns/tuple comes from
  identical code;
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


def _timed_pass(consumer: Callable[[tuple], None], trace: Sequence[tuple]) -> float:
    """Feed ``trace`` to ``consumer`` one tuple at a time; ns per timed tuple.

    The first ``_WARMUP_FRACTION`` of the trace runs untimed to prime
    dictionaries and code paths; the rest is the one timed loop both
    :func:`time_query` and :func:`time_consumer` report.
    """
    if not trace:
        raise ParameterError("trace must be non-empty")
    warmup = int(len(trace) * _WARMUP_FRACTION)
    for row in trace[:warmup]:
        consumer(row)
    timed_rows = trace[warmup:]
    start = time.perf_counter_ns()
    for row in timed_rows:
        consumer(row)
    return (time.perf_counter_ns() - start) / max(1, len(timed_rows))


def time_query(
    name: str,
    sql: str,
    schema: Schema,
    registry: UdafRegistry,
    trace: Sequence[tuple],
    two_level: bool = True,
    metrics=None,
) -> MethodResult:
    """Run ``sql`` over ``trace`` and measure per-tuple cost and state.

    The engine ingests tuple at a time through
    :meth:`~repro.dsms.engine.QueryEngine.process`, timed by the same
    warmed-up loop as :func:`time_consumer`; state is accounted *before*
    flushing so it reflects steady per-group footprints.  An enabled
    :class:`~repro.obs.registry.MetricsRegistry` passed as ``metrics``
    instruments the engine's ``process`` and ``flush`` under the prefix
    ``engine.<name>.``; timing runs meant for BENCH artifacts pass none, so
    measured costs never include instrumentation overhead.
    """
    engine = QueryEngine(parse_query(sql, registry), schema, two_level=two_level)
    if metrics is not None and metrics.enabled:
        from repro.obs.instrument import EngineInstrumentation

        EngineInstrumentation(engine, metrics, name)
    ns_per_tuple = _timed_pass(engine.process, trace)
    state_bytes = engine.state_size_bytes()
    groups = engine.group_count
    return MethodResult(
        name=name,
        ns_per_tuple=ns_per_tuple,
        groups=groups,
        state_bytes_total=state_bytes,
        results=engine.flush(),
    )


def time_consumer(
    name: str,
    consumer: Callable[[tuple], None],
    trace: Sequence[tuple],
    state_bytes: Callable[[], int] | None = None,
) -> MethodResult:
    """Measure a bare per-tuple callable (non-DSMS paths) with the same
    timed loop as :func:`time_query`."""
    ns_per_tuple = _timed_pass(consumer, trace)
    total_state = state_bytes() if state_bytes is not None else 0
    return MethodResult(
        name=name,
        ns_per_tuple=ns_per_tuple,
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

"""Stream runtime: rate simulation, CPU-load accounting, load shedding.

The paper's experiments report *CPU load* as the stream rate is varied and
observe that backward-decay methods "reached 100% CPU utilization and
dropped tuples".  On a single core, CPU load is per-tuple processing cost
times arrival rate; ``repro.bench.harness`` measures the former and
this module turns it into load and simulates the latter:

* :func:`cpu_load_percent` converts the measured cost (nanoseconds per
  tuple) and a target rate into the load percentage the figures plot;
* :class:`LoadSheddingRuntime` replays a trace against a *processing
  budget* derived from the target rate: tuples arriving while the
  (bounded) input buffer is saturated are dropped, reproducing the
  saturation behaviour at 100% load.

Everything here works on notional stream rates: the absolute packets/sec
of a Python engine differ from GS on a 2008 Xeon, but load ratios between
methods — which are what Figures 2-5 compare — carry over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.errors import ParameterError

__all__ = [
    "cpu_load_percent",
    "LoadReport",
    "LoadSheddingRuntime",
]


def cpu_load_percent(ns_per_tuple: float, rate_per_sec: float) -> float:
    """CPU load (%) at a target stream rate, capped at 100.

    ``load = rate * time_per_tuple``: e.g. 2500 ns/tuple at 200k tuples/s
    is 50% of one core.  Values are capped at 100 because a saturated
    single-threaded engine cannot exceed one core — excess arrivals are
    dropped instead (see :class:`LoadSheddingRuntime`).
    """
    if ns_per_tuple < 0 or rate_per_sec < 0:
        raise ParameterError("cost and rate must be non-negative")
    load = rate_per_sec * ns_per_tuple / 1e9 * 100.0
    return min(load, 100.0)


def offered_load_percent(ns_per_tuple: float, rate_per_sec: float) -> float:
    """Uncapped CPU load (%) — how far beyond saturation the offered rate is."""
    if ns_per_tuple < 0 or rate_per_sec < 0:
        raise ParameterError("cost and rate must be non-negative")
    return rate_per_sec * ns_per_tuple / 1e9 * 100.0


@dataclass(frozen=True)
class LoadReport:
    """Outcome of replaying a trace at a target rate."""

    rate_per_sec: float
    ns_per_tuple: float
    cpu_load_percent: float
    offered_load_percent: float
    tuples_offered: int
    tuples_processed: int
    tuples_dropped: int

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered tuples dropped (0 when keeping up)."""
        if self.tuples_offered == 0:
            return 0.0
        return self.tuples_dropped / self.tuples_offered

    @property
    def saturated(self) -> bool:
        """True when the engine could not keep up with the offered rate."""
        return self.tuples_dropped > 0


class LoadSheddingRuntime:
    """Replays a trace at a notional rate against a measured tuple cost.

    The runtime models GS's behaviour under overload: a bounded input
    buffer absorbs bursts; once processing debt exceeds the buffer,
    arriving tuples are dropped unprocessed.  Deterministic: it uses the
    *measured average* per-tuple cost rather than re-timing every tuple, so
    reports are reproducible across runs on the same measurements.

    Parameters
    ----------
    ns_per_tuple:
        Measured average processing cost (see
        :func:`repro.bench.harness.time_query`).
    rate_per_sec:
        Offered stream rate.
    buffer_tuples:
        Input buffer capacity, in tuples, before shedding begins.
    """

    def __init__(
        self,
        ns_per_tuple: float,
        rate_per_sec: float,
        buffer_tuples: int = 10_000,
    ):
        if ns_per_tuple <= 0 or rate_per_sec <= 0:
            raise ParameterError("cost and rate must be positive")
        if buffer_tuples < 0:
            raise ParameterError("buffer_tuples must be >= 0")
        self.ns_per_tuple = ns_per_tuple
        self.rate_per_sec = rate_per_sec
        self.buffer_tuples = buffer_tuples
        self._interarrival_ns = 1e9 / rate_per_sec

    def replay(
        self,
        rows: Iterable[tuple],
        process: Callable[[tuple], None] | None = None,
    ) -> LoadReport:
        """Replay ``rows``; optionally process surviving tuples for real.

        Returns a :class:`LoadReport` with the load and drop accounting.
        When ``process`` is provided, tuples that survive shedding are fed
        to it (so downstream results reflect the loss, as the paper's
        saturated runs do).
        """
        debt_ns = 0.0
        capacity_ns = self.buffer_tuples * self.ns_per_tuple
        offered = processed = dropped = 0
        for row in rows:
            offered += 1
            # One inter-arrival interval of budget becomes available.
            debt_ns -= self._interarrival_ns
            if debt_ns < 0.0:
                debt_ns = 0.0
            if debt_ns > capacity_ns:
                dropped += 1
                continue
            debt_ns += self.ns_per_tuple
            processed += 1
            if process is not None:
                process(row)
        return LoadReport(
            rate_per_sec=self.rate_per_sec,
            ns_per_tuple=self.ns_per_tuple,
            cpu_load_percent=cpu_load_percent(self.ns_per_tuple, self.rate_per_sec),
            offered_load_percent=offered_load_percent(
                self.ns_per_tuple, self.rate_per_sec
            ),
            tuples_offered=offered,
            tuples_processed=processed,
            tuples_dropped=dropped,
        )

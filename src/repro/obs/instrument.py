"""Engine instrumentation: the timed ``process`` and ``flush`` wrappers.

:class:`EngineInstrumentation` shadows one engine's ``process`` and
``flush`` *on that instance only*; ``bench.harness.time_query`` attaches
it for the instrumented pass of ``repro bench``.  Every other engine keeps
the untouched class methods, so an uninstrumented engine pays nothing — no
per-tuple flag checks on the fast path.

The wrappers never change behaviour: they delegate to the bound methods
they replace and record deltas of the engine's own statistics counters,
so an instrumented run produces bit-identical results to an
uninstrumented one.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dsms.engine import QueryEngine
    from repro.obs.registry import MetricsRegistry

__all__ = ["EngineInstrumentation"]

_perf_ns = time.perf_counter_ns


class EngineInstrumentation:
    """Attaches forward-decayed metrics to one :class:`QueryEngine`.

    Metric names are prefixed ``engine.<name>.`` so several instrumented
    queries can share a registry.  Hot group keys drop the leading time
    bucket when the query groups by more than one expression (the paper's
    ``time/60 AS tb`` convention), so the tracker surfaces *entities*, not
    time slices.
    """

    __slots__ = (
        "engine",
        "ingest",
        "selected",
        "rate",
        "latency",
        "evictions",
        "emitted",
        "hot",
        "state_bytes",
        "flush_us",
        "_process_inner",
        "_flush_inner",
    )

    def __init__(self, engine: "QueryEngine", metrics: "MetricsRegistry", name: str):
        prefix = f"engine.{name}"
        self.engine = engine
        self.ingest = metrics.counter(f"{prefix}.ingest.tuples")
        self.selected = metrics.counter(f"{prefix}.ingest.selected")
        self.rate = metrics.rate(f"{prefix}.ingest.rate")
        self.latency = metrics.latency(f"{prefix}.ingest.latency_us")
        self.evictions = metrics.counter(f"{prefix}.low_table.evictions")
        self.emitted = metrics.counter(f"{prefix}.rows.emitted")
        self.hot = metrics.hotkeys(f"{prefix}.hot_keys")
        self.state_bytes = metrics.gauge(f"{prefix}.state_bytes")
        self.flush_us = metrics.latency(f"{prefix}.flush_us")
        # Shadow the bound methods on this instance only.
        self._process_inner = engine.process
        self._flush_inner = engine.flush
        engine.process = self._process
        engine.flush = self._flush

    def _hot_key(self, key: tuple):
        if len(key) >= 2:
            return key[1:] if len(key) > 2 else key[1]
        return key[0]

    def _process(self, row: tuple) -> None:
        engine = self.engine
        selected_before = engine._tuples_selected
        evictions_before = engine._low_evictions
        start = _perf_ns()
        self._process_inner(row)
        elapsed_us = (_perf_ns() - start) / 1e3
        self.ingest.add(1.0)
        self.rate.observe(1.0)
        self.latency.observe(elapsed_us)
        if engine._tuples_selected != selected_before:
            self.selected.add(1.0)
            if engine._group_fns:
                key = tuple(fn(row) for fn in engine._group_fns)
                self.hot.observe(self._hot_key(key))
        if engine._low_evictions != evictions_before:
            self.evictions.add(float(engine._low_evictions - evictions_before))

    def _flush(self) -> list:
        self.state_bytes.set(float(self.engine.state_size_bytes()))
        start = _perf_ns()
        rows = self._flush_inner()
        self.flush_us.observe((_perf_ns() - start) / 1e3)
        self.emitted.add(float(len(rows)))
        return rows

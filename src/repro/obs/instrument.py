"""Hot-path instrumentation: engine, UDAF and serde hooks.

Instrumentation is strictly opt-in and rebinding-based: when a
:class:`~repro.obs.registry.MetricsRegistry` is attached to a
:class:`~repro.dsms.engine.QueryEngine`, the engine's ``process`` /
``insert_cols`` / ``flush`` methods are shadowed by timed wrappers *on
that instance only* (``insert_many`` transposes into ``insert_cols``, so
it reaches the same wrapper), each
aggregate plan's UDAF is wrapped in a :class:`TimedUdaf`, and the
once-per-snapshot partial-state codec calls report through
:meth:`EngineInstrumentation.partial_encoded` / ``partial_decoded``.
Uninstrumented engines keep the untouched class methods, so the
disabled-mode cost is exactly zero — no per-tuple flag checks on the
fast path.

The wrappers never change behaviour: they delegate to the original class
methods and record deltas of the engine's own statistics counters, so an
instrumented run produces bit-identical results to an uninstrumented one
(asserted by the conformance tests).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.dsms.engine import QueryEngine
    from repro.obs.registry import MetricsRegistry

__all__ = ["EngineInstrumentation", "TimedUdaf"]

_perf_ns = time.perf_counter_ns


class TimedUdaf:
    """Proxy UDAF that times the batch hook and counts batched items.

    Everything else — per-tuple ``update`` above all (timing every single
    update would dominate what it measures) — is the wrapped UDAF's own
    attribute, so the proxy cannot fall behind its interface.  The batch
    hook the engine calls is ``update_cols``; its metrics keep the names
    they had when that hook was ``update_many``.
    """

    __slots__ = ("_inner", "_latency", "_items")

    def __init__(self, inner, metrics: "MetricsRegistry", prefix: str):
        self._inner = inner
        self._latency = metrics.latency(f"{prefix}.udaf.{inner.name}.update_many_us")
        self._items = metrics.counter(f"{prefix}.udaf.{inner.name}.batched_items")

    def __getattr__(self, name: str):
        # Not self._inner: on a half-built copy that would recurse.
        return getattr(object.__getattribute__(self, "_inner"), name)

    def update_cols(self, state, arg_cols, count):
        """Apply a batch through the wrapped UDAF, recording time and size."""
        start = _perf_ns()
        self._inner.update_cols(state, arg_cols, count)
        self._latency.observe((_perf_ns() - start) / 1e3)
        self._items.add(float(count))


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
        "batch_sizes",
        "evictions",
        "emitted",
        "hot",
        "state_bytes",
        "flush_us",
        "partial_encode_us",
        "partial_decode_us",
        "partial_groups",
        "partial_bytes",
        "partial_summary_bytes",
        "_batch_keys",
    )

    def __init__(self, engine: "QueryEngine", metrics: "MetricsRegistry", name: str):
        prefix = f"engine.{name}"
        self.engine = engine
        self.ingest = metrics.counter(f"{prefix}.ingest.tuples")
        self.selected = metrics.counter(f"{prefix}.ingest.selected")
        self.rate = metrics.rate(f"{prefix}.ingest.rate")
        self.latency = metrics.latency(f"{prefix}.ingest.latency_us")
        self.batch_sizes = metrics.latency(f"{prefix}.ingest.batch_size")
        self.evictions = metrics.counter(f"{prefix}.low_table.evictions")
        self.emitted = metrics.counter(f"{prefix}.rows.emitted")
        self.hot = metrics.hotkeys(f"{prefix}.hot_keys")
        self.state_bytes = metrics.gauge(f"{prefix}.state_bytes")
        self.flush_us = metrics.latency(f"{prefix}.flush_us")
        self.partial_encode_us = metrics.latency(f"{prefix}.partial.encode_us")
        self.partial_decode_us = metrics.latency(f"{prefix}.partial.decode_us")
        self.partial_groups = metrics.gauge(f"{prefix}.partial.groups")
        self.partial_bytes = metrics.gauge(f"{prefix}.partial.bytes")
        self.partial_summary_bytes = metrics.gauge(
            f"{prefix}.partial.summary_bytes"
        )
        for plan in engine._agg_plans:
            plan.udaf = TimedUdaf(plan.udaf, metrics, prefix)
        self._batch_keys: list = []
        # Shadow the class methods on this instance only.
        engine.process = self._process
        engine.insert_cols = self._insert_cols
        engine._select_and_eval = self._select_and_eval
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
        type(engine).process(engine, row)
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

    def _select_and_eval(self, cols: list, count: int) -> tuple:
        """The batch kernel's one evaluation, its group keys kept for the
        hot-key tracker."""
        evaluated = type(self.engine)._select_and_eval(self.engine, cols, count)
        self._batch_keys = evaluated[1]
        return evaluated

    def _insert_cols(self, cols: list) -> None:
        engine = self.engine
        selected_before = engine._tuples_selected
        evictions_before = engine._low_evictions
        start = _perf_ns()
        type(engine).insert_cols(engine, cols)
        elapsed_us = (_perf_ns() - start) / 1e3
        count = len(cols[0]) if cols else 0
        self.ingest.add(float(count))
        self.rate.observe(float(count))
        self.batch_sizes.observe(float(count))
        if count:
            self.latency.observe(elapsed_us / count, weight=float(count))
        selected = engine._tuples_selected - selected_before
        keys, self._batch_keys = self._batch_keys, []
        if selected:
            self.selected.add(float(selected))
            if engine._group_fns:
                for key in keys:
                    self.hot.observe(self._hot_key(key))
        if engine._low_evictions != evictions_before:
            self.evictions.add(float(engine._low_evictions - evictions_before))

    def _flush(self) -> list:
        engine = self.engine
        self.state_bytes.set(float(engine.state_size_bytes()))
        start = _perf_ns()
        rows = type(engine).flush(engine)
        self.flush_us.observe((_perf_ns() - start) / 1e3)
        self.emitted.add(float(len(rows)))
        return rows

    def partial_encoded(
        self, start_ns: int, groups: int, nbytes: int, summary_bytes: int
    ) -> None:
        """One ``partial_state_bytes`` snapshot: codec time and volume,
        and how much of the volume is summary (sketch / sampler) buffers."""
        self.partial_encode_us.observe((_perf_ns() - start_ns) / 1e3)
        self.partial_groups.set(float(groups))
        self.partial_bytes.set(float(nbytes))
        self.partial_summary_bytes.set(float(summary_bytes))

    def partial_decoded(self, start_ns: int) -> None:
        """One ``merge_partial`` decode (validation included)."""
        self.partial_decode_us.observe((_perf_ns() - start_ns) / 1e3)


"""The metrics registry: named metrics, no-op mode, snapshots, merging.

A :class:`MetricsRegistry` is the composition root of the observability
layer: library code asks it for named metrics (created on first use) and
records into them.  Two properties make it safe to thread through hot
paths:

* **near-zero-cost no-op mode** — a registry built with ``enabled=False``
  hands out a shared :class:`NullMetric` whose methods do nothing; code
  that checks ``registry.enabled`` (as the engine does) can skip
  instrumentation entirely, leaving the uninstrumented fast path untouched.
* **deterministic snapshots** — every metric takes the registry's
  injectable clock, so ``snapshot(now=...)`` under a manual clock is a pure
  function of the recorded updates.

Registries merge metric-by-metric (union of names, matching types), so
per-worker registries combine into one cluster view — the same Section
VI-B merge story as the data-plane summaries.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable

from repro.core.errors import MergeError, ParameterError
from repro.obs.metrics import (
    DecayedCounter,
    DecayedRateGauge,
    HotKeyTracker,
    LastValueGauge,
    LatencyQuantiles,
)

__all__ = [
    "MetricsRegistry",
    "NullMetric",
    "NULL_METRIC",
    "load_snapshot",
    "format_snapshot",
]

SNAPSHOT_VERSION = 1


class NullMetric:
    """Shared do-nothing stand-in handed out by disabled registries."""

    __slots__ = ()

    def add(self, *args, **kwargs) -> None:
        """Discard the increment."""

    def observe(self, *args, **kwargs) -> None:
        """Discard the observation."""

    def set(self, *args, **kwargs) -> None:
        """Discard the sample."""

    def value(self, *args, **kwargs) -> float:
        """Always 0.0."""
        return 0.0

    def rate(self, *args, **kwargs) -> float:
        """Always 0.0."""
        return 0.0

    def quantile(self, *args, **kwargs) -> None:
        """Always None."""
        return None

    def top(self, *args, **kwargs) -> list:
        """Always empty."""
        return []

    def merge(self, *args, **kwargs) -> None:
        """Do nothing."""

    def snapshot(self, *args, **kwargs) -> dict:
        """A typed empty snapshot."""
        return {"type": "null"}


#: The singleton every disabled registry returns.
NULL_METRIC = NullMetric()


class MetricsRegistry:
    """Get-or-create registry of named observability metrics."""

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] | None = None
    ):
        self.enabled = enabled
        self.clock = clock if clock is not None else time.time
        self._metrics: dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def _get_or_create(self, name: str, kind: type, factory):
        if not self.enabled:
            return NULL_METRIC
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ParameterError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, half_life_s: float = 60.0) -> DecayedCounter:
        """A forward-decayed counter."""
        return self._get_or_create(
            name,
            DecayedCounter,
            lambda: DecayedCounter(half_life_s, clock=self.clock),
        )

    def rate(self, name: str, half_life_s: float = 60.0) -> DecayedRateGauge:
        """A decayed events-per-second gauge."""
        return self._get_or_create(
            name,
            DecayedRateGauge,
            lambda: DecayedRateGauge(half_life_s, clock=self.clock),
        )

    def latency(
        self,
        name: str,
        epsilon: float = 0.01,
        half_life_s: float | None = None,
    ) -> LatencyQuantiles:
        """A GK-backed timing-quantile sketch."""
        return self._get_or_create(
            name,
            LatencyQuantiles,
            lambda: LatencyQuantiles(epsilon, half_life_s, clock=self.clock),
        )

    def hotkeys(
        self,
        name: str,
        capacity: int = 64,
        half_life_s: float | None = None,
    ) -> HotKeyTracker:
        """A SpaceSaving-backed top-k key tracker."""
        return self._get_or_create(
            name,
            HotKeyTracker,
            lambda: HotKeyTracker(capacity, half_life_s, clock=self.clock),
        )

    def gauge(self, name: str) -> LastValueGauge:
        """A last-sample gauge."""
        return self._get_or_create(
            name, LastValueGauge, lambda: LastValueGauge(clock=self.clock)
        )

    @contextmanager
    def timer(self, name: str, epsilon: float = 0.01):
        """Context manager recording the block's wall time, in µs, into
        the :meth:`latency` sketch registered under ``name``.

        On a disabled registry the block runs untimed — no clock reads,
        no metric lookup — preserving the no-op guarantee.
        """
        if not self.enabled:
            yield
            return
        metric = self.latency(name, epsilon=epsilon)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            metric.observe((time.perf_counter_ns() - start) / 1e3)

    # -- aggregation -----------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics in, name by name.

        Names present in both registries must hold the same metric type
        (MergeError otherwise); names only in ``other`` are adopted by
        merging into a fresh empty peer, so the two registries never share
        mutable state afterwards.
        """
        if not isinstance(other, MetricsRegistry):
            raise MergeError(
                f"cannot merge {type(other).__name__} into MetricsRegistry"
            )
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                mine = _empty_clone(theirs, self.clock)
                self._metrics[name] = mine
            elif type(mine) is not type(theirs):
                raise MergeError(
                    f"metric {name!r} type mismatch: "
                    f"{type(mine).__name__} vs {type(theirs).__name__}"
                )
            mine.merge(theirs)

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-compatible snapshot of every metric (sorted by name)."""
        now = self.clock() if now is None else now
        return {
            "version": SNAPSHOT_VERSION,
            "now": now,
            "enabled": self.enabled,
            "metrics": {
                name: self._metrics[name].snapshot(now=now)
                for name in sorted(self._metrics)
            },
        }

    def write_snapshot(self, path: str, now: float | None = None) -> dict:
        """Serialize :meth:`snapshot` to ``path`` as JSON; returns the dict."""
        snap = self.snapshot(now=now)
        with open(path, "w") as handle:
            json.dump(snap, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return snap


def _empty_clone(metric, clock):
    """A fresh metric with the same configuration as ``metric``."""
    if isinstance(metric, DecayedCounter):
        return DecayedCounter(metric.half_life_s, clock=clock)
    if isinstance(metric, DecayedRateGauge):
        return DecayedRateGauge(metric.half_life_s, clock=clock)
    if isinstance(metric, LatencyQuantiles):
        return LatencyQuantiles(metric.epsilon, metric.half_life_s, clock=clock)
    if isinstance(metric, HotKeyTracker):
        return HotKeyTracker(metric.capacity, metric.half_life_s, clock=clock)
    if isinstance(metric, LastValueGauge):
        return LastValueGauge(clock=clock)
    raise MergeError(f"unknown metric type {type(metric).__name__}")


def load_snapshot(path: str) -> dict:
    """Read a snapshot previously written by :meth:`MetricsRegistry.write_snapshot`."""
    with open(path) as handle:
        snap = json.load(handle)
    if snap.get("version") != SNAPSHOT_VERSION:
        raise ParameterError(
            f"unsupported stats snapshot version {snap.get('version')!r}"
        )
    return snap


def format_snapshot(snap: dict) -> str:
    """Render a snapshot as the ``repro stats`` text report."""
    lines: list[str] = []
    metrics = snap.get("metrics", {})
    by_type: dict[str, list[tuple[str, dict]]] = {}
    for name in sorted(metrics):
        entry = metrics[name]
        by_type.setdefault(entry.get("type", "?"), []).append((name, entry))

    def section(title: str) -> None:
        if lines:
            lines.append("")
        lines.append(title)
        lines.append("-" * len(title))

    if "counter" in by_type:
        section("decayed counters")
        for name, entry in by_type["counter"]:
            lines.append(
                f"{name:<44} {entry['decayed']:>14,.2f} "
                f"(raw {entry['raw_total']:,.0f}, t1/2={entry['half_life_s']:g}s)"
            )
    if "rate" in by_type:
        section("decayed rates")
        for name, entry in by_type["rate"]:
            lines.append(
                f"{name:<44} {entry['per_sec']:>14,.1f}/s "
                f"(raw {entry['raw_total']:,.0f})"
            )
    if "latency" in by_type:
        section("latency quantiles")
        for name, entry in by_type["latency"]:
            if entry["count"]:
                lines.append(
                    f"{name:<44} p50={entry['p50']:,.1f} "
                    f"p90={entry['p90']:,.1f} p99={entry['p99']:,.1f} "
                    f"(n={entry['count']:,})"
                )
            else:
                lines.append(f"{name:<44} (empty)")
    if "gauge" in by_type:
        section("gauges")
        for name, entry in by_type["gauge"]:
            value = entry["value"]
            rendered = "n/a" if value is None else f"{value:,.0f}"
            lines.append(f"{name:<44} {rendered:>14}")
    if "hotkeys" in by_type:
        section("hot keys (top 5)")
        for name, entry in by_type["hotkeys"]:
            lines.append(name)
            for item in entry["top"]:
                lines.append(
                    f"    {item['key']:<40} {item['weight']:>14,.2f} "
                    f"(±{item['error']:,.2f})"
                )
    if not metrics:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)

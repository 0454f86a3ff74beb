"""The metrics registry: named metrics, no-op mode, snapshots.

A :class:`MetricsRegistry` is the composition root of the observability
layer: library code asks it for named metrics (created on first use) and
records into them.  Two properties make it safe to thread through hot
paths:

* **the one off-switch** — a registry built with ``enabled=False`` hands
  out the shared :data:`NULL_METRIC`, whose methods do nothing, and its
  :meth:`~MetricsRegistry.timer` the shared :data:`NULL_TIMER`, which
  runs the block untimed.  Code records unconditionally; a disabled
  registry never even imports the metric classes (nor the summaries
  behind them).
* **deterministic snapshots** — every decayed metric reads the registry's
  injectable clock, so ``snapshot(now=...)`` under a manual clock is a
  pure function of the recorded updates.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Callable

from repro.core.errors import ParameterError

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


#: The singleton every disabled registry returns.
NULL_METRIC = NullMetric()

#: The context manager every disabled registry's ``timer`` returns.
NULL_TIMER = nullcontext()


@contextmanager
def _timed(metric):
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        metric.observe((time.perf_counter_ns() - start) / 1e3)


class MetricsRegistry:
    """Get-or-create registry of named observability metrics."""

    def __init__(
        self, enabled: bool = True, clock: Callable[[], float] | None = None
    ):
        self.enabled = enabled
        self.clock = clock if clock is not None else time.time
        self._metrics: dict[str, object] = {}
        if enabled:
            # Here, not at module level: a disabled registry (a server
            # built without one) loads no metric class and no summary.
            from repro.obs import metrics

            self._kinds = metrics

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

    def _get_or_create(self, name: str, kind: str, *args):
        if not self.enabled:
            return NULL_METRIC
        cls = getattr(self._kinds, kind)
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(*args)
        elif type(metric) is not cls:
            raise ParameterError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind}"
            )
        return metric

    def counter(self, name: str):
        """A forward-decayed counter (:class:`~repro.obs.metrics.DecayedCounter`)."""
        return self._get_or_create(name, "DecayedCounter", self.clock)

    def rate(self, name: str):
        """A decayed events-per-second gauge (``DecayedRateGauge``)."""
        return self._get_or_create(name, "DecayedRateGauge", self.clock)

    def latency(self, name: str):
        """A GK-backed timing-quantile sketch (``LatencyQuantiles``)."""
        return self._get_or_create(name, "LatencyQuantiles")

    def hotkeys(self, name: str):
        """A SpaceSaving-backed top-k key tracker (``HotKeyTracker``)."""
        return self._get_or_create(name, "HotKeyTracker")

    def gauge(self, name: str):
        """A last-sample gauge (``LastValueGauge``)."""
        return self._get_or_create(name, "LastValueGauge")

    def timer(self, name: str):
        """Context manager recording the block's wall time, in µs, into
        the :meth:`latency` sketch registered under ``name``.

        A disabled registry returns the one shared :data:`NULL_TIMER`: the
        block runs untimed — no clock reads, no metric lookup, no
        generator built.
        """
        if not self.enabled:
            return NULL_TIMER
        return _timed(self.latency(name))

    # -- snapshots -------------------------------------------------------------

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

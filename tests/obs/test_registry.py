"""Tests for the metrics registry: no-op mode and snapshots."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ParameterError
from repro.obs.metrics import (
    DecayedCounter,
    DecayedRateGauge,
    HotKeyTracker,
    LastValueGauge,
    LatencyQuantiles,
)
from repro.obs.registry import (
    NULL_METRIC,
    NULL_TIMER,
    SNAPSHOT_VERSION,
    MetricsRegistry,
    format_snapshot,
    load_snapshot,
)


class TestGetOrCreate:
    def test_same_name_returns_same_metric(self, clock):
        registry = MetricsRegistry(clock=clock)
        assert registry.counter("x") is registry.counter("x")
        assert len(registry) == 1

    def test_type_conflict_raises(self, clock):
        registry = MetricsRegistry(clock=clock)
        registry.counter("x")
        with pytest.raises(ParameterError):
            registry.latency("x")

    def test_names_sorted(self, clock):
        registry = MetricsRegistry(clock=clock)
        registry.counter("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]
        assert "a" in registry
        assert isinstance(registry.get("a"), DecayedCounter)

    def test_each_kind_builds_its_metric_class(self, clock):
        registry = MetricsRegistry(clock=clock)
        assert isinstance(registry.counter("c"), DecayedCounter)
        assert isinstance(registry.rate("r"), DecayedRateGauge)
        assert isinstance(registry.latency("l"), LatencyQuantiles)
        assert isinstance(registry.hotkeys("h"), HotKeyTracker)
        assert isinstance(registry.gauge("g"), LastValueGauge)
        assert registry.names() == ["c", "g", "h", "l", "r"]

    def test_metrics_read_the_registry_clock(self, clock):
        registry = MetricsRegistry(clock=clock)
        counter = registry.counter("x")
        counter.add(8.0)
        clock.advance(60.0)
        assert counter.value() == pytest.approx(4.0)

    def test_get_of_an_unknown_name_is_a_key_error(self, clock):
        registry = MetricsRegistry(clock=clock)
        registry.counter("x")
        with pytest.raises(KeyError):
            registry.get("y")


class TestNoOpMode:
    def test_disabled_registry_hands_out_null_metric(self, clock):
        registry = MetricsRegistry(enabled=False, clock=clock)
        counter = registry.counter("x")
        assert counter is NULL_METRIC
        assert registry.latency("y") is NULL_METRIC
        assert registry.hotkeys("z") is NULL_METRIC
        assert len(registry) == 0  # nothing is ever registered

    def test_disabled_registry_rate_and_gauge_are_null(self, clock):
        registry = MetricsRegistry(enabled=False, clock=clock)
        assert registry.rate("r") is NULL_METRIC
        assert registry.gauge("g") is NULL_METRIC
        registry.gauge("g").set(5.0)
        assert "g" not in registry

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.add(5.0)
        NULL_METRIC.observe(1.0, weight=2.0)
        NULL_METRIC.set(3.0)

    def test_disabled_snapshot_is_empty(self, clock):
        registry = MetricsRegistry(enabled=False, clock=clock)
        registry.counter("x").add(1.0)
        snap = registry.snapshot(now=clock.now)
        assert snap["enabled"] is False
        assert snap["metrics"] == {}


class TestSnapshot:
    def _populated(self, clock):
        registry = MetricsRegistry(clock=clock)
        registry.counter("c").add(4.0)
        registry.rate("r").observe(2.0)
        registry.latency("l").observe(10.0)
        registry.hotkeys("h").observe("key")
        registry.gauge("g").set(7.0)
        return registry

    def test_snapshot_deterministic_under_fixed_clock(self, clock):
        first = self._populated(clock).snapshot(now=clock.now)
        second = self._populated(clock).snapshot(now=clock.now)
        assert first == second
        assert sorted(first["metrics"]) == list(first["metrics"])

    def test_write_and_load_round_trip(self, clock, tmp_path):
        registry = self._populated(clock)
        path = tmp_path / "stats.json"
        written = registry.write_snapshot(str(path), now=clock.now)
        assert load_snapshot(str(path)) == json.loads(json.dumps(written))

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "metrics": {}}')
        with pytest.raises(ParameterError):
            load_snapshot(str(path))

    def test_format_snapshot_renders_every_section(self, clock):
        text = format_snapshot(self._populated(clock).snapshot(now=clock.now))
        for needle in (
            "decayed counters",
            "decayed rates",
            "latency quantiles",
            "gauges",
            "hot keys",
        ):
            assert needle in text

    def test_format_snapshot_empty(self):
        assert "(no metrics recorded)" in format_snapshot({"metrics": {}})

    def test_format_snapshot_marks_an_empty_sketch_and_an_unset_gauge(self, clock):
        registry = MetricsRegistry(clock=clock)
        registry.latency("idle.us")
        registry.gauge("unset")
        lines = format_snapshot(registry.snapshot(now=clock.now)).splitlines()
        assert any(
            line.startswith("idle.us") and line.endswith("(empty)") for line in lines
        )
        assert any(line.startswith("unset") and line.endswith("n/a") for line in lines)

    def test_snapshot_time_defaults_to_the_registry_clock(self, clock):
        registry = MetricsRegistry(clock=clock)
        registry.counter("c").add(2.0)
        clock.advance(60.0)
        snap = registry.snapshot()
        assert snap["version"] == SNAPSHOT_VERSION
        assert snap["now"] == clock.now
        assert snap["metrics"]["c"]["decayed"] == pytest.approx(1.0)


class TestTimer:
    def test_timer_records_into_a_latency_sketch(self, clock):
        registry = MetricsRegistry(clock=clock)
        with registry.timer("op.us"):
            pass
        metric = registry.latency("op.us")
        assert metric.count == 1
        assert metric.quantile(0.5) >= 0.0

    def test_timer_records_even_when_the_block_raises(self, clock):
        registry = MetricsRegistry(clock=clock)
        with pytest.raises(RuntimeError):
            with registry.timer("op.us"):
                raise RuntimeError("boom")
        assert registry.latency("op.us").count == 1

    def test_timer_on_disabled_registry_registers_nothing(self, clock):
        # A registry-less server times every frame: every call hands out
        # the one null context, no generator.
        registry = MetricsRegistry(enabled=False, clock=clock)
        with registry.timer("op.us"):
            pass
        for name in ("op.us", "other.us"):
            assert registry.timer(name) is NULL_TIMER
        assert MetricsRegistry(enabled=False).timer("op.us") is NULL_TIMER
        assert len(registry) == 0

    def test_timer_reuses_the_named_metric(self, clock):
        registry = MetricsRegistry(clock=clock)
        for _ in range(3):
            with registry.timer("op.us"):
                pass
        assert registry.latency("op.us").count == 3

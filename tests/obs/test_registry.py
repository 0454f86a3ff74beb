"""Tests for the metrics registry: no-op mode, snapshots, merging."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import MergeError, ParameterError
from repro.obs.metrics import DecayedCounter
from repro.obs.registry import (
    NULL_METRIC,
    MetricsRegistry,
    format_snapshot,
    load_snapshot,
)

from tests.obs.conftest import ManualClock


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


class TestNoOpMode:
    def test_disabled_registry_hands_out_null_metric(self, clock):
        registry = MetricsRegistry(enabled=False, clock=clock)
        counter = registry.counter("x")
        assert counter is NULL_METRIC
        assert registry.latency("y") is NULL_METRIC
        assert registry.hotkeys("z") is NULL_METRIC
        assert len(registry) == 0  # nothing is ever registered

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.add(5.0)
        NULL_METRIC.observe(1.0, weight=2.0)
        NULL_METRIC.set(3.0)
        assert NULL_METRIC.value() == 0.0
        assert NULL_METRIC.rate() == 0.0
        assert NULL_METRIC.quantile(0.5) is None
        assert NULL_METRIC.top() == []
        assert NULL_METRIC.snapshot() == {"type": "null"}

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
        registry = MetricsRegistry(enabled=False, clock=clock)
        with registry.timer("op.us"):
            pass
        assert len(registry) == 0

    def test_timer_reuses_the_named_metric(self, clock):
        registry = MetricsRegistry(clock=clock)
        for _ in range(3):
            with registry.timer("op.us"):
                pass
        assert registry.latency("op.us").count == 3


class TestMerge:
    def test_merge_unions_names_and_sums_counters(self, clock):
        a = MetricsRegistry(clock=clock)
        b = MetricsRegistry(clock=clock)
        a.counter("shared").add(1.0)
        b.counter("shared").add(2.0)
        b.counter("only_b").add(5.0)
        a.merge(b)
        assert a.counter("shared").value(now=clock.now) == pytest.approx(3.0)
        assert a.counter("only_b").value(now=clock.now) == pytest.approx(5.0)

    def test_merge_does_not_alias_adopted_metrics(self, clock):
        a = MetricsRegistry(clock=clock)
        b = MetricsRegistry(clock=clock)
        b.counter("x").add(1.0)
        a.merge(b)
        b.counter("x").add(10.0)  # mutating b afterwards must not leak into a
        assert a.counter("x").value(now=clock.now) == pytest.approx(1.0)

    def test_merge_type_mismatch_raises(self, clock):
        a = MetricsRegistry(clock=clock)
        b = MetricsRegistry(clock=clock)
        a.counter("x")
        b.gauge("x")
        with pytest.raises(MergeError):
            a.merge(b)
        with pytest.raises(MergeError):
            a.merge({"not": "a registry"})

    def test_merge_every_metric_kind(self, clock):
        a = MetricsRegistry(clock=clock)
        b = MetricsRegistry(clock=clock)
        b.counter("c").add(1.0)
        b.rate("r").observe(1.0)
        b.latency("l").observe(5.0)
        b.hotkeys("h").observe("k")
        b.gauge("g").set(2.0)
        a.merge(b)
        assert a.names() == ["c", "g", "h", "l", "r"]
        assert a.latency("l").quantile(0.5) == pytest.approx(5.0)

    def test_distributed_workers_merge_to_cluster_view(self):
        clock = ManualClock()
        workers = []
        for worker_id in range(3):
            registry = MetricsRegistry(clock=clock)
            for _ in range(100):
                registry.counter("ingest").add(1.0)
                registry.hotkeys("hot").observe(f"key{worker_id}")
                clock.advance(0.001)
            workers.append(registry)
        cluster = MetricsRegistry(clock=clock)
        for worker in workers:
            cluster.merge(worker)
        total = cluster.counter("ingest").value(now=clock.now)
        assert total == pytest.approx(300.0, rel=0.01)
        assert len(cluster.hotkeys("hot").top(5)) == 3

"""Unit tests for the load-simulation runtime."""

from __future__ import annotations

import pytest

from repro.core.errors import ParameterError
from repro.dsms.runtime import (
    LoadSheddingRuntime,
    cpu_load_percent,
    offered_load_percent,
)


class TestLoadMath:
    def test_cpu_load_formula(self):
        # 2500 ns/tuple at 200k tuples/s = 50% of one core.
        assert cpu_load_percent(2_500, 200_000) == pytest.approx(50.0)

    def test_cpu_load_caps_at_100(self):
        assert cpu_load_percent(10_000, 200_000) == 100.0

    def test_offered_load_uncapped(self):
        assert offered_load_percent(10_000, 200_000) == pytest.approx(200.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ParameterError):
            cpu_load_percent(-1, 100)
        with pytest.raises(ParameterError):
            offered_load_percent(1, -100)


class TestLoadShedding:
    def test_under_capacity_no_drops(self):
        runtime = LoadSheddingRuntime(ns_per_tuple=1_000, rate_per_sec=100_000)
        report = runtime.replay(range(50_000))
        assert report.tuples_dropped == 0
        assert not report.saturated
        assert report.cpu_load_percent == pytest.approx(10.0)
        assert report.drop_fraction == 0.0

    def test_over_capacity_drops(self):
        # 10,000 ns/tuple sustains 100k/s; offer 500k/s.
        runtime = LoadSheddingRuntime(
            ns_per_tuple=10_000, rate_per_sec=500_000, buffer_tuples=100
        )
        report = runtime.replay(range(100_000))
        assert report.saturated
        assert report.cpu_load_percent == 100.0
        assert report.offered_load_percent == pytest.approx(500.0)
        # Roughly 4 of every 5 tuples must be shed.
        assert report.drop_fraction == pytest.approx(0.8, abs=0.05)

    def test_exact_capacity_boundary(self):
        runtime = LoadSheddingRuntime(
            ns_per_tuple=10_000, rate_per_sec=100_000, buffer_tuples=1_000
        )
        report = runtime.replay(range(50_000))
        assert report.drop_fraction < 0.01

    def test_surviving_tuples_processed(self):
        processed = []
        runtime = LoadSheddingRuntime(
            ns_per_tuple=10_000, rate_per_sec=200_000, buffer_tuples=10
        )
        report = runtime.replay(range(10_000), process=processed.append)
        assert len(processed) == report.tuples_processed
        assert report.tuples_processed + report.tuples_dropped == 10_000

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            LoadSheddingRuntime(ns_per_tuple=0, rate_per_sec=100)
        with pytest.raises(ParameterError):
            LoadSheddingRuntime(ns_per_tuple=100, rate_per_sec=0)
        with pytest.raises(ParameterError):
            LoadSheddingRuntime(ns_per_tuple=100, rate_per_sec=100,
                                buffer_tuples=-1)

    def test_report_fields(self):
        runtime = LoadSheddingRuntime(ns_per_tuple=2_000, rate_per_sec=100_000)
        report = runtime.replay(range(1_000))
        assert report.rate_per_sec == 100_000
        assert report.ns_per_tuple == 2_000
        assert report.tuples_offered == 1_000

"""Unit tests for the benchmark harness (measurement plumbing)."""

from __future__ import annotations

import pytest

from repro.bench.harness import (
    MethodResult,
    achievable_throughput,
    loads_at_rates,
    time_consumer,
    time_query,
)
from repro.bench.runners import build_trace, run_fig1_relative_decay
from repro.bench.tables import format_bytes, format_table
from repro.core.errors import ParameterError
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA


@pytest.fixture(scope="module")
def tiny_trace():
    return build_trace(duration_sec=0.5, rate_per_sec=2_000)


class TestTimeQuery:
    def test_measures_and_returns_results(self, tiny_trace):
        result = time_query(
            "count",
            "select tb, destIP, count(*) as c from TCP "
            "group by time/60 as tb, destIP",
            PACKET_SCHEMA,
            default_registry(),
            tiny_trace,
        )
        assert result.ns_per_tuple > 0
        assert result.groups > 0
        assert result.state_bytes_per_group > 0
        assert sum(r["c"] for r in result.results) == len(tiny_trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ParameterError):
            time_query("x", "select count(*) from S", PACKET_SCHEMA,
                       default_registry(), [])


class TestTimeConsumer:
    def test_counts_state(self, tiny_trace):
        seen = []
        result = time_consumer(
            "sink", seen.append, tiny_trace, state_bytes=lambda: 123
        )
        assert result.ns_per_tuple > 0
        assert result.state_bytes_total == 123
        assert len(seen) == len(tiny_trace)

    def test_empty_trace_rejected(self):
        with pytest.raises(ParameterError):
            time_consumer("sink", lambda row: None, [])


class TestLoadsAndThroughput:
    def test_loads_at_rates_monotone(self):
        result = MethodResult(name="m", ns_per_tuple=2_000)
        rows = loads_at_rates(result, [100_000, 300_000, 600_000])
        loads = [row["load_percent"] for row in rows]
        assert loads == sorted(loads)
        assert rows[-1]["load_percent"] == 100.0
        assert rows[-1]["drop_fraction"] > 0

    def test_method_result_load_at(self):
        result = MethodResult(name="m", ns_per_tuple=2_500)
        assert result.load_at(200_000) == pytest.approx(50.0)

    def test_achievable_throughput(self):
        result = MethodResult(name="m", ns_per_tuple=1_000)
        assert achievable_throughput(result) == pytest.approx(1_000_000.0)
        with pytest.raises(ParameterError):
            achievable_throughput(MethodResult(name="m", ns_per_tuple=0))


class TestTables:
    def test_format_bytes(self):
        assert format_bytes(10) == "10 B"
        assert format_bytes(2_048) == "2.0 KB"
        assert format_bytes(3 * 1024 * 1024) == "3.00 MB"

    def test_format_table_alignment(self):
        table = format_table("T", ["a", "bbbb"], [[1, 2.5], ["xx", 3]])
        lines = table.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[2:]}) == 1  # aligned rows


class TestFigureDrivers:
    def test_fig1_driver_shape(self):
        data = run_fig1_relative_decay(beta=2.0, horizons=(10.0, 20.0),
                                       gammas=(0.0, 0.5, 1.0))
        assert data["series"][10.0] == pytest.approx([0.0, 0.25, 1.0])
        assert data["series"][20.0] == pytest.approx([0.0, 0.25, 1.0])

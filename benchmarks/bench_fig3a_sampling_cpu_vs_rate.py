"""Figure 3(a) — sampling CPU load vs stream rate.

Paper shape: undecayed reservoir sampling, priority sampling with forward
exponential weights, and Aggarwal's backward-exponential reservoir all
scale well and stay within a small factor of each other — forward decay's
extra flexibility (arbitrary timestamps and arrival orders) costs
essentially nothing.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.bench.runners import _sampling_queries
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

METHOD_QUERIES = dict(_sampling_queries())


def test_fig3a_sampling_cpu_vs_rate(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig3a"](tcp_trace)
    record_figure("fig3a_sampling_cpu_vs_rate", table)

    costs = [m.ns_per_tuple for m in data["methods"]]
    # All three samplers are within a small factor of one another — the
    # paper reports comparable CPU load for all algorithms.
    assert max(costs) < 3.0 * min(costs)


@pytest.mark.parametrize("method", list(METHOD_QUERIES))
def test_fig3a_per_method_cost(benchmark, tcp_trace, method):
    registry = default_registry(sample_size=100)
    result = benchmark(time_query, method, METHOD_QUERIES[method], PACKET_SCHEMA,
                       registry, tcp_trace)
    assert result.groups > 0

"""Figure 4(a) — heavy-hitter CPU vs epsilon on TCP traffic @ 200k pkt/s.

Paper shape: forward-decay CPU is fairly robust to epsilon; the backward
sliding-window implementation grows as epsilon shrinks and approaches 100%
CPU at epsilon = 0.01.
"""

from __future__ import annotations

import pytest

from _fig4_common import check_cpu_panel
from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.bench.runners import EPSILON_SWEEP
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

BACKWARD_SQL = "select tb, sw_hh(destIP, ts) as hh from TCP group by time/60 as tb"


def test_fig4a_cpu_vs_epsilon_tcp(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig4a"](tcp_trace)
    record_figure("fig4a_hh_cpu_vs_eps_tcp", table)
    check_cpu_panel(data)


@pytest.mark.parametrize("epsilon", EPSILON_SWEEP)
def test_fig4a_backward_cost_per_epsilon(benchmark, tcp_trace, epsilon):
    registry = default_registry(hh_epsilon=epsilon)
    result = benchmark(time_query, f"bwd HH eps={epsilon:g}", BACKWARD_SQL,
                       PACKET_SCHEMA, registry, tcp_trace)
    assert result.groups > 0

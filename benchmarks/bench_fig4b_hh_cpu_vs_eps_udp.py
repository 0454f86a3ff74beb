"""Figure 4(b) — heavy-hitter CPU vs epsilon on UDP traffic @ 170k pkt/s.

Paper shape: behaviour mirrors the TCP panel despite the different traffic
characteristics — forward robust to epsilon, backward growing and
dominating.
"""

from __future__ import annotations

import pytest

from _fig4_common import check_cpu_panel
from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

FWD_SQL = (
    "select tb, fwd_hh(destIP, exp((time % 60) * 0.1)) as hh "
    "from UDP group by time/60 as tb"
)


def test_fig4b_cpu_vs_epsilon_udp(udp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig4b"](udp_trace)
    record_figure("fig4b_hh_cpu_vs_eps_udp", table)
    check_cpu_panel(data)


@pytest.mark.parametrize("epsilon", (0.1, 0.01))
def test_fig4b_forward_cost_per_epsilon(benchmark, udp_trace, epsilon):
    registry = default_registry(hh_epsilon=epsilon)
    result = benchmark(time_query, f"fwd exp HH eps={epsilon:g}", FWD_SQL,
                       PACKET_SCHEMA, registry, udp_trace)
    assert result.groups > 0

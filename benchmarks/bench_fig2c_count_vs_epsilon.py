"""Figure 2(c) — throughput vs the EH accuracy parameter epsilon.

Paper shape: undecayed and forward-decayed throughput does not depend on
epsilon; the Exponential-Histogram backward method slows as epsilon
shrinks and at epsilon = 0.01 approaches 100% CPU and drops tuples at a
100k pkt/s offered rate.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.bench.runners import EPSILON_SWEEP
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

EH_SQL = (
    "select tb, destIP, destPort, eh_count(ts) as c, eh_sum(ts, len) as s "
    "from TCP group by time/60 as tb, destIP, destPort"
)


def test_fig2c_throughput_vs_epsilon(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig2c"](tcp_trace)
    record_figure("fig2c_count_vs_epsilon", table)

    # Forward/undecayed methods do not depend on epsilon (single methods,
    # measured once); EH cost must grow monotonically-ish as eps shrinks:
    eh_costs = [m.ns_per_tuple for m in data["eh_methods"]]
    assert eh_costs[-1] > eh_costs[0], "EH at eps=0.01 should cost more than at 0.1"
    # And every EH variant is slower than the forward methods.
    fwd_cost = max(m.ns_per_tuple for m in data["flat_methods"])
    assert min(eh_costs) > fwd_cost


@pytest.mark.parametrize("epsilon", EPSILON_SWEEP)
def test_fig2c_eh_cost_per_epsilon(benchmark, tcp_trace, epsilon):
    registry = default_registry(eh_epsilon=epsilon)
    result = benchmark(time_query, f"bwd EH eps={epsilon:g}", EH_SQL, PACKET_SCHEMA,
                       registry, tcp_trace)
    assert result.groups > 0

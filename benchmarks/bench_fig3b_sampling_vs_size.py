"""Figure 3(b) — sampling cost vs sample size.

Paper shape: the cost of all three sampling methods is essentially
independent of the sample size ``k`` (the reservoir/heap operations are
O(log k) and replacements become rare as the stream grows).
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

SIZES = (50, 100, 200, 500, 1000)
PRIORITY_SQL = (
    "select tb, prisamp(srcIP, exp((time % 60) * 0.1)) as samp "
    "from TCP group by time/60 as tb"
)


def test_fig3b_cost_vs_sample_size(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig3b"](tcp_trace)
    record_figure("fig3b_sampling_vs_size", table)

    # Flatness: for every method, the largest k costs at most 2x the
    # smallest k (the paper's lines are flat).
    for name, results in data["series"].items():
        costs = [r.ns_per_tuple for r in results]
        assert max(costs) < 2.0 * min(costs), f"{name} not flat in k: {costs}"


@pytest.mark.parametrize("k", SIZES)
def test_fig3b_priority_cost_per_size(benchmark, tcp_trace, k):
    registry = default_registry(sample_size=k)
    result = benchmark(time_query, f"priority k={k}", PRIORITY_SQL, PACKET_SCHEMA,
                       registry, tcp_trace)
    assert result.groups > 0

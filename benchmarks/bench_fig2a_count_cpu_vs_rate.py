"""Figure 2(a) — count/sum CPU load vs stream rate (two-level engine).

Paper shape: forward-decayed aggregates (quadratic and exponential) cost a
little more than undecayed processing; the Exponential-Histogram backward
baseline is appreciably more expensive and nearly saturates at 400k pkt/s.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.bench.runners import _count_sum_queries
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

METHOD_QUERIES = dict(_count_sum_queries(eh_epsilon=0.1))


def test_fig2a_cpu_load_vs_rate(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig2a"](tcp_trace)
    record_figure("fig2a_count_cpu_vs_rate", table)

    by_name = {m.name: m for m in data["methods"]}
    no_decay = by_name["no decay"].ns_per_tuple
    fwd_poly = by_name["fwd poly"].ns_per_tuple
    fwd_exp = by_name["fwd exp"].ns_per_tuple
    backward = by_name["bwd EH (eps=0.1)"].ns_per_tuple
    # Forward decay is a small constant over undecayed processing...
    assert fwd_poly < 4.0 * no_decay
    assert fwd_exp < 5.0 * no_decay
    # ...while the backward baseline is appreciably more expensive than both.
    assert backward > 1.5 * fwd_poly
    assert backward > 1.5 * fwd_exp
    # The backward method saturates first as the rate grows.
    backward_top = data["loads"]["bwd EH (eps=0.1)"][-1]
    forward_top = data["loads"]["fwd poly"][-1]
    assert backward_top["offered_percent"] > forward_top["offered_percent"]


@pytest.mark.parametrize("method", list(METHOD_QUERIES))
def test_fig2a_per_method_cost(benchmark, tcp_trace, method):
    registry = default_registry(eh_epsilon=0.1)
    result = benchmark(time_query, method, METHOD_QUERIES[method], PACKET_SCHEMA,
                       registry, tcp_trace, two_level=True)
    assert result.groups > 0

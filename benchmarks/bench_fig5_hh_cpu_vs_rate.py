"""Figure 5 — heavy-hitter CPU load vs stream rate.

Paper shape: the weighted SpaceSaving UDAF (forward decay, quadratic or
exponential) has small overhead over the unary-optimized undecayed
version; the sliding-window backward-decay implementation is much more
expensive, reaching ~90% CPU at 200k pkt/s and dropping tuples beyond.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.bench.harness import time_query
from repro.bench.runners import _hh_queries
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

METHOD_QUERIES = dict(_hh_queries())


def test_fig5_hh_cpu_vs_rate(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig5"](tcp_trace)
    record_figure("fig5_hh_cpu_vs_rate", table)

    by_name = {m.name: m for m in data["methods"]}
    unary = by_name["unary HH (no decay)"].ns_per_tuple
    fwd_poly = by_name["fwd poly HH"].ns_per_tuple
    fwd_exp = by_name["fwd exp HH"].ns_per_tuple
    backward = by_name["bwd sliding-window HH"].ns_per_tuple
    # Small overhead of the weighted version over the unary-optimized one,
    # and little variation between forward decay functions.
    assert fwd_poly < 2.5 * unary
    assert fwd_exp < 3.0 * unary
    # The backward implementation is much more expensive than any forward one.
    assert backward > 2.0 * max(fwd_poly, fwd_exp, unary)
    # At the top rate, backward is the closest to (or past) saturation.
    top = {name: data["loads"][name][-1]["offered_percent"] for name in by_name}
    assert top["bwd sliding-window HH"] == max(top.values())


@pytest.mark.parametrize("method", list(METHOD_QUERIES))
def test_fig5_per_method_cost(benchmark, tcp_trace, method):
    registry = default_registry(hh_epsilon=0.01)
    result = benchmark(time_query, method, METHOD_QUERIES[method], PACKET_SCHEMA,
                       registry, tcp_trace)
    assert result.groups > 0

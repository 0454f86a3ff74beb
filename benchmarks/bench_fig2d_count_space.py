"""Figure 2(d) — space per group, log scale.

Paper shape: undecayed methods store a 4-byte integer per group, forward
decay an 8-byte float, and Exponential Histograms track kilobytes of
buckets per group — decisive when queries generate tens of thousands of
groups.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURE_BUILDERS
from repro.sketches.exponential_histogram import ExponentialHistogramCount


def test_fig2d_space_per_group(tcp_trace, record_figure):
    fig2d_data, table = FIGURE_BUILDERS["fig2d"](tcp_trace)
    record_figure("fig2d_count_space", table)

    by_name = {
        m.name: m for m in fig2d_data["methods"] + fig2d_data["eh_methods"]
    }
    assert by_name["no decay"].state_bytes_per_group == pytest.approx(4.0)
    assert by_name["fwd poly"].state_bytes_per_group == pytest.approx(8.0)
    # Every EH variant is at least an order of magnitude above forward decay,
    # and EH state grows as epsilon shrinks.
    eh_sizes = [m.state_bytes_per_group for m in fig2d_data["eh_methods"]]
    assert min(eh_sizes) > 10 * 8
    assert eh_sizes[-1] > eh_sizes[0]


def test_fig2d_eh_update_cost(benchmark):
    """Time raw EH maintenance (the per-group cost driver)."""
    timestamps = [i * 0.001 for i in range(20_000)]

    def run_once():
        histogram = ExponentialHistogramCount(epsilon=0.05, window=60.0)
        for t in timestamps:
            histogram.update(t)
        return len(histogram)

    buckets = benchmark(run_once)
    assert buckets > 0

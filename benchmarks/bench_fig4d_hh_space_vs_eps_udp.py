"""Figure 4(d) — heavy-hitter space per group vs epsilon (UDP, log scale).

Paper shape: as with TCP, forward space is KBs and proportional to
1/epsilon; the backward structure's space is orders of magnitude larger
("about a megabyte compared to 1KB-6KB" in the paper's run).
"""

from __future__ import annotations

import pytest

from _fig4_common import check_space_panel
from repro.bench.figures import FIGURE_BUILDERS
from repro.sketches.swhh import SlidingWindowHeavyHitters


def test_fig4d_space_vs_epsilon_udp(udp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig4d"](udp_trace)
    record_figure("fig4d_hh_space_vs_eps_udp", table)
    check_space_panel(data)


@pytest.mark.parametrize("epsilon", (0.1, 0.01))
def test_fig4d_backward_space_growth(benchmark, udp_trace, epsilon):
    """Benchmark backward-structure maintenance on UDP traffic."""
    items = [(row[3], row[1]) for row in udp_trace]

    def run_once():
        summary = SlidingWindowHeavyHitters(window=60.0, epsilon=epsilon)
        for item, ts in items:
            summary.update(item, ts)
        return summary.state_size_bytes()

    state_bytes = benchmark(run_once)
    assert state_bytes > 0

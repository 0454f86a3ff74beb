"""Figure 4(c) — heavy-hitter space per group vs epsilon (TCP, log scale).

Paper shape: forward-decay space is proportional to 1/epsilon and stays in
the KB range; the backward sliding-window structure stores a large
fraction of the distinct input across its panes and dwarfs the forward
summaries at every epsilon.
"""

from __future__ import annotations

import pytest

from _fig4_common import check_space_panel
from repro.bench.figures import FIGURE_BUILDERS
from repro.sketches.spacesaving import WeightedSpaceSaving
from repro.sketches.swhh import SlidingWindowHeavyHitters


def test_fig4c_space_vs_epsilon_tcp(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig4c"](tcp_trace)
    record_figure("fig4c_hh_space_vs_eps_tcp", table)
    check_space_panel(data)


@pytest.mark.parametrize("structure", ["forward", "backward"])
def test_fig4c_structure_update_cost(benchmark, tcp_trace, structure):
    """Raw (engine-free) update cost of the two HH structures."""
    items = [(row[3], row[1]) for row in tcp_trace]  # (destIP, ts)

    if structure == "forward":
        def run_once():
            summary = WeightedSpaceSaving.from_epsilon(0.01)
            for item, ts in items:
                summary.update(item, (ts % 60.0) ** 2 + 1.0)
            return len(summary)
    else:
        def run_once():
            summary = SlidingWindowHeavyHitters(window=60.0, epsilon=0.01)
            for item, ts in items:
                summary.update(item, ts)
            return summary.items_processed

    result = benchmark(run_once)
    assert result > 0

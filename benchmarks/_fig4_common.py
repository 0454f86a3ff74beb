"""Shape checks shared by the four Figure 4 panels (CPU/space x TCP/UDP).

The panels' data and tables come from ``repro.bench.figures``; these
functions only assert the paper's claims on that data.
"""

from __future__ import annotations

BACKWARD = "bwd sliding-window HH"
FORWARD_METHODS = ("fwd poly HH", "fwd exp HH")


def check_cpu_panel(data: dict) -> None:
    """CPU-vs-epsilon panel (Figures 4(a) TCP / 4(b) UDP)."""
    series = data["series"]
    # Forward methods are robust to epsilon: max/min cost ratio stays small.
    # (Bound leaves headroom for scheduler noise during full-suite runs.)
    for method in FORWARD_METHODS:
        costs = [r.ns_per_tuple for r in series[method]]
        assert max(costs) < 2.5 * min(costs), f"{method} not eps-robust: {costs}"
    # Backward cost grows as epsilon shrinks and dominates at eps = 0.01.
    backward_costs = [r.ns_per_tuple for r in series[BACKWARD]]
    assert backward_costs[-1] > backward_costs[0]
    finest_forward = max(series[m][-1].ns_per_tuple for m in FORWARD_METHODS)
    assert backward_costs[-1] > 2.0 * finest_forward


def check_space_panel(data: dict) -> None:
    """Space-vs-epsilon panel (Figures 4(c) TCP / 4(d) UDP)."""
    series = data["series"]
    epsilons = data["epsilons"]
    # Forward space scales with 1/epsilon (within a factor accounting for
    # the actual number of live counters) and stays in the KB range.
    for method in FORWARD_METHODS:
        sizes = [r.state_bytes_per_group for r in series[method]]
        assert sizes[-1] > sizes[0], f"{method} space should grow as eps shrinks"
        assert sizes[-1] < 512 * 1024, f"{method} space left the KB range"
    # Backward space dwarfs forward space at every epsilon.
    for index in range(len(epsilons)):
        backward_size = series[BACKWARD][index].state_bytes_per_group
        forward_size = max(series[m][index].state_bytes_per_group
                           for m in FORWARD_METHODS)
        assert backward_size > 3.0 * forward_size

"""Figure 1 — the relative decay property of monomial forward decay.

The paper's Figure 1 plots ``g(n) = n**2`` forward decay at two horizons
and shows the weight assigned to an item depends only on its *relative*
position between the landmark and the query time (Lemma 1).  This bench
prints the weight-vs-relative-age series at both horizons and checks the
columns coincide; the benchmark times bulk weight evaluation.
"""

from __future__ import annotations

from repro.bench.figures import FIGURE_BUILDERS
from repro.core.decay import ForwardDecay
from repro.core.functions import PolynomialG


def test_fig1_relative_decay_series(tcp_trace, record_figure):
    data, table = FIGURE_BUILDERS["fig1"](tcp_trace)
    record_figure("fig1_relative_decay", table)
    # Lemma 1: weight at relative age gamma is gamma**2 at every horizon.
    for weights in data["series"].values():
        for gamma, weight in zip(data["gammas"], weights):
            assert abs(weight - gamma**2) < 1e-9


def test_fig1_weight_evaluation_cost(benchmark):
    decay = ForwardDecay(PolynomialG(beta=2.0), landmark=0.0)
    timestamps = [float(t) for t in range(1, 10_001)]

    def evaluate_weights() -> float:
        total = 0.0
        for t in timestamps:
            total += decay.weight(t, 10_000.0)
        return total

    total = benchmark(evaluate_weights)
    assert 0.0 < total < len(timestamps)

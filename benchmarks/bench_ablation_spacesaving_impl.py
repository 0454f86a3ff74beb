"""Ablation — SpaceSaving structure choice (Stream-Summary vs min-heap).

The paper compares the unary-optimized SpaceSaving ("Unary HH") with the
weighted variant.  This ablation isolates the structural constant factors:
the bucket-list Stream-Summary (O(1) unary updates) versus the dict plus
one-entry-per-counter min-heap (a hit is one dict store, a replacement
O(log 1/eps) amortized) on the *same* unary workload, and checks both
produce equivalent heavy hitters.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import time_consumer
from repro.bench.tables import format_table
from repro.sketches.spacesaving import (
    UnarySpaceSaving,
    WeightedSpaceSaving,
    exact_heavy_hitters,
)

EPSILON = 0.01
PHI = 0.02


def _items(trace):
    return [(row[3],) for row in trace]  # destIP


def test_ablation_spacesaving_impl(tcp_trace, record_figure):
    items = _items(tcp_trace)

    unary = UnarySpaceSaving.from_epsilon(EPSILON)

    def unary_update(row):
        unary.update(row[0])

    weighted = WeightedSpaceSaving.from_epsilon(EPSILON)

    def weighted_update(row):
        weighted.update(row[0], 1.0)

    results = [
        time_consumer("stream-summary (unary)", unary_update, items,
                      state_bytes=unary.state_size_bytes),
        time_consumer("dict + min-heap (weighted)", weighted_update, items,
                      state_bytes=weighted.state_size_bytes),
    ]
    table = format_table(
        f"Ablation: SpaceSaving structures on unary updates (eps={EPSILON})",
        ["structure", "ns/update", "state bytes"],
        [[r.name, f"{r.ns_per_tuple:,.0f}", r.state_bytes_total] for r in results],
    )
    record_figure("ablation_spacesaving_impl", table)

    # The weighted structure's overhead on unary work stays a small factor
    # (the paper: "the overhead of the weighted version ... is small").
    unary_cost, weighted_cost = (r.ns_per_tuple for r in results)
    assert weighted_cost < 4.0 * unary_cost

    # Both structures find the same true heavy hitters.
    truth = {item for item, __ in
             exact_heavy_hitters(((i[0], 1.0) for i in items), PHI)}
    unary_found = {c.item for c in unary.heavy_hitters(PHI)}
    weighted_found = {c.item for c in weighted.heavy_hitters(PHI)}
    assert truth <= unary_found
    assert truth <= weighted_found


@pytest.mark.parametrize("structure", ["unary", "weighted"])
def test_ablation_spacesaving_throughput(benchmark, tcp_trace, structure):
    items = [row[3] for row in tcp_trace]

    if structure == "unary":
        def run_once():
            summary = UnarySpaceSaving.from_epsilon(EPSILON)
            for item in items:
                summary.update(item)
            return len(summary)
    else:
        def run_once():
            summary = WeightedSpaceSaving.from_epsilon(EPSILON)
            for item in items:
                summary.update(item, 1.0)
            return len(summary)

    size = benchmark(run_once)
    assert size > 0

"""Property-based tests of the sketch substrate's error guarantees."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.kmv import KMVSketch
from repro.sketches.qdigest import QDigest
from repro.sketches.spacesaving import UnarySpaceSaving, WeightedSpaceSaving

weighted_streams = st.lists(
    st.tuples(st.integers(0, 50), st.floats(0.01, 10.0)),
    min_size=1,
    max_size=300,
)

unary_streams = st.lists(st.integers(0, 50), min_size=1, max_size=300)


@given(stream=weighted_streams, capacity=st.integers(2, 30))
@settings(max_examples=100)
def test_weighted_spacesaving_error_bound(stream, capacity):
    """true <= estimate <= true + W / capacity, for monitored items."""
    summary = WeightedSpaceSaving(capacity)
    truth: dict[int, float] = {}
    total = 0.0
    for item, weight in stream:
        summary.update(item, weight)
        truth[item] = truth.get(item, 0.0) + weight
        total += weight
    bound = total / capacity
    for counter in summary.counters():
        true_weight = truth.get(counter.item, 0.0)
        assert counter.count >= true_weight - 1e-9
        assert counter.count - true_weight <= bound + 1e-9


@given(stream=unary_streams, capacity=st.integers(2, 30))
@settings(max_examples=100)
def test_unary_spacesaving_error_bound(stream, capacity):
    summary = UnarySpaceSaving(capacity)
    truth: dict[int, int] = {}
    for item in stream:
        summary.update(item)
        truth[item] = truth.get(item, 0) + 1
    bound = len(stream) / capacity
    for counter in summary.counters():
        true_count = truth.get(counter.item, 0)
        assert counter.count >= true_count
        assert counter.count - true_count <= bound + 1e-9


@given(stream=unary_streams, capacity=st.integers(2, 30),
       phi_percent=st.integers(5, 50))
@settings(max_examples=100)
def test_spacesaving_no_false_negatives(stream, capacity, phi_percent):
    """Every item with weight >= phi*W (phi >= 1/capacity) is reported."""
    phi = phi_percent / 100.0
    if phi < 1.0 / capacity:
        phi = 1.0 / capacity
    summary = UnarySpaceSaving(capacity)
    truth: dict[int, int] = {}
    for item in stream:
        summary.update(item)
        truth[item] = truth.get(item, 0) + 1
    reported = {c.item for c in summary.heavy_hitters(phi)}
    for item, count in truth.items():
        if count >= phi * len(stream):
            assert item in reported


@given(
    stream=st.lists(
        st.tuples(st.integers(0, 255), st.floats(0.01, 5.0)),
        min_size=1, max_size=400,
    ),
    k=st.integers(4, 64),
)
@settings(max_examples=75)
def test_qdigest_rank_error_bound(stream, k):
    """Rank estimates err low by at most log2(U) * W / k."""
    digest = QDigest(universe_bits=8, k=k)
    truth: dict[int, float] = {}
    for value, weight in stream:
        digest.update(value, weight)
        truth[value] = truth.get(value, 0.0) + weight
    digest.compress()
    total = digest.total_weight
    bound = 8 * total / k
    for probe in (0, 63, 127, 191, 255):
        true_rank = sum(w for v, w in truth.items() if v <= probe)
        estimate = digest.rank(probe)
        assert estimate <= true_rank + 1e-6
        assert estimate >= true_rank - bound - 1e-6


@given(
    stream=st.lists(
        st.tuples(st.integers(0, 255), st.floats(0.01, 5.0)),
        min_size=2, max_size=200,
    ),
    split=st.integers(1, 199),
    k=st.integers(4, 32),
)
@settings(max_examples=75)
def test_qdigest_merge_total_weight(stream, split, k):
    split = min(split, len(stream) - 1)
    left = QDigest(universe_bits=8, k=k)
    right = QDigest(universe_bits=8, k=k)
    whole = QDigest(universe_bits=8, k=k)
    for index, (value, weight) in enumerate(stream):
        (left if index < split else right).update(value, weight)
        whole.update(value, weight)
    left.merge(right)
    assert math.isclose(left.total_weight, whole.total_weight, rel_tol=1e-9)


@given(
    items=st.lists(st.integers(0, 10_000), min_size=1, max_size=500),
    split=st.integers(0, 500),
    k=st.integers(2, 64),
)
@settings(max_examples=75)
def test_kmv_merge_identical_to_union(items, split, k):
    """Merging KMVs gives bit-identical state to sketching the union."""
    split = min(split, len(items))
    left = KMVSketch(k=k)
    right = KMVSketch(k=k)
    union = KMVSketch(k=k)
    for index, item in enumerate(items):
        (left if index < split else right).update(item)
        union.update(item)
    left.merge(right)
    assert sorted(left.values()) == sorted(union.values())
    assert left.estimate() == union.estimate()


@given(items=st.lists(st.integers(0, 1_000_000), min_size=1, max_size=300))
@settings(max_examples=75)
def test_kmv_estimate_exact_below_k(items):
    sketch = KMVSketch(k=512)
    for item in items:
        sketch.update(item)
    assert sketch.estimate() == len(set(items))


@given(
    stream=st.lists(
        st.tuples(st.floats(0.0, 1_000.0), st.floats(0.1, 5.0)),
        min_size=3, max_size=300,
    ),
    epsilon=st.floats(0.02, 0.3),
)
@settings(max_examples=75)
def test_gk_invariant_holds_after_compression(stream, epsilon):
    """GK's g + delta <= 2*eps*W invariant (the rank-error certificate)."""
    from repro.sketches.gk import GKSummary

    summary = GKSummary(epsilon=epsilon)
    for value, weight in stream:
        summary.update(value, weight)
    summary.compress()
    cap = 2.0 * epsilon * summary.total_weight
    # Interior tuples obey the invariant (extremes carry their own mass,
    # which a single heavy insert may legitimately exceed).
    heaviest = max(weight for __, weight in stream)
    for entry in summary._tuples[1:-1]:
        assert entry.g + entry.delta <= cap + heaviest + 1e-9
    # Total mass is conserved exactly.
    total_g = sum(entry.g for entry in summary._tuples)
    assert math.isclose(total_g, summary.total_weight, rel_tol=1e-9)


@given(
    stream=st.lists(
        st.tuples(st.floats(0.0, 100.0), st.floats(0.1, 2.0)),
        min_size=1, max_size=200,
    ),
)
@settings(max_examples=75)
def test_gk_quantiles_are_observed_values(stream):
    from repro.sketches.gk import GKSummary

    summary = GKSummary(epsilon=0.1)
    observed = set()
    for value, weight in stream:
        summary.update(value, weight)
        observed.add(value)
    for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert summary.quantile(phi) in observed

"""Property-based tests of the decayed aggregates.

Invariants checked on random streams:

* order invariance — forward summaries never depend on arrival order
  (Section VI-B);
* merge(a, b) == process(a ++ b) for every aggregate (Section VI-B);
* landmark renormalization invariance for exponential g (Section VI-A);
* agreement with direct evaluation of the Definition 5/6 formulas.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    DecayedAverage,
    DecayedCount,
    DecayedMax,
    DecayedMin,
    DecayedSum,
    DecayedVariance,
)
from repro.core.decay import ForwardDecay
from repro.core.functions import ExponentialG, PolynomialG

AGGREGATES = [
    DecayedCount,
    DecayedSum,
    DecayedAverage,
    DecayedVariance,
    DecayedMin,
    DecayedMax,
]

streams = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1_000.0),   # offset from landmark
        st.floats(min_value=-100.0, max_value=100.0),  # value
    ),
    min_size=1,
    max_size=40,
)

g_functions = st.one_of(
    st.builds(PolynomialG, beta=st.floats(0.2, 4.0)),
    st.builds(ExponentialG, alpha=st.floats(0.001, 0.5)),
)


def _build(cls, decay, items):
    aggregate = cls(decay)
    for offset, value in items:
        aggregate.update(decay.landmark + offset, value)
    return aggregate


@given(g=g_functions, items=streams, permutation_seed=st.integers(0, 2**16))
@settings(max_examples=100)
def test_order_invariance(g, items, permutation_seed):
    import random

    decay = ForwardDecay(g, landmark=10.0)
    shuffled = list(items)
    random.Random(permutation_seed).shuffle(shuffled)
    query_time = decay.landmark + max(offset for offset, __ in items)
    for cls in AGGREGATES:
        in_order = _build(cls, decay, items).query(query_time)
        out_of_order = _build(cls, decay, shuffled).query(query_time)
        assert math.isclose(in_order, out_of_order, rel_tol=1e-9, abs_tol=1e-9)


@given(g=g_functions, items=streams, split=st.integers(0, 40))
@settings(max_examples=100)
def test_merge_equals_concatenation(g, items, split):
    decay = ForwardDecay(g, landmark=0.0)
    split = min(split, len(items))
    query_time = max(offset for offset, __ in items)
    for cls in AGGREGATES:
        whole = _build(cls, decay, items)
        left = _build(cls, decay, items[:split])
        right = _build(cls, decay, items[split:])
        if split == 0:
            left, right = right, left  # left must be non-empty to query
        left.merge(right)
        assert math.isclose(
            left.query(query_time), whole.query(query_time),
            rel_tol=1e-9, abs_tol=1e-9,
        )


@given(alpha=st.floats(0.5, 2.0), items=streams)
@settings(max_examples=100)
def test_renormalization_invariance(alpha, items):
    """An item at t = 1,000 drives alpha * t past the shift exponent (~355);
    every answer still matches its closed form over ``exp(alpha(t_i - t))``."""
    decay = ForwardDecay(ExponentialG(alpha=alpha), landmark=0.0)
    items = [*items, (1_000.0, 1.0)]
    query_time = 1_000.0
    weights = [math.exp(alpha * (offset - query_time)) for offset, __ in items]
    terms = [w * value for w, (__, value) in zip(weights, items)]
    count, total = math.fsum(weights), math.fsum(terms)
    mean = total / count
    square = math.fsum(w * value * value for w, (__, value) in zip(weights, items))
    exact = {
        DecayedCount: count,
        DecayedSum: total,
        DecayedAverage: mean,
        DecayedVariance: max(square / count - mean * mean, 0.0),
        DecayedMin: min(terms),
        DecayedMax: max(terms),
    }
    for cls in AGGREGATES:
        aggregate = _build(cls, decay, items)
        assert aggregate._engine.shifts > 0
        assert math.isclose(
            aggregate.query(query_time), exact[cls], rel_tol=1e-9, abs_tol=1e-9,
        )


@given(items=streams, beta=st.floats(0.2, 4.0))
@settings(max_examples=100)
def test_agreement_with_direct_formulas(items, beta):
    decay = ForwardDecay(PolynomialG(beta=beta), landmark=0.0)
    query_time = max(offset for offset, __ in items)
    weights = [decay.weight(offset, query_time) for offset, __ in items]
    values = [value for __, value in items]

    count = _build(DecayedCount, decay, items).query(query_time)
    assert math.isclose(count, sum(weights), rel_tol=1e-9, abs_tol=1e-9)

    total = _build(DecayedSum, decay, items).query(query_time)
    assert math.isclose(
        total, sum(w * v for w, v in zip(weights, values)),
        rel_tol=1e-9, abs_tol=1e-9,
    )

    minimum = _build(DecayedMin, decay, items).query(query_time)
    assert math.isclose(
        minimum, min(w * v for w, v in zip(weights, values)),
        rel_tol=1e-9, abs_tol=1e-9,
    )


@given(items=streams)
@settings(max_examples=50)
def test_variance_non_negative(items):
    decay = ForwardDecay(PolynomialG(2.0), landmark=0.0)
    variance = _build(DecayedVariance, decay, items)
    assert variance.query(max(offset for offset, __ in items)) >= 0.0

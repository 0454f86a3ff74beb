"""Property-based tests of checkpoint/restore round-trips."""

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
from repro.core.heavy_hitters import DecayedHeavyHitters
from repro.core.protocol import StreamSummary

AGGREGATES = [
    DecayedCount,
    DecayedSum,
    DecayedAverage,
    DecayedVariance,
    DecayedMin,
    DecayedMax,
]

streams = st.lists(
    st.tuples(st.floats(0.1, 500.0), st.floats(-50.0, 50.0)),
    min_size=1,
    max_size=50,
)

g_functions = st.one_of(
    st.builds(PolynomialG, beta=st.floats(0.2, 4.0)),
    st.builds(ExponentialG, alpha=st.floats(0.001, 0.5)),
)


def roundtrip(summary):
    return StreamSummary.from_bytes(summary.to_bytes())


@given(g=g_functions, items=streams)
@settings(max_examples=75)
def test_aggregate_roundtrip_preserves_queries(g, items):
    decay = ForwardDecay(g, landmark=0.0)
    query_time = max(offset for offset, __ in items)
    for cls in AGGREGATES:
        summary = cls(decay)
        for offset, value in items:
            summary.update(offset, value)
        restored = roundtrip(summary)
        assert math.isclose(
            restored.query(query_time), summary.query(query_time),
            rel_tol=1e-12, abs_tol=1e-12,
        )


@given(g=g_functions, items=streams, split=st.integers(0, 50))
@settings(max_examples=75)
def test_checkpoint_mid_stream_then_resume(g, items, split):
    """dump at any point, reload, continue: identical to uninterrupted."""
    decay = ForwardDecay(g, landmark=0.0)
    split = min(split, len(items))
    query_time = max(offset for offset, __ in items)
    for cls in AGGREGATES:
        uninterrupted = cls(decay)
        first_half = cls(decay)
        for offset, value in items[:split]:
            first_half.update(offset, value)
            uninterrupted.update(offset, value)
        resumed = roundtrip(first_half)
        for offset, value in items[split:]:
            resumed.update(offset, value)
            uninterrupted.update(offset, value)
        assert math.isclose(
            resumed.query(query_time), uninterrupted.query(query_time),
            rel_tol=1e-9, abs_tol=1e-12,
        )


@given(
    items=st.lists(
        st.tuples(st.floats(0.1, 200.0), st.integers(0, 20)),
        min_size=1, max_size=60,
    )
)
@settings(max_examples=50)
def test_heavy_hitters_roundtrip(items):
    decay = ForwardDecay(PolynomialG(2.0), landmark=0.0)
    summary = DecayedHeavyHitters(decay, epsilon=0.05)
    for offset, value in items:
        summary.update(value, offset)
    restored = roundtrip(summary)
    query_time = max(offset for offset, __ in items)
    assert math.isclose(
        restored.decayed_total(query_time), summary.decayed_total(query_time),
        rel_tol=1e-12,
    )
    for value in {v for __, v in items}:
        assert math.isclose(
            restored.decayed_count(value, query_time),
            summary.decayed_count(value, query_time),
            rel_tol=1e-12, abs_tol=1e-12,
        )

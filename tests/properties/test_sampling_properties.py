"""Property-based tests of the sampling algorithms (Section V)."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ForwardDecay
from repro.core.functions import ExponentialG, PolynomialG
from repro.sampling.priority import PrioritySampler
from repro.sampling.reservoir import ReservoirSampler
from repro.sampling.weighted_reservoir import (
    WeightedReservoirSampler,
    decayed_log_weight,
)
from repro.sampling.with_replacement import DecayedSamplerWithReplacement

offsets = st.lists(st.floats(0.1, 500.0), min_size=1, max_size=60, unique=True)


@given(items=offsets, k=st.integers(1, 20), seed=st.integers(0, 2**16))
@settings(max_examples=100)
def test_reservoir_size_invariant(items, k, seed):
    sampler = ReservoirSampler(k, rng=random.Random(seed))
    sampler.update_many(items)
    assert len(sampler) == min(k, len(items))
    assert set(sampler.sample()) <= set(items)


@given(items=offsets, k=st.integers(1, 20), seed=st.integers(0, 2**16))
@settings(max_examples=100)
def test_weighted_reservoir_invariants(items, k, seed):
    """Sample is a subset, without replacement, of the right size."""
    decay = ForwardDecay(PolynomialG(2.0), landmark=0.0)
    sampler = WeightedReservoirSampler(k, rng=random.Random(seed))
    for offset in items:
        sampler.update_log(offset, decayed_log_weight(decay, offset))
    sample = sampler.sample()
    assert len(sample) == min(k, len(items))
    assert len(set(sample)) == len(sample)
    assert set(sample) <= set(items)


@given(items=offsets, k=st.integers(1, 20), seed=st.integers(0, 2**16),
       alpha=st.floats(0.01, 2.0))
@settings(max_examples=100)
def test_priority_sampler_estimator_exactness_below_k(items, k, seed, alpha):
    """Fewer than k items: estimator returns the exact (log-domain) sum."""
    if len(items) >= k:
        items = items[: k - 1] if k > 1 else items[:0]
    if not items:
        return
    decay = ForwardDecay(ExponentialG(alpha=alpha), landmark=0.0)
    sampler = PrioritySampler(k, rng=random.Random(seed))
    for offset in items:
        sampler.update_log(offset, decayed_log_weight(decay, offset))
    query_time = max(items)
    estimate = sampler.subset_sum_log_estimate(
        lambda item: True, log_normalizer=alpha * query_time
    )
    truth = sum(math.exp(alpha * (offset - query_time)) for offset in items)
    assert math.isclose(estimate, truth, rel_tol=1e-9)


@given(items=offsets, s=st.integers(1, 10), seed=st.integers(0, 2**16))
@settings(max_examples=100)
def test_with_replacement_sample_members(items, s, seed):
    decay = ForwardDecay(PolynomialG(1.0), landmark=0.0)
    sampler = DecayedSamplerWithReplacement(decay, s, rng=random.Random(seed))
    for offset in items:
        sampler.update(offset, offset)
    sample = sampler.sample()
    assert len(sample) == s
    assert set(sample) <= set(items)


@given(items=offsets, seed=st.integers(0, 2**16), alpha=st.floats(0.1, 2.0))
@settings(max_examples=100)
def test_with_replacement_total_weight_finite_under_exp(items, seed, alpha):
    """Exponential weights stay finite through engine renormalization."""
    decay = ForwardDecay(ExponentialG(alpha=alpha), landmark=0.0)
    sampler = DecayedSamplerWithReplacement(decay, 2, rng=random.Random(seed))
    for offset in items:
        sampler.update(offset, offset)
    assert math.isfinite(sampler.total_weight)
    assert sampler.total_weight > 0.0


@given(
    weights=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=30),
    seed=st.integers(0, 2**12),
)
@settings(max_examples=50)
def test_weighted_reservoir_scale_invariance(weights, seed):
    """Scaling all weights by a constant yields the identical sample.

    This is the paper's observation that sampling is invariant to the
    global scaling of weights — the reason g(t - L) can be factored out.
    """
    sampler_a = WeightedReservoirSampler(5, rng=random.Random(seed))
    sampler_b = WeightedReservoirSampler(5, rng=random.Random(seed))
    for index, weight in enumerate(weights):
        sampler_a.update(index, weight)
        sampler_b.update(index, weight * 1e6)
    assert sampler_a.sample() == sampler_b.sample()

"""Unit tests for decayed sampling with replacement (Theorem 5)."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.functions import ExponentialG, PolynomialG
from repro.sampling import KeyedRandom
from repro.sampling.estimators import (
    chi_square_statistic,
    empirical_frequencies,
    expected_forward_probabilities,
)
from repro.sampling.with_replacement import DecayedSamplerWithReplacement


class TestDistribution:
    def test_theorem_5_inclusion_probabilities(self):
        """P(final sample = item i) must equal g(t_i - L) / W_n."""
        decay = ForwardDecay(PolynomialG(2.0), landmark=0.0)
        stream = [(float(t), t) for t in range(1, 31)]
        draws = []
        for seed in range(6_000):
            sampler = DecayedSamplerWithReplacement(decay, 1,
                                                    rng=random.Random(seed))
            for t, v in stream:
                sampler.update(v, t)
            draws.append(sampler.sample()[0])
        observed = empirical_frequencies(draws)
        expected = expected_forward_probabilities(decay, stream)
        chi = chi_square_statistic(observed, expected, len(draws))
        # 29 degrees of freedom: 99.9th percentile ~ 58.
        assert chi < 60.0

    def test_uniform_under_no_decay(self):
        from repro.core.functions import NoDecayG

        decay = ForwardDecay(NoDecayG(), landmark=0.0)
        stream = [(float(t), t) for t in range(1, 21)]
        hits: Counter = Counter()
        for seed in range(8_000):
            sampler = DecayedSamplerWithReplacement(decay, 1,
                                                    rng=random.Random(seed))
            for t, v in stream:
                sampler.update(v, t)
            hits[sampler.sample()[0]] += 1
        expected = 8_000 / 20
        for item in range(1, 21):
            assert hits[item] == pytest.approx(expected, rel=0.25)

    def test_single_draw_under_no_decay_is_the_textbook_sampler(self):
        """g = 1 with s = 1 keeps item i with probability 1/i: a uniform
        single draw from the stream."""
        from repro.core.functions import NoDecayG

        decay = ForwardDecay(NoDecayG(), landmark=0.0)
        n, repetitions = 20, 20_000
        hits: Counter = Counter()
        for seed in range(repetitions):
            sampler = DecayedSamplerWithReplacement(decay, 1,
                                                    rng=random.Random(seed))
            for item in range(n):
                sampler.update(item, float(item + 1))
            hits[sampler.sample()[0]] += 1
        expected = repetitions / n
        for item in range(n):
            assert hits[item] == pytest.approx(expected, rel=0.2)

    def test_slots_are_independent(self):
        decay = ForwardDecay(PolynomialG(1.0), landmark=0.0)
        sampler = DecayedSamplerWithReplacement(decay, 500,
                                                rng=random.Random(1))
        for t in range(1, 101):
            sampler.update(t, float(t))
        sample = sampler.sample()
        assert len(sample) == 500
        # With replacement: duplicates expected across 500 slots of 100 items.
        assert len(set(sample)) < 500


class TestSkippingVariant:
    """The acceleration sketched after Theorem 5: threshold jumps."""

    def test_skipping_matches_target_distribution(self):
        decay = ForwardDecay(PolynomialG(2.0), landmark=0.0)
        stream = [(float(t), t) for t in range(1, 31)]
        draws = []
        for seed in range(5_000):
            sampler = DecayedSamplerWithReplacement(
                decay, 1, rng=random.Random(seed)
            )
            for t, v in stream:
                sampler.update(v, t)
            draws.append(sampler.sample()[0])
        observed = empirical_frequencies(draws)
        expected = expected_forward_probabilities(decay, stream)
        chi = chi_square_statistic(observed, expected, len(draws))
        assert chi < 60.0  # df = 29

    def test_skipping_draws_fewer_randoms(self):
        # Counted where the sampler draws: the 32-bit words its own keyed
        # generator has handed out (the rng= passed in only keys it).  A
        # coin per slot and item would be 2 words x s x n.
        decay = ForwardDecay(PolynomialG(1.0), landmark=0.0)
        stream = [(float(t), t) for t in range(1, 5_001)]
        rng = KeyedRandom(1)
        sampler = DecayedSamplerWithReplacement(decay, 4, rng=rng)
        for t, v in stream:
            sampler.update(v, t)
        assert 0 < rng.words < 4 * len(stream) / 20

    def test_skipping_with_exponential_renormalization(self):
        """Thresholds are weight-scaled state; they must rescale on shifts."""
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        sampler = DecayedSamplerWithReplacement(decay, 10, rng=random.Random(6))
        for t in range(1, 5_001):
            sampler.update(t, float(t))
        assert sampler._engine.shifts > 0
        exact = math.fsum(math.exp(t - 5_000.0) for t in range(1, 5_001))
        assert sampler.total_weight / sampler._engine.normalizer(
            5_000.0
        ) == pytest.approx(exact, rel=1e-12)
        assert min(sampler.sample()) > 4_980  # recency bias preserved


class TestMechanics:
    def test_rejects_bad_s(self, paper_decay):
        with pytest.raises(ParameterError):
            DecayedSamplerWithReplacement(paper_decay, 0)

    def test_empty_sample_raises(self, paper_decay):
        sampler = DecayedSamplerWithReplacement(paper_decay, 3)
        with pytest.raises(EmptySummaryError):
            sampler.sample()

    def test_first_item_always_retained(self, paper_decay):
        sampler = DecayedSamplerWithReplacement(paper_decay, 4,
                                                rng=random.Random(5))
        sampler.update("first", 105.0)
        assert sampler.sample() == ["first"] * 4

    def test_constant_state_size(self, paper_decay):
        sampler = DecayedSamplerWithReplacement(paper_decay, 10)
        for t in range(101, 200):
            sampler.update(t, float(t))
        assert sampler.state_size_bytes() == 8 * 11

    def test_exponential_decay_long_stream(self):
        """Renormalization keeps W finite; recent items dominate."""
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        sampler = DecayedSamplerWithReplacement(decay, 50, rng=random.Random(2))
        for t in range(1, 10_001):
            sampler.update(t, float(t))
        assert sampler._engine.shifts > 0
        exact = math.fsum(math.exp(t - 10_000.0) for t in range(1, 10_001))
        assert sampler.total_weight / sampler._engine.normalizer(
            10_000.0
        ) == pytest.approx(exact, rel=1e-12)
        sample = sampler.sample()
        # Under exp(1) decay virtually all mass is in the last few items.
        assert min(sample) > 9_980

    def test_out_of_order_updates_allowed(self, paper_decay):
        sampler = DecayedSamplerWithReplacement(paper_decay, 2,
                                                rng=random.Random(3))
        for t in [105.0, 103.0, 108.0, 101.0]:
            sampler.update(t, t)
        assert sampler.items_processed == 4

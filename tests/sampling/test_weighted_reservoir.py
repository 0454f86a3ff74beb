"""Unit tests for weighted reservoir sampling (A-Res)."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.functions import ExponentialG, PolynomialG
from repro.sampling.weighted_reservoir import (
    WeightedReservoirSampler,
    decayed_log_weight,
)

SAMPLERS = [WeightedReservoirSampler]


class TestDecayedLogWeight:
    def test_polynomial_is_log_of_g(self):
        decay = ForwardDecay(PolynomialG(2.0), landmark=100.0)
        assert decayed_log_weight(decay, 105.0) == pytest.approx(math.log(25.0))

    def test_exponential_avoids_overflow(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        # exp(1e6) would overflow; the log path is exact.
        assert decayed_log_weight(decay, 1e6) == pytest.approx(1e6)

    def test_zero_weight_rejected(self):
        decay = ForwardDecay(PolynomialG(2.0), landmark=100.0)
        with pytest.raises(ParameterError):
            decayed_log_weight(decay, 100.0)  # g(0) = 0


class TestCommon:
    @pytest.mark.parametrize("cls", SAMPLERS)
    def test_holds_k_items_without_replacement(self, cls):
        sampler = cls(10, rng=random.Random(1))
        for item in range(100):
            sampler.update(item, float(item + 1))
        sample = sampler.sample()
        assert len(sample) == 10
        assert len(set(sample)) == 10  # without replacement

    @pytest.mark.parametrize("cls", SAMPLERS)
    def test_fewer_items_than_k(self, cls):
        sampler = cls(10, rng=random.Random(1))
        for item in range(3):
            sampler.update(item, 1.0)
        assert sorted(sampler.sample()) == [0, 1, 2]

    @pytest.mark.parametrize("cls", SAMPLERS)
    def test_empty_raises(self, cls):
        with pytest.raises(EmptySummaryError):
            cls(5).sample()

    @pytest.mark.parametrize("cls", SAMPLERS)
    def test_rejects_bad_weight(self, cls):
        sampler = cls(5)
        with pytest.raises(ParameterError):
            sampler.update("a", 0.0)
        with pytest.raises(ParameterError):
            sampler.update("a", -2.0)
        with pytest.raises(ParameterError):
            sampler.update("a", math.inf)

    @pytest.mark.parametrize("cls", SAMPLERS)
    def test_rejects_bad_k(self, cls):
        with pytest.raises(ParameterError):
            cls(0)

    @pytest.mark.parametrize("cls", SAMPLERS)
    def test_heavy_items_sampled_more(self, cls):
        hits: Counter = Counter()
        for seed in range(800):
            sampler = cls(5, rng=random.Random(seed))
            for item in range(50):
                weight = 100.0 if item >= 45 else 1.0
                sampler.update(item, weight)
            hits.update(sampler.sample())
        heavy = sum(hits[item] for item in range(45, 50))
        light = sum(hits[item] for item in range(0, 45))
        assert heavy > 2 * light


class TestARes:
    def test_k1_matches_weighted_distribution(self):
        """With k=1, P(item) = w_i / W exactly (Efraimidis-Spirakis)."""
        weights = {0: 1.0, 1: 2.0, 2: 4.0, 3: 8.0}
        total = sum(weights.values())
        hits: Counter = Counter()
        repetitions = 30_000
        for seed in range(repetitions):
            sampler = WeightedReservoirSampler(1, rng=random.Random(seed))
            for item, weight in weights.items():
                sampler.update(item, weight)
            hits[sampler.sample()[0]] += 1
        for item, weight in weights.items():
            assert hits[item] / repetitions == pytest.approx(
                weight / total, rel=0.1
            )

    def test_log_and_raw_updates_equivalent(self):
        raw = WeightedReservoirSampler(5, rng=random.Random(11))
        logged = WeightedReservoirSampler(5, rng=random.Random(11))
        for item in range(50):
            weight = float(item + 1) ** 2
            raw.update(item, weight)
            logged.update_log(item, math.log(weight))
        assert raw.sample() == logged.sample()

    def test_exponential_decay_log_domain(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        sampler = WeightedReservoirSampler(10, rng=random.Random(4))
        for t in range(1, 100_001):
            sampler.update_log(t, decayed_log_weight(decay, float(t)))
        sample = sampler.sample()
        # exp(1) decay: only the very newest items can be sampled.
        assert min(sample) > 99_900

    def test_sample_sorted_by_key(self):
        sampler = WeightedReservoirSampler(3, rng=random.Random(9))
        for item in range(30):
            sampler.update(item, 1.0)
        assert len(sampler.sample()) == 3
        assert len(sampler) == 3

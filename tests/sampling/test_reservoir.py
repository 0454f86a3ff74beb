"""Unit tests for classic reservoir sampling (the undecayed baseline)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.errors import EmptySummaryError, ParameterError
from repro.sampling import KeyedRandom
from repro.sampling.reservoir import ReservoirSampler, SingleItemWithReplacementSampler


class TestReservoirSampler:
    def test_fills_up_to_k(self):
        sampler = ReservoirSampler(5, rng=random.Random(1))
        sampler.extend(range(3))
        assert sorted(sampler.sample()) == [0, 1, 2]
        sampler.extend(range(3, 10))
        assert len(sampler) == 5

    def test_sample_is_copy(self):
        sampler = ReservoirSampler(2, rng=random.Random(1))
        sampler.extend([1, 2])
        snapshot = sampler.sample()
        snapshot.append(99)
        assert len(sampler.sample()) == 2

    def test_empty_raises(self):
        with pytest.raises(EmptySummaryError):
            ReservoirSampler(3).sample()

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            ReservoirSampler(0)

    def test_uniformity(self):
        """Every item appears in the sample with probability ~ k/n."""
        n, k, repetitions = 50, 5, 4_000
        hits: Counter = Counter()
        for seed in range(repetitions):
            sampler = ReservoirSampler(k, rng=random.Random(seed))
            sampler.extend(range(n))
            hits.update(sampler.sample())
        expected = repetitions * k / n
        for item in range(n):
            assert hits[item] == pytest.approx(expected, rel=0.25)

    def test_skipping_variant_uniformity(self):
        # The geometric-skip draw uses Vitter's continuous approximation,
        # accurate once n >> k; check uniformity at decile granularity.
        n, k, repetitions = 1_000, 10, 1_500
        hits: Counter = Counter()
        for seed in range(repetitions):
            sampler = ReservoirSampler(k, rng=random.Random(seed),
                                       use_skipping=True)
            sampler.extend(range(n))
            hits.update(sampler.sample())
        decile = n // 10
        expected_per_decile = repetitions * k / 10
        for start in range(0, n, decile):
            observed = sum(hits[item] for item in range(start, start + decile))
            assert observed == pytest.approx(expected_per_decile, rel=0.2)

    def test_skipping_touches_fewer_randoms(self):
        # Counted where the sampler draws: the 32-bit words its own keyed
        # generator has handed out (the rng= passed in only keys it).
        plain_rng, skip_rng = KeyedRandom(3), KeyedRandom(3)
        plain = ReservoirSampler(10, rng=plain_rng)
        plain.extend(range(10_000))
        skipping = ReservoirSampler(10, rng=skip_rng, use_skipping=True)
        skipping.extend(range(10_000))
        assert 0 < skip_rng.words < plain_rng.words / 10

    def test_state_size(self):
        sampler = ReservoirSampler(4, rng=random.Random(1))
        sampler.extend(range(10))
        assert sampler.state_size_bytes() == 32


class TestSingleItemSampler:
    def test_uniform_distribution(self):
        n, repetitions = 20, 20_000
        hits: Counter = Counter()
        for seed in range(repetitions):
            sampler = SingleItemWithReplacementSampler(rng=random.Random(seed))
            for item in range(n):
                sampler.update(item)
            hits[sampler.sample()] += 1
        expected = repetitions / n
        for item in range(n):
            assert hits[item] == pytest.approx(expected, rel=0.2)

    def test_empty_raises(self):
        with pytest.raises(EmptySummaryError):
            SingleItemWithReplacementSampler().sample()

    def test_items_seen(self):
        sampler = SingleItemWithReplacementSampler(rng=random.Random(1))
        for item in range(5):
            sampler.update(item)
        assert sampler.items_seen == 5

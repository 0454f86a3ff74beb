"""Unit tests for classic reservoir sampling (the undecayed baseline)."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.errors import EmptySummaryError, ParameterError
from repro.sampling.reservoir import ReservoirSampler


class TestReservoirSampler:
    def test_fills_up_to_k(self):
        sampler = ReservoirSampler(5, rng=random.Random(1))
        sampler.update_many(range(3))
        assert sorted(sampler.sample()) == [0, 1, 2]
        sampler.update_many(range(3, 10))
        assert len(sampler) == 5

    def test_sample_is_copy(self):
        sampler = ReservoirSampler(2, rng=random.Random(1))
        sampler.update_many([1, 2])
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
            sampler.update_many(range(n))
            hits.update(sampler.sample())
        expected = repetitions * k / n
        for item in range(n):
            assert hits[item] == pytest.approx(expected, rel=0.25)

    def test_update_many_takes_a_generator(self):
        from_list = ReservoirSampler(4, rng=random.Random(3))
        from_list.update_many(list(range(40)))
        from_generator = ReservoirSampler(4, rng=random.Random(3))
        from_generator.update_many(item for item in range(40))
        assert from_generator.sample() == from_list.sample()
        assert from_generator.items_seen == 40

    def test_items_seen_counts_every_offer(self):
        sampler = ReservoirSampler(3, rng=random.Random(1))
        sampler.update_many(range(10))
        sampler.update("x")
        assert sampler.items_seen == 11
        assert len(sampler) == 3

    def test_below_k_the_sample_is_the_stream_in_order(self):
        sampler = ReservoirSampler(8, rng=random.Random(1))
        sampler.update_many(["c", "a", "b", "a"])
        assert sampler.sample() == ["c", "a", "b", "a"]

    def test_the_same_seed_draws_the_same_sample(self):
        samples = []
        for _ in range(2):
            sampler = ReservoirSampler(5, rng=random.Random(11))
            sampler.update_many(range(1_000))
            samples.append(sampler.sample())
        assert samples[0] == samples[1]
        other = ReservoirSampler(5, rng=random.Random(12))
        other.update_many(range(1_000))
        assert other.sample() != samples[0]

    def test_query_is_the_sample(self):
        sampler = ReservoirSampler(3, rng=random.Random(5))
        sampler.update_many(range(20))
        assert sampler.query() == sampler.sample()

    def test_state_size(self):
        sampler = ReservoirSampler(4, rng=random.Random(1))
        sampler.update_many(range(10))
        assert sampler.state_size_bytes() == 32

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

    def test_state_size(self):
        sampler = ReservoirSampler(4, rng=random.Random(1))
        sampler.extend(range(10))
        assert sampler.state_size_bytes() == 32

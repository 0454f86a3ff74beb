"""Unit tests for Exponential Histograms and the Cohen-Strauss combiner."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ParameterError
from repro.core.functions import ExponentialF, PolynomialF, SlidingWindowF
from repro.sketches.exponential_histogram import (
    DecayedEHCombiner,
    ExponentialHistogramCount,
    ExponentialHistogramSum,
)


class TestCount:
    def test_exact_when_few_items(self):
        histogram = ExponentialHistogramCount(epsilon=0.5, window=100.0)
        for t in [1.0, 2.0, 3.0]:
            histogram.update(t)
        assert histogram.count(3.0) == pytest.approx(3.0, abs=1.0)

    @pytest.mark.parametrize("epsilon", [0.1, 0.05, 0.01])
    def test_window_count_relative_error(self, epsilon):
        histogram = ExponentialHistogramCount(epsilon=epsilon, window=50.0)
        now = 0.0
        for i in range(20_000):
            now = i * 0.01  # 100 arrivals per time unit
            histogram.update(now)
        true_count = 50.0 * 100  # window of 50 time units at 100/unit
        estimate = histogram.count(now)
        assert estimate == pytest.approx(true_count, rel=epsilon + 0.01)

    def test_expiry_drops_old_buckets(self):
        histogram = ExponentialHistogramCount(epsilon=0.1, window=10.0)
        for t in range(100):
            histogram.update(float(t))
        # Everything older than t=89 must be gone.
        assert histogram.count(99.0) <= 12
        for timestamp, __ in histogram.buckets():
            assert timestamp > 89.0

    def test_out_of_order_rejected(self):
        histogram = ExponentialHistogramCount(epsilon=0.1, window=10.0)
        histogram.update(5.0)
        with pytest.raises(ParameterError):
            histogram.update(4.0)

    def test_bucket_size_invariant(self):
        epsilon = 0.1
        histogram = ExponentialHistogramCount(epsilon=epsilon, window=1e9)
        for t in range(5_000):
            histogram.update(float(t))
        per_size: dict[int, int] = {}
        for __, size in histogram.buckets():
            per_size[size] = per_size.get(size, 0) + 1
            assert size & (size - 1) == 0, "bucket sizes must be powers of two"
        import math

        limit = math.ceil(1.0 / epsilon) // 2 + 1
        for size, count in per_size.items():
            assert count <= limit + 1

    def test_empty_count_is_zero(self):
        histogram = ExponentialHistogramCount(epsilon=0.1, window=10.0)
        assert histogram.count(100.0) == 0.0

    def test_window_larger_than_history(self):
        histogram = ExponentialHistogramCount(epsilon=0.1, window=1e6)
        for t in range(100):
            histogram.update(float(t))
        assert histogram.count(99.0) == pytest.approx(100.0, rel=0.1)

    def test_state_is_logarithmic_in_the_window_count(self):
        # At most ceil(1/eps)/2 + 2 buckets of each power-of-two size, and
        # sizes up to the window's 10,000 arrivals.
        histogram = ExponentialHistogramCount(epsilon=0.1, window=100.0)
        for t in range(50_000):
            histogram.update(t * 0.01)
        sizes = 10_000 .bit_length() + 1
        assert len(histogram) <= (10 // 2 + 2) * sizes
        assert histogram.state_size_bytes() == 16 * len(histogram)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ExponentialHistogramCount(epsilon=0.0, window=10.0)
        with pytest.raises(ParameterError):
            ExponentialHistogramCount(epsilon=0.1, window=0.0)


class TestSum:
    def test_binary_decomposition_exact_total(self):
        histogram = ExponentialHistogramSum(epsilon=0.5, window=1e9)
        values = [5, 13, 1, 0, 7]
        for index, value in enumerate(values):
            histogram.update(float(index), value)
        assert histogram.sum(10.0) == pytest.approx(sum(values), rel=0.5)

    @pytest.mark.parametrize("epsilon", [0.1, 0.02])
    def test_window_sum_relative_error(self, epsilon):
        histogram = ExponentialHistogramSum(epsilon=epsilon, window=30.0)
        rng = random.Random(5)
        arrivals = []
        for i in range(10_000):
            t = i * 0.01
            value = rng.randrange(1, 20)
            arrivals.append((t, value))
            histogram.update(t, value)
        now = arrivals[-1][0]
        true_sum = sum(v for t, v in arrivals if t > now - 30.0)
        assert histogram.sum(now) == pytest.approx(true_sum, rel=epsilon + 0.02)

    def test_negative_value_rejected(self):
        histogram = ExponentialHistogramSum(epsilon=0.1, window=10.0)
        with pytest.raises(ParameterError):
            histogram.update(0.0, -1)

    def test_zero_value_is_noop_for_buckets(self):
        histogram = ExponentialHistogramSum(epsilon=0.1, window=10.0)
        histogram.update(0.0, 0)
        assert len(histogram) == 0


class TestDecayedCombiner:
    """The Cohen-Strauss reduction: one EH answers any backward decay."""

    def _exact_decayed(self, arrivals, f, now):
        return sum(f(now - t) / f(0.0) for t in arrivals)

    @pytest.mark.parametrize(
        "f",
        [
            SlidingWindowF(window=20.0),
            ExponentialF(lam=0.1),
            PolynomialF(alpha=1.0),
        ],
        ids=["window", "exp", "poly"],
    )
    def test_combiner_tracks_exact_decayed_count(self, f):
        epsilon = 0.05
        histogram = ExponentialHistogramCount(epsilon=epsilon, window=60.0)
        arrivals = [i * 0.02 for i in range(30_000)]  # 600 time units... clipped
        arrivals = [t for t in arrivals if t <= 59.0]
        for t in arrivals:
            histogram.update(t)
        combiner = DecayedEHCombiner(histogram)
        now = arrivals[-1]
        estimate = combiner.decayed_value(f, now)
        exact = self._exact_decayed(arrivals, f, now)
        # Bucket staircase error: each bucket holds <= eps of newer mass,
        # and f is evaluated at the bucket's newest timestamp.
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_combiner_state_matches_histogram(self):
        histogram = ExponentialHistogramCount(epsilon=0.1, window=10.0)
        histogram.update(1.0)
        combiner = DecayedEHCombiner(histogram)
        assert combiner.state_size_bytes() == histogram.state_size_bytes()
        assert combiner.histogram is histogram

"""Unit tests for the decayed aggregates (Section IV-A/B, Theorem 1)."""

from __future__ import annotations

import math

import pytest

from repro.core.aggregates import (
    DecayedAlgebraic,
    DecayedAverage,
    DecayedCount,
    DecayedMax,
    DecayedMin,
    DecayedSum,
    DecayedVariance,
)
from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, MergeError
from repro.core.functions import ExponentialG, PolynomialG
from tests.conftest import PAPER_QUERY_TIME, PAPER_STREAM


def _fill(aggregate, stream=PAPER_STREAM):
    for t, v in stream:
        aggregate.update(t, v)
    return aggregate


class TestExample2:
    """Example 2 of the paper: C = 1.63, S = 9.67, A = 5.93."""

    def test_count(self, paper_decay):
        count = _fill(DecayedCount(paper_decay))
        assert count.query(PAPER_QUERY_TIME) == pytest.approx(1.63)

    def test_sum(self, paper_decay):
        total = _fill(DecayedSum(paper_decay))
        assert total.query(PAPER_QUERY_TIME) == pytest.approx(9.67)

    def test_average(self, paper_decay):
        average = _fill(DecayedAverage(paper_decay))
        assert average.query(PAPER_QUERY_TIME) == pytest.approx(9.67 / 1.63)

    def test_average_invariant_to_query_time(self, paper_decay):
        """The paper: A does not vary as the current time t increases."""
        average = _fill(DecayedAverage(paper_decay))
        assert average.query(110.0) == pytest.approx(average.query(500.0))


class TestBasicBehaviour:
    def test_empty_query_raises(self, paper_decay):
        with pytest.raises(EmptySummaryError):
            DecayedCount(paper_decay).query(110.0)

    def test_default_query_time_is_max_seen(self, paper_decay):
        count = _fill(DecayedCount(paper_decay))
        assert count.query() == pytest.approx(count.query(108.0))

    def test_out_of_order_updates_equal_sorted(self, paper_decay, any_g):
        decay = ForwardDecay(any_g, landmark=100.0)
        forward_order = DecayedSum(decay)
        reverse_order = DecayedSum(decay)
        for t, v in PAPER_STREAM:
            forward_order.update(t, v)
        for t, v in sorted(PAPER_STREAM, reverse=True):
            reverse_order.update(t, v)
        assert forward_order.query(110.0) == pytest.approx(reverse_order.query(110.0))

    def test_items_processed_and_last_timestamp(self, paper_decay):
        count = _fill(DecayedCount(paper_decay))
        assert count.items_processed == 5
        assert count.last_timestamp == 108

    def test_constant_value_average_is_that_value(self, paper_decay):
        """If all items have value v, the average is v (paper remark)."""
        average = DecayedAverage(paper_decay)
        for t in (101, 104, 107):
            average.update(t, 42.0)
        assert average.query(110.0) == pytest.approx(42.0)

    def test_state_sizes_are_constant(self, paper_decay):
        assert _fill(DecayedCount(paper_decay)).state_size_bytes() == 8
        assert _fill(DecayedSum(paper_decay)).state_size_bytes() == 8
        assert _fill(DecayedAverage(paper_decay)).state_size_bytes() == 16
        assert _fill(DecayedVariance(paper_decay)).state_size_bytes() == 24


class TestHistoricalQueries:
    """Section VI-B: query times may predate some items' timestamps.

    Items "in the future" relative to the query time get weights above 1 —
    the mechanism behind historical queries.
    """

    def test_historical_count_weights_future_items_higher(self, paper_decay):
        count = _fill(DecayedCount(paper_decay))
        # Query as of t=105: items at 107 and 108 are "future" items.
        historical = count.query(105.0)
        current = count.query(110.0)
        expected = sum(
            paper_decay.static_weight(t) for t, __ in PAPER_STREAM
        ) / paper_decay.normalizer(105.0)
        assert historical == pytest.approx(expected)
        assert historical > current  # smaller normalizer, larger weights

    def test_historical_weight_exceeds_one(self, paper_decay):
        # An item observed after the query time has relative weight > 1.
        weight = paper_decay.static_weight(108.0) / paper_decay.normalizer(105.0)
        assert weight > 1.0

    def test_historical_average_consistent(self, paper_decay):
        average = _fill(DecayedAverage(paper_decay))
        # The average is query-time invariant, so historical queries agree.
        assert average.query(105.0) == pytest.approx(average.query(110.0))


class TestLandmarkWindow:
    """Section III-C: the landmark window as trivial forward decay."""

    def test_landmark_window_equals_plain_aggregation(self):
        from repro.core.functions import LandmarkWindowG

        decay = ForwardDecay(LandmarkWindowG(), landmark=100.0)
        total = DecayedSum(decay)
        for t, v in PAPER_STREAM:
            total.update(t, v)
        # All items after the landmark count at full weight: a plain sum.
        assert total.query(110.0) == pytest.approx(
            sum(v for __, v in PAPER_STREAM)
        )

    def test_landmark_window_count(self):
        from repro.core.functions import LandmarkWindowG

        decay = ForwardDecay(LandmarkWindowG(), landmark=100.0)
        count = _fill(DecayedCount(decay))
        assert count.query(500.0) == pytest.approx(len(PAPER_STREAM))


class TestVariance:
    def test_variance_matches_direct_computation(self, paper_decay):
        variance = _fill(DecayedVariance(paper_decay))
        weights = [paper_decay.weight(t, 110.0) for t, __ in PAPER_STREAM]
        values = [v for __, v in PAPER_STREAM]
        total = sum(weights)
        mean = sum(w * v for w, v in zip(weights, values)) / total
        expected = sum(w * v * v for w, v in zip(weights, values)) / total - mean**2
        assert variance.query(110.0) == pytest.approx(expected)

    def test_variance_zero_for_constant_values(self, paper_decay):
        variance = DecayedVariance(paper_decay)
        for t in (102, 105, 109):
            variance.update(t, 7.0)
        assert variance.query(110.0) == pytest.approx(0.0, abs=1e-12)


class TestMinMax:
    def test_decayed_min_max_definition_6(self, paper_decay):
        minimum = _fill(DecayedMin(paper_decay))
        maximum = _fill(DecayedMax(paper_decay))
        products = [
            paper_decay.static_weight(t) * v for t, v in PAPER_STREAM
        ]
        normalizer = paper_decay.normalizer(110.0)
        assert minimum.query(110.0) == pytest.approx(min(products) / normalizer)
        assert maximum.query(110.0) == pytest.approx(max(products) / normalizer)

    def test_min_handles_negative_values(self, paper_decay):
        minimum = DecayedMin(paper_decay)
        minimum.update(105, -10.0)
        minimum.update(107, 5.0)
        assert minimum.query(110.0) < 0


class TestAlgebraic:
    def test_theorem_1_sum_of_squares(self, paper_decay):
        """Any algebraic summation works: here sum of v^2."""
        squares = DecayedAlgebraic(paper_decay, lambda v: v * v)
        _fill(squares)
        expected = sum(
            paper_decay.weight(t, 110.0) * v * v for t, v in PAPER_STREAM
        )
        assert squares.query(110.0) == pytest.approx(expected)

    def test_matches_count_and_sum_special_cases(self, paper_decay):
        as_count = _fill(DecayedAlgebraic(paper_decay, lambda v: 1.0))
        as_sum = _fill(DecayedAlgebraic(paper_decay, lambda v: v))
        assert as_count.query(110.0) == pytest.approx(1.63)
        assert as_sum.query(110.0) == pytest.approx(9.67)

    def test_rejects_non_callable(self, paper_decay):
        from repro.core.errors import ParameterError

        with pytest.raises(ParameterError):
            DecayedAlgebraic(paper_decay, expression=3)  # type: ignore[arg-type]


class TestMerge:
    def test_merge_equals_concatenation(self, paper_decay):
        left = DecayedSum(paper_decay)
        right = DecayedSum(paper_decay)
        whole = DecayedSum(paper_decay)
        for index, (t, v) in enumerate(PAPER_STREAM):
            (left if index % 2 == 0 else right).update(t, v)
            whole.update(t, v)
        left.merge(right)
        assert left.query(110.0) == pytest.approx(whole.query(110.0))
        assert left.items_processed == whole.items_processed

    def test_merge_requires_same_type(self, paper_decay):
        with pytest.raises(MergeError):
            _fill(DecayedSum(paper_decay)).merge(_fill(DecayedCount(paper_decay)))

    def test_merge_requires_same_decay(self, paper_decay):
        other_decay = ForwardDecay(PolynomialG(3.0), landmark=100.0)
        with pytest.raises(MergeError):
            _fill(DecayedSum(paper_decay)).merge(_fill(DecayedSum(other_decay)))

    def test_merge_requires_same_landmark(self, paper_decay):
        other = ForwardDecay(PolynomialG(2.0), landmark=99.0)
        with pytest.raises(MergeError):
            _fill(DecayedSum(paper_decay)).merge(_fill(DecayedSum(other)))

    def test_algebraic_merge_requires_same_expression(self, paper_decay):
        left = _fill(DecayedAlgebraic(paper_decay, lambda v: v))
        right = _fill(DecayedAlgebraic(paper_decay, lambda v: v))
        with pytest.raises(MergeError):
            left.merge(right)  # different lambda objects


class TestExponentialRenormalization:
    """Section VI-A: long exponential streams must not overflow."""

    def test_long_stream_no_overflow(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        total = DecayedSum(decay)
        # Raw weights reach exp(50_000): hopeless without renormalization.
        for t in range(1, 50_001):
            total.update(float(t), 1.0)
        result = total.query(50_000.0)
        assert math.isfinite(result)
        # Geometric series: sum exp(-(t_max - t)) ~ 1/(1 - e^-1).
        assert result == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-6)

    def test_shifts_keep_the_closed_form_sum(self):
        # alpha * t reaches 2,000 > SHIFT_EXPONENT (~355): several shifts.
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        total = DecayedSum(decay)
        for t in range(1, 2_001):
            total.update(float(t), 1.0)
        assert total._engine.shifts > 0
        assert total.query(2_000.0) == pytest.approx(
            math.fsum(math.exp(t - 2_000.0) for t in range(1, 2_001)), rel=1e-12
        )

    def test_many_shifts_keep_the_closed_form_weighted_sum(self):
        # alpha * t reaches 10,000: one shift every ~710 items, and the
        # answer is still the closed form (§VI-A).
        alpha = 0.5
        decay = ForwardDecay(ExponentialG(alpha=alpha), landmark=0.0)
        total = DecayedSum(decay)
        for t in range(1, 20_001):
            total.update(float(t), float(t % 7 + 1))
        assert total._engine.shifts > 10
        exact = math.fsum(
            (t % 7 + 1) * math.exp(alpha * (t - 20_000.0)) for t in range(1, 20_001)
        )
        assert total.query(20_000.0) == pytest.approx(exact, rel=1e-12)

    def test_out_of_order_after_shift(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        shifted = DecayedSum(decay)
        times = [1.0, 400.0, 2.0, 800.0, 399.0, 799.5]  # old items after shifts
        for t in times:
            shifted.update(t, 1.0)
        assert shifted._engine.shifts == 2
        expected = math.fsum(math.exp(t - 800.0) for t in times)
        assert shifted.query(800.0) == pytest.approx(expected, rel=1e-12)

    def test_merge_with_different_internal_landmarks(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        left = DecayedSum(decay)
        right = DecayedSum(decay)
        for t in range(1, 1_001):
            left.update(float(t), 2.0)
        for t in range(1_001, 2_001):
            right.update(float(t), 2.0)
        assert left._engine.shifts > 0 and right._engine.shifts > 0
        assert left._engine.internal_landmark != right._engine.internal_landmark
        left.merge(right)
        expected = math.fsum(2.0 * math.exp(t - 2_000.0) for t in range(1, 2_001))
        assert left.query(2_000.0) == pytest.approx(expected, rel=1e-12)

    def test_merge_peer_ahead_of_self(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        behind = DecayedSum(decay)
        ahead = DecayedSum(decay)
        times = list(range(1, 11)) + list(range(1_990, 2_001))
        for t in times[:10]:
            behind.update(float(t), 1.0)
        for t in times[10:]:
            ahead.update(float(t), 1.0)
        assert behind._engine.shifts == 0 and ahead._engine.shifts > 0
        behind.merge(ahead)
        assert behind._engine.internal_landmark == ahead._engine.internal_landmark
        expected = math.fsum(math.exp(t - 2_000.0) for t in times)
        assert behind.query(2_000.0) == pytest.approx(expected, rel=1e-12)

    def test_a_query_past_the_float_range_reads_zero(self):
        # alpha * (t - L) = 800 at the query: the normalizer is past the
        # float range, and the answer (~e^-799) underflows to 0.0.
        total = DecayedSum(ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0))
        for t in range(1, 101):
            total.update(float(t), 1.0)
        assert total.query(80_000.0) == 0.0

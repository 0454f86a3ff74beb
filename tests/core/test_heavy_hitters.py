"""Unit tests for forward-decayed heavy hitters (Section IV-C, Theorem 2)."""

from __future__ import annotations

import math

import pytest

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, MergeError, ParameterError
from repro.core.functions import ExponentialG, PolynomialG
from repro.core.heavy_hitters import DecayedHeavyHitters
from repro.workloads.synthetic import zipf_stream
from tests.conftest import PAPER_QUERY_TIME, PAPER_STREAM


def _paper_summary(decay, epsilon=0.01):
    summary = DecayedHeavyHitters(decay, epsilon=epsilon)
    for t, v in PAPER_STREAM:
        summary.update(v, t)
    return summary


class TestExample3:
    """Example 3: phi = 0.2 heavy hitters are items 4, 6 and 8."""

    def test_heavy_hitters_identity(self, paper_decay):
        summary = _paper_summary(paper_decay)
        hitters = summary.heavy_hitters(0.2, PAPER_QUERY_TIME)
        assert [h.item for h in hitters] == [6, 8, 4]

    def test_decayed_counts_match_paper(self, paper_decay):
        summary = _paper_summary(paper_decay)
        assert summary.decayed_count(3, 110.0) == pytest.approx(0.09)
        assert summary.decayed_count(4, 110.0) == pytest.approx(0.41)
        assert summary.decayed_count(6, 110.0) == pytest.approx(0.64)
        assert summary.decayed_count(8, 110.0) == pytest.approx(0.49)

    def test_total_is_example_2_count(self, paper_decay):
        summary = _paper_summary(paper_decay)
        assert summary.decayed_total(110.0) == pytest.approx(1.63)

    def test_threshold_excludes_item_3(self, paper_decay):
        summary = _paper_summary(paper_decay)
        hitters = {h.item for h in summary.heavy_hitters(0.2, 110.0)}
        assert 3 not in hitters


class TestGuarantees:
    def test_no_false_negatives_on_skewed_stream(self):
        decay = ForwardDecay(PolynomialG(1.0), landmark=-1.0)
        stream = zipf_stream(5_000, num_values=500, exponent=1.5, seed=3)
        epsilon, phi = 0.01, 0.05
        summary = DecayedHeavyHitters(decay, epsilon=epsilon)
        exact: dict[int, float] = {}
        for t, v in stream:
            summary.update(v, t)
            exact[v] = exact.get(v, 0.0) + decay.static_weight(t)
        total = sum(exact.values())
        query_time = stream[-1][0]
        reported = {h.item for h in summary.heavy_hitters(phi, query_time)}
        for value, weight in exact.items():
            if weight >= phi * total:
                assert value in reported, f"missed true heavy hitter {value}"

    def test_estimates_within_epsilon(self):
        decay = ForwardDecay(PolynomialG(2.0), landmark=-1.0)
        stream = zipf_stream(3_000, num_values=300, exponent=1.3, seed=5)
        epsilon = 0.02
        summary = DecayedHeavyHitters(decay, epsilon=epsilon)
        exact: dict[int, float] = {}
        for t, v in stream:
            summary.update(v, t)
            exact[v] = exact.get(v, 0.0) + decay.static_weight(t)
        total = sum(exact.values())
        query_time = stream[-1][0]
        normalizer = decay.normalizer(query_time)
        for h in summary.top_k(20, query_time):
            true_count = exact.get(h.item, 0.0) / normalizer
            assert h.decayed_count >= true_count - 1e-9  # overestimate
            assert h.decayed_count - true_count <= epsilon * total / normalizer + 1e-9

    def test_count_argument_scales_weight(self, paper_decay):
        summary = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        summary.update("x", 105, count=3.0)
        single = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        for __ in range(3):
            single.update("x", 105)
        assert summary.decayed_count("x", 110.0) == pytest.approx(
            single.decayed_count("x", 110.0)
        )


class TestValidationAndMerge:
    def test_empty_queries_raise(self, paper_decay):
        summary = DecayedHeavyHitters(paper_decay)
        with pytest.raises(EmptySummaryError):
            summary.heavy_hitters(0.1)
        with pytest.raises(EmptySummaryError):
            summary.decayed_total()

    def test_bad_epsilon_rejected(self, paper_decay):
        with pytest.raises(ParameterError):
            DecayedHeavyHitters(paper_decay, epsilon=0.0)

    def test_negative_count_rejected(self, paper_decay):
        summary = DecayedHeavyHitters(paper_decay)
        with pytest.raises(ParameterError):
            summary.update("x", 105, count=-1.0)

    def test_merge_equals_concatenation(self, paper_decay):
        left = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        right = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        whole = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        for index, (t, v) in enumerate(PAPER_STREAM):
            (left if index % 2 else right).update(v, t)
            whole.update(v, t)
        left.merge(right)
        assert left.decayed_total(110.0) == pytest.approx(whole.decayed_total(110.0))
        assert {h.item for h in left.heavy_hitters(0.2, 110.0)} == {
            h.item for h in whole.heavy_hitters(0.2, 110.0)
        }

    def test_merge_epsilon_mismatch_rejected(self, paper_decay):
        left = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        right = DecayedHeavyHitters(paper_decay, epsilon=0.1)
        with pytest.raises(MergeError):
            left.merge(right)

    def test_merge_decay_mismatch_rejected(self, paper_decay):
        other = ForwardDecay(PolynomialG(3.0), landmark=100.0)
        left = DecayedHeavyHitters(paper_decay)
        right = DecayedHeavyHitters(other)
        with pytest.raises(MergeError):
            left.merge(right)


class TestExponentialDecayHH:
    def test_long_exponential_stream_is_finite_and_recent_biased(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        summary = DecayedHeavyHitters(decay, epsilon=0.01)
        # "old" appears 5000 times early; "new" 10 times at the end.
        for t in range(1, 5_001):
            summary.update("old", float(t))
        for t in range(5_001, 5_011):
            summary.update("new", float(t))
        query_time = 5_010.0
        old_count = summary.decayed_count("old", query_time)
        new_count = summary.decayed_count("new", query_time)
        assert math.isfinite(old_count) and math.isfinite(new_count)
        assert new_count > old_count  # recency dominates under exp decay

    def test_merge_after_renormalization(self):
        decay = ForwardDecay(ExponentialG(alpha=0.5), landmark=0.0)
        left = DecayedHeavyHitters(decay, epsilon=0.05)
        right = DecayedHeavyHitters(decay, epsilon=0.05)
        whole = DecayedHeavyHitters(decay, epsilon=0.05)
        for t in range(1, 2_001):
            target = left if t % 2 else right
            target.update(t % 7, float(t))
            whole.update(t % 7, float(t))
        left.merge(right)
        assert left.decayed_total(2_000.0) == pytest.approx(
            whole.decayed_total(2_000.0), rel=1e-6
        )

    def test_a_query_past_the_float_range_reads_zero(self):
        # alpha * (t - L) = 800 at the query: the normalizer is past the
        # float range, and every decayed count underflows to 0.0.
        decay = ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0)
        summary = DecayedHeavyHitters(decay, epsilon=0.1)
        for t in range(1, 101):
            summary.update(t % 3, float(t))
        assert summary.decayed_total(80_000.0) == 0.0
        assert summary.decayed_count(0, 80_000.0) == 0.0
        assert [h.decayed_count for h in summary.top_k(3, 80_000.0)] == [0.0] * 3

    def test_state_size_scales_with_epsilon(self, paper_decay):
        small = DecayedHeavyHitters(paper_decay, epsilon=0.1)
        large = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        stream = zipf_stream(2_000, num_values=1_000, seed=1)
        for t, v in stream:
            small.update(v, t + 101.0)
            large.update(v, t + 101.0)
        assert large.state_size_bytes() > 5 * small.state_size_bytes()

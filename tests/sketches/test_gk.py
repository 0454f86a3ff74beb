"""Unit tests for the weighted Greenwald-Khanna quantile summary."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import EmptySummaryError, MergeError, ParameterError
from repro.sketches.gk import GKSummary


def exact_weighted_quantile(pairs, phi):
    total = sum(w for __, w in pairs)
    running = 0.0
    for value, weight in sorted(pairs):
        running += weight
        if running >= phi * total:
            return value
    return max(v for v, __ in pairs)


class TestBasics:
    def test_exact_on_small_input(self):
        summary = GKSummary(epsilon=0.1)
        for value in [5.0, 1.0, 9.0, 3.0]:
            summary.update(value)
        assert summary.total_weight == pytest.approx(4.0)
        assert summary.quantile(0.0) == 1.0
        assert summary.quantile(1.0) == 9.0

    def test_handles_float_values(self):
        """The GK advantage over q-digest: no integer universe needed."""
        summary = GKSummary(epsilon=0.05)
        rng = random.Random(3)
        values = [rng.gauss(0.0, 1.0) for __ in range(5_000)]
        for value in values:
            summary.update(value)
        median = summary.quantile(0.5)
        assert -0.1 < median < 0.1

    def test_weighted_updates(self):
        summary = GKSummary(epsilon=0.05)
        summary.update(1.0, weight=1.0)
        summary.update(100.0, weight=99.0)
        assert summary.quantile(0.5) == 100.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            GKSummary(epsilon=0.0)
        with pytest.raises(ParameterError):
            GKSummary(epsilon=0.5)
        summary = GKSummary(epsilon=0.1)
        with pytest.raises(ParameterError):
            summary.update(float("nan"))
        with pytest.raises(ParameterError):
            summary.update(1.0, weight=0.0)
        with pytest.raises(ParameterError):
            summary.quantile(1.5)
        with pytest.raises(EmptySummaryError):
            summary.quantile(0.5)


class TestAccuracy:
    @pytest.mark.parametrize("epsilon", [0.1, 0.05, 0.02])
    def test_rank_error_bound(self, epsilon):
        summary = GKSummary(epsilon=epsilon)
        rng = random.Random(11)
        pairs = [(rng.uniform(0, 1000), rng.uniform(0.5, 2.0))
                 for __ in range(10_000)]
        for value, weight in pairs:
            summary.update(value, weight)
        total = summary.total_weight
        for phi in (0.1, 0.25, 0.5, 0.75, 0.9):
            answer = summary.quantile(phi)
            rank = sum(w for v, w in pairs if v <= answer)
            assert (phi - 3 * epsilon) * total <= rank <= (phi + 3 * epsilon) * total

    def test_space_sublinear(self):
        epsilon = 0.02
        summary = GKSummary(epsilon=epsilon)
        rng = random.Random(13)
        for __ in range(50_000):
            summary.update(rng.random())
        # Far fewer tuples than inputs; generous constant on O((1/eps) log(eps N)).
        assert len(summary) < 50_000 / 20
        assert len(summary) < 40 / epsilon

    def test_rank_bounds_bracket_truth(self):
        summary = GKSummary(epsilon=0.05)
        rng = random.Random(17)
        pairs = [(rng.uniform(0, 100), 1.0) for __ in range(2_000)]
        for value, weight in pairs:
            summary.update(value, weight)
        for probe in (10.0, 50.0, 90.0):
            low, high = summary.rank_bounds(probe)
            truth = sum(w for v, w in pairs if v <= probe)
            slack = 2 * summary.epsilon * summary.total_weight
            assert low - slack <= truth <= high + slack


class TestScaleAndMerge:
    def test_scale_preserves_quantiles(self):
        summary = GKSummary(epsilon=0.05)
        rng = random.Random(19)
        for __ in range(1_000):
            summary.update(rng.uniform(0, 10), rng.uniform(0.5, 2.0))
        before = summary.quantiles([0.25, 0.5, 0.75])
        summary.scale(1e-9)
        assert summary.quantiles([0.25, 0.5, 0.75]) == before

    def test_merge_approximates_union(self):
        left = GKSummary(epsilon=0.05)
        right = GKSummary(epsilon=0.05)
        rng = random.Random(23)
        pairs = [(rng.uniform(0, 100), 1.0) for __ in range(4_000)]
        for index, (value, weight) in enumerate(pairs):
            (left if index % 2 else right).update(value, weight)
        left.merge(right)
        assert left.total_weight == pytest.approx(4_000.0)
        for phi in (0.25, 0.5, 0.75):
            answer = left.quantile(phi)
            exact = exact_weighted_quantile(pairs, phi)
            assert abs(answer - exact) < 15.0  # 2*eps rank slack in value terms

    def test_merge_into_an_empty_summary_keeps_the_rank_bound(self):
        # The merge re-inserts the other's tuples, so the answer may move,
        # but only within eps_self + eps_other of the weighted rank.
        other = GKSummary(epsilon=0.05)
        rng = random.Random(29)
        pairs = [(rng.uniform(0, 1000), rng.uniform(0.5, 2.0))
                 for __ in range(4_000)]
        for value, weight in pairs:
            other.update(value, weight)
        summary = GKSummary(epsilon=0.05)
        summary.merge(other)
        total = sum(w for __, w in pairs)
        assert summary.total_weight == pytest.approx(total)
        for phi in (0.1, 0.25, 0.5, 0.75, 0.9):
            rank = sum(w for v, w in pairs if v <= summary.quantile(phi))
            assert abs(rank - phi * total) <= 2 * 0.05 * total

    def test_a_merge_drops_tuples_that_scale_to_zero(self):
        """A peer far behind in exponential decay merges with a factor that
        underflows; its tuples then carry no weight and are not inserted."""
        summary = GKSummary(epsilon=0.05)
        peer = GKSummary(epsilon=0.05)
        for value in range(1, 101):
            summary.update(float(value), 2.0)
            peer.update(float(value) + 0.5, 0.25)
        before = summary.quantiles([0.1, 0.5, 0.9])
        tuples = len(summary._tuples)
        summary.merge(peer, 1e-323)  # 2.0 * 1e-323 > 0, 0.25 * 1e-323 == 0
        assert len(summary._tuples) == tuples
        assert summary.total_weight == 200.0
        assert summary.quantiles([0.1, 0.5, 0.9]) == before

    def test_merge_type_mismatch(self):
        with pytest.raises(MergeError):
            GKSummary(epsilon=0.1).merge(object())  # type: ignore[arg-type]


class TestDecayedQuantilesGKBackend:
    def test_gk_backend_handles_floats(self):
        from repro.core.decay import ForwardDecay
        from repro.core.functions import PolynomialG
        from repro.core.quantiles import DecayedQuantiles

        decay = ForwardDecay(PolynomialG(1.0), landmark=-1.0)
        summary = DecayedQuantiles(decay, epsilon=0.05, backend="gk")
        rng = random.Random(29)
        for t in range(1, 3_001):
            summary.update(rng.gauss(100.0, 5.0), float(t))
        assert 95.0 < summary.median() < 105.0
        assert summary.universe_bits is None

    def test_gk_and_qdigest_medians_agree_on_a_packet_trace(self):
        """Theorem 3 takes any weighted quantile summary: on decayed
        packet lengths (catalogue 40 / 120 / 576 / 1500) the two backends
        report medians at most one catalogue step apart, and neither
        keeps anything near the input's size."""
        from repro.bench.runners import build_trace
        from repro.core.decay import ForwardDecay
        from repro.core.functions import PolynomialG
        from repro.core.quantiles import DecayedQuantiles

        decay = ForwardDecay(PolynomialG(2.0), landmark=-1.0)
        qdigest = DecayedQuantiles(decay, epsilon=0.02, universe_bits=11)
        gk = DecayedQuantiles(decay, epsilon=0.02, backend="gk")
        trace = build_trace(duration_sec=2.0, rate_per_sec=2_000, proto="tcp")
        for row in trace:
            qdigest.update(row[6], row[1])
            gk.update(row[6], row[1])
        position = {length: i for i, length in enumerate([40, 120, 576, 1500])}
        assert abs(position[qdigest.median()] - position[gk.median()]) <= 1
        for summary in (qdigest, gk):
            assert summary.state_size_bytes() < len(trace) * 2

    def test_merging_a_peer_far_behind_in_decay_keeps_the_newer_answer(self):
        from repro.core.decay import ForwardDecay
        from repro.core.functions import ExponentialG
        from repro.core.quantiles import DecayedQuantiles

        decay = ForwardDecay(ExponentialG(1.0))
        recent = DecayedQuantiles(decay, epsilon=0.05, backend="gk")
        stale = DecayedQuantiles(decay, epsilon=0.05, backend="gk")
        for value in range(1, 41):
            recent.update(value, 3_000.0)
            stale.update(value + 500, 10.0)
        before = recent.quantiles([0.1, 0.5, 0.9])
        recent.merge(stale)  # factor exp(10 - 3,000) underflows to 0.0
        assert recent.quantiles([0.1, 0.5, 0.9]) == before
        assert recent.items_processed == 80

    def test_backend_mismatch_rejected_on_merge(self):
        from repro.core.decay import ForwardDecay
        from repro.core.functions import PolynomialG
        from repro.core.quantiles import DecayedQuantiles

        decay = ForwardDecay(PolynomialG(1.0), landmark=-1.0)
        gk = DecayedQuantiles(decay, backend="gk")
        qd = DecayedQuantiles(decay, backend="qdigest")
        gk.update(1, 1.0)
        qd.update(1, 1.0)
        with pytest.raises(MergeError):
            gk.merge(qd)

    def test_unknown_backend_rejected(self):
        from repro.core.decay import ForwardDecay
        from repro.core.functions import PolynomialG
        from repro.core.quantiles import DecayedQuantiles

        decay = ForwardDecay(PolynomialG(1.0), landmark=-1.0)
        with pytest.raises(ParameterError):
            DecayedQuantiles(decay, backend="tdigest")

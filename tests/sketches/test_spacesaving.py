"""Unit tests for the SpaceSaving summaries (both variants)."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import MergeError, ParameterError
from repro.sketches.spacesaving import (
    UnarySpaceSaving,
    WeightedSpaceSaving,
    capacity_for_epsilon,
    exact_heavy_hitters,
)
from repro.workloads.synthetic import bursty_stream, zipf_stream

VARIANTS = [UnarySpaceSaving, WeightedSpaceSaving]


def _fill_unary(summary, items):
    for item in items:
        summary.update(item)
    return summary


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", VARIANTS)
    def test_small_stream_exact(self, cls):
        summary = cls(capacity=10)
        for item in ["a", "b", "a", "c", "a", "b"]:
            summary.update(item)
        assert summary.estimate("a") == 3
        assert summary.estimate("b") == 2
        assert summary.estimate("c") == 1
        assert summary.estimate("zzz") == 0
        assert summary.total_weight == 6
        assert len(summary) == 3

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_capacity_never_exceeded(self, cls):
        summary = cls(capacity=5)
        for item in range(1_000):
            summary.update(item)
        assert len(summary) == 5

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_overestimate_with_bounded_error(self, cls):
        """true <= estimate <= true + eps * W on a skewed stream."""
        epsilon = 0.02
        summary = cls.from_epsilon(epsilon)
        stream = [v for __, v in zipf_stream(20_000, num_values=2_000, seed=8)]
        truth: dict[int, int] = {}
        for item in stream:
            summary.update(item)
            truth[item] = truth.get(item, 0) + 1
        total = len(stream)
        for counter in summary.counters():
            true_count = truth.get(counter.item, 0)
            assert counter.count >= true_count
            assert counter.count - true_count <= epsilon * total + 1e-9
            assert counter.error <= epsilon * total + 1e-9

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_no_false_negative_heavy_hitters(self, cls):
        epsilon, phi = 0.01, 0.05
        summary = cls.from_epsilon(epsilon)
        stream = [v for __, v in zipf_stream(30_000, num_values=3_000,
                                             exponent=1.4, seed=10)]
        for item in stream:
            summary.update(item)
        truth = exact_heavy_hitters(((v, 1.0) for v in stream), phi)
        reported = {c.item for c in summary.heavy_hitters(phi)}
        for item, __ in truth:
            assert item in reported

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_guaranteed_weight_is_lower_bound(self, cls):
        summary = cls.from_epsilon(0.05)
        stream = [v for __, v in zipf_stream(5_000, num_values=500, seed=12)]
        truth: dict[int, int] = {}
        for item in stream:
            summary.update(item)
            truth[item] = truth.get(item, 0) + 1
        for counter in summary.counters():
            assert summary.guaranteed_weight(counter.item) <= truth[counter.item]

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_top_k_sorted_descending(self, cls):
        summary = cls(capacity=50)
        for item in [v for __, v in zipf_stream(2_000, num_values=100, seed=2)]:
            summary.update(item)
        top = summary.top_k(10)
        counts = [c.count for c in top]
        assert counts == sorted(counts, reverse=True)
        assert len(top) == 10

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_burst_eviction_stress(self, cls):
        summary = cls(capacity=4)
        for __, v in bursty_stream(2_000, num_values=50, burst_length=25, seed=3):
            summary.update(v)
        assert len(summary) == 4
        assert summary.total_weight == 2_000

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_phi_validation(self, cls):
        summary = cls(capacity=4)
        summary.update("a")
        with pytest.raises(ParameterError):
            summary.heavy_hitters(0.0)
        with pytest.raises(ParameterError):
            summary.heavy_hitters(1.5)

    def test_capacity_for_epsilon(self):
        assert capacity_for_epsilon(0.1) == 10
        assert capacity_for_epsilon(0.013) == 77
        with pytest.raises(ParameterError):
            capacity_for_epsilon(0.0)

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_rejects_bad_capacity(self, cls):
        with pytest.raises(ParameterError):
            cls(capacity=0)


class TestWeighted:
    def test_weighted_updates_accumulate(self):
        summary = WeightedSpaceSaving(capacity=4)
        summary.update("a", 2.5)
        summary.update("a", 0.5)
        assert summary.estimate("a") == pytest.approx(3.0)
        assert summary.total_weight == pytest.approx(3.0)

    def test_zero_weight_is_noop(self):
        summary = WeightedSpaceSaving(capacity=4)
        summary.update("a", 0.0)
        assert len(summary) == 0
        assert summary.total_weight == 0.0

    def test_negative_weight_rejected(self):
        summary = WeightedSpaceSaving(capacity=4)
        with pytest.raises(ParameterError):
            summary.update("a", -1.0)

    def test_weighted_error_bound(self):
        epsilon = 0.05
        rng = random.Random(4)
        summary = WeightedSpaceSaving.from_epsilon(epsilon)
        truth: dict[int, float] = {}
        total = 0.0
        for __ in range(10_000):
            item = rng.randrange(200)
            weight = rng.uniform(0.1, 5.0)
            summary.update(item, weight)
            truth[item] = truth.get(item, 0.0) + weight
            total += weight
        for counter in summary.counters():
            true_weight = truth.get(counter.item, 0.0)
            assert counter.count >= true_weight - 1e-6
            assert counter.count - true_weight <= epsilon * total + 1e-6

    def test_scale_preserves_relative_order_and_total(self):
        summary = WeightedSpaceSaving(capacity=8)
        for item, weight in [("a", 5.0), ("b", 3.0), ("c", 1.0)]:
            summary.update(item, weight)
        summary.scale(0.5)
        assert summary.total_weight == pytest.approx(4.5)
        assert summary.estimate("a") == pytest.approx(2.5)
        top = summary.top_k(3)
        assert [c.item for c in top] == ["a", "b", "c"]

    def test_scale_rejects_non_positive(self):
        summary = WeightedSpaceSaving(capacity=2)
        with pytest.raises(ParameterError):
            summary.scale(0.0)

    def test_heap_compaction_under_repeated_updates(self):
        summary = WeightedSpaceSaving(capacity=4)
        for __ in range(10_000):
            summary.update("hot", 1.0)
        assert summary.estimate("hot") == pytest.approx(10_000.0)
        # One heap entry per counter: a hit pushes nothing to compact.
        assert len(summary._heap) == len(summary._counts) == 1
        for item in "abcdefgh" * 500:
            summary.update(item, 2.0)
            summary.update("hot", 1.0)
        assert len(summary._heap) == len(summary._counts) == summary.capacity


class TestUnary:
    def test_rejects_non_unit_weight(self):
        summary = UnarySpaceSaving(capacity=4)
        with pytest.raises(ParameterError):
            summary.update("a", 2.0)

    def test_bucket_structure_integrity(self):
        summary = UnarySpaceSaving(capacity=3)
        for item in ["a", "a", "a", "b", "b", "c", "d", "d"]:
            summary.update(item)
        # Walk the bucket list and check counts ascend and match lookups.
        node = summary._head
        seen = {}
        previous_count = 0
        while node is not None:
            assert node.count > previous_count
            assert node.items, "empty bucket left linked"
            for item in node.items:
                seen[item] = node.count
            previous_count = node.count
            node = node.next
        assert len(seen) == len(summary)
        for counter in summary.counters():
            assert seen[counter.item] == counter.count


class TestMerge:
    @pytest.mark.parametrize("cls", VARIANTS)
    def test_merge_two_sites_error_bound(self, cls):
        epsilon = 0.02
        left = cls.from_epsilon(epsilon)
        right = cls.from_epsilon(epsilon)
        truth: dict[int, int] = {}
        stream = [v for __, v in zipf_stream(20_000, num_values=1_000, seed=6)]
        for index, item in enumerate(stream):
            (left if index % 2 else right).update(item)
            truth[item] = truth.get(item, 0) + 1
        left.merge(right)
        total = len(stream)
        assert left.total_weight == pytest.approx(total)
        # Two-sided mergeable-summaries bound.
        for counter in left.counters():
            true_count = truth.get(counter.item, 0)
            assert abs(counter.count - true_count) <= 2 * epsilon * total + 1e-9

    @pytest.mark.parametrize("cls", VARIANTS)
    def test_merge_capacity_mismatch(self, cls):
        with pytest.raises(MergeError):
            cls(capacity=4).merge(cls(capacity=8))

    def test_merge_variant_mismatch(self):
        with pytest.raises(MergeError):
            WeightedSpaceSaving(4).merge(UnarySpaceSaving(4))  # type: ignore[arg-type]

    def test_weighted_merge_with_factor(self):
        left = WeightedSpaceSaving(capacity=8)
        right = WeightedSpaceSaving(capacity=8)
        left.update("a", 4.0)
        right.update("a", 2.0)
        right.update("b", 6.0)
        left.merge(right, factor=0.5)
        assert left.estimate("a") == pytest.approx(5.0)
        assert left.estimate("b") == pytest.approx(3.0)
        assert left.total_weight == pytest.approx(8.0)


class TestBatchUpdates:
    def test_weighted_update_many_matches_loop_bit_for_bit(self):
        rng = random.Random(21)
        items = [rng.randrange(400) for __ in range(6_000)]
        weights = [rng.uniform(0.1, 5.0) for __ in range(6_000)]
        looped = WeightedSpaceSaving(capacity=32)
        for item, weight in zip(items, weights):
            looped.update(item, weight)
        batched = WeightedSpaceSaving(capacity=32)  # evictions + compaction
        batched.update_many(items, weights)
        assert batched._counts == looped._counts
        assert batched._errors == looped._errors
        assert batched.total_weight == looped.total_weight

    def test_weighted_update_many_unit_weights(self):
        items = [v for __, v in zipf_stream(3_000, num_values=300, seed=6)]
        looped = WeightedSpaceSaving(capacity=16)
        for item in items:
            looped.update(item)
        batched = WeightedSpaceSaving(capacity=16)
        batched.update_many(items)
        assert batched._counts == looped._counts

    def test_weighted_update_many_bad_weight_keeps_prefix(self):
        summary = WeightedSpaceSaving(capacity=8)
        with pytest.raises(ParameterError):
            summary.update_many(["a", "b"], [2.0, -1.0])
        assert summary.total_weight == 2.0
        assert summary.estimate("a") == 2.0

    def test_weighted_update_many_length_mismatch(self):
        with pytest.raises(ParameterError):
            WeightedSpaceSaving(capacity=8).update_many(["a"], [1.0, 2.0])

    def test_unary_update_many_matches_loop(self):
        items = [v for __, v in zipf_stream(5_000, num_values=500,
                                            exponent=1.3, seed=13)]
        looped = UnarySpaceSaving(capacity=24)
        for item in items:
            looped.update(item)
        batched = UnarySpaceSaving(capacity=24)
        batched.update_many(items)
        assert {c.item: (c.count, c.error) for c in batched.counters()} == {
            c.item: (c.count, c.error) for c in looped.counters()
        }
        assert batched.total_weight == looped.total_weight

    def test_unary_update_many_rejects_non_unit_weights(self):
        summary = UnarySpaceSaving(capacity=8)
        with pytest.raises(ParameterError, match="unit weights"):
            summary.update_many(["a", "b"], [1.0, 2.0])
        # The unit-weight prefix was applied, like the per-item loop.
        assert summary.total_weight == 1.0

    def test_unary_update_many_explicit_unit_weights(self):
        summary = UnarySpaceSaving(capacity=8)
        summary.update_many(["a", "b", "a"], [1.0, 1.0, 1.0])
        assert summary.estimate("a") == 2.0

    def test_unary_update_many_length_mismatch(self):
        with pytest.raises(ParameterError, match="lengths differ"):
            UnarySpaceSaving(capacity=8).update_many(["a", "b"], [1.0])

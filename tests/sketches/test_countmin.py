"""Unit tests for the weighted Count-Min sketch."""

from __future__ import annotations

import random

import pytest

from repro.core.errors import MergeError, ParameterError
from repro.core.protocol import StreamSummary
from repro.sketches.countmin import CountMinSketch
from repro.sketches.kmv import hash_to_unit
from repro.workloads.synthetic import zipf_stream
from tests.sketches.test_kmv import with_seed


class TestCountMin:
    def test_point_estimates_upper_bound_truth(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01, seed=1)
        truth: dict[int, float] = {}
        rng = random.Random(2)
        for __ in range(5_000):
            item = rng.randrange(500)
            weight = rng.uniform(0.1, 3.0)
            sketch.update(item, weight)
            truth[item] = truth.get(item, 0.0) + weight
        for item, true_weight in truth.items():
            estimate = sketch.estimate(item)
            assert estimate >= true_weight - 1e-9
            assert estimate - true_weight <= sketch.epsilon * sketch.total_weight * 3

    def test_unseen_item_estimate_small(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        for item in range(100):
            sketch.update(item, 1.0)
        assert sketch.estimate("never") <= sketch.epsilon * sketch.total_weight * 3

    def test_dimensions_from_parameters(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.001)
        assert sketch.width >= 272  # e / 0.01
        assert sketch.depth >= 6    # ln(1000) ~ 6.9 -> ceil 7

    def test_zero_weight_noop(self):
        sketch = CountMinSketch()
        sketch.update("a", 0.0)
        assert sketch.total_weight == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            CountMinSketch(epsilon=0.0)
        with pytest.raises(ParameterError):
            CountMinSketch(delta=1.0)
        sketch = CountMinSketch()
        with pytest.raises(ParameterError):
            sketch.update("a", -1.0)
        with pytest.raises(ParameterError):
            sketch.scale(0.0)

    def test_scale(self):
        sketch = CountMinSketch(epsilon=0.05, seed=3)
        sketch.update("x", 10.0)
        sketch.scale(0.1)
        assert sketch.estimate("x") == pytest.approx(1.0)
        assert sketch.total_weight == pytest.approx(1.0)

    def test_merge_equals_union(self):
        left = CountMinSketch(epsilon=0.02, seed=4)
        right = CountMinSketch(epsilon=0.02, seed=4)
        union = CountMinSketch(epsilon=0.02, seed=4)
        rng = random.Random(5)
        for index in range(2_000):
            item = rng.randrange(100)
            (left if index % 2 else right).update(item, 1.0)
            union.update(item, 1.0)
        left.merge(right)
        for item in range(100):
            assert left.estimate(item) == pytest.approx(union.estimate(item))

    def test_merge_parameter_mismatch(self):
        with pytest.raises(MergeError):
            CountMinSketch(epsilon=0.1).merge(CountMinSketch(epsilon=0.02))
        with pytest.raises(MergeError):
            CountMinSketch(seed=1).merge(CountMinSketch(seed=2))

    def test_state_size(self):
        sketch = CountMinSketch(epsilon=0.1, delta=0.1)
        assert sketch.state_size_bytes() == 8 * sketch.width * sketch.depth


class TestBatchUpdates:
    def test_update_many_matches_loop_bit_for_bit(self):
        rng = random.Random(11)
        items = [rng.randrange(300) for __ in range(4_000)]
        weights = [rng.uniform(0.1, 3.0) for __ in range(4_000)]
        looped = CountMinSketch(epsilon=0.02, delta=0.01, seed=3)
        for item, weight in zip(items, weights):
            looped.update(item, weight)
        batched = CountMinSketch(epsilon=0.02, delta=0.01, seed=3)
        batched.update_many(items, weights)
        assert batched._rows == looped._rows
        assert batched.total_weight == looped.total_weight

    def test_update_many_unit_weights(self):
        items = [v for __, v in zipf_stream(2_000, num_values=100, seed=5)]
        looped = CountMinSketch(epsilon=0.02, seed=2)
        for item in items:
            looped.update(item)
        batched = CountMinSketch(epsilon=0.02, seed=2)
        batched.update_many(items)
        assert batched._rows == looped._rows

    def test_update_many_length_mismatch(self):
        with pytest.raises(ParameterError):
            CountMinSketch().update_many([1, 2, 3], [1.0])

    def test_update_many_bad_weight_keeps_prefix_total(self):
        # A mid-batch bad weight aborts like the per-item loop would: the
        # prefix is applied and the running total stays consistent.
        sketch = CountMinSketch(seed=1)
        with pytest.raises(ParameterError):
            sketch.update_many(["a", "b", "c"], [1.0, -1.0, 1.0])
        assert sketch.total_weight == 1.0
        assert sketch.estimate("a") == 1.0

    def test_update_many_skips_zero_weights(self):
        sketch = CountMinSketch(seed=1)
        sketch.update_many(["a", "b"], [0.0, 2.0])
        assert sketch.total_weight == 2.0


class TestSeedRange:
    """Row ``r`` hashes with the BLAKE2 key ``seed * 1,000,003 + r``, so
    every such key must lie in ``[0, 2**64)``: a seed that breaks that
    fails when the sketch is built, not with an ``OverflowError`` on its
    first update."""

    @pytest.mark.parametrize("seed", [-1, 2**50, 2**64, 0.5])
    def test_out_of_range_seed_fails_at_construction(self, seed):
        with pytest.raises(ParameterError, match=r"must be an int in \[0, "):
            CountMinSketch(seed=seed)

    def test_the_bound_is_the_last_row_key(self):
        sketch = CountMinSketch(delta=0.01)  # depth 5
        top = ((1 << 64) - sketch.depth) // 1_000_003
        assert top * 1_000_003 + sketch.depth - 1 < 1 << 64
        CountMinSketch(delta=0.01, seed=top).update("x")
        with pytest.raises(ParameterError, match=f"{top + 1:,}"):
            CountMinSketch(delta=0.01, seed=top + 1)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_in_range_seeds_hash_as_before(self, seed):
        sketch = CountMinSketch(epsilon=0.05, delta=0.01, seed=seed)
        for item in ("a", 1, (2, "b")):
            assert sketch._columns(item) == [
                int(hash_to_unit(item, seed=seed * 1_000_003 + row) * sketch.width)
                for row in range(sketch.depth)
            ]

    def test_a_buffer_carrying_one_is_refused(self):
        summary = CountMinSketch(seed=3)
        summary.update("a")
        assert StreamSummary.from_bytes(with_seed(summary, 3)).to_bytes() == (
            summary.to_bytes()
        )
        for seed in (-1, 2**50):
            with pytest.raises(ParameterError, match=r"must be an int in \[0, "):
                StreamSummary.from_bytes(with_seed(summary, seed))

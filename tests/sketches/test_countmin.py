"""Unit tests for the weighted Count-Min sketch and its HH wrapper."""

from __future__ import annotations

import random

import pytest

from repro.bench.runners import build_trace
from repro.core.errors import MergeError, ParameterError
from repro.core.protocol import StreamSummary
from repro.sketches.countmin import CountMinHeavyHitters, CountMinSketch
from repro.sketches.kmv import hash_to_unit
from repro.sketches.spacesaving import WeightedSpaceSaving
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


class TestCountMinHeavyHitters:
    def test_finds_true_heavy_hitters(self):
        summary = CountMinHeavyHitters(epsilon=0.005, delta=0.01,
                                       phi_track=0.01, seed=6)
        stream = [v for __, v in zipf_stream(20_000, num_values=1_000,
                                             exponent=1.4, seed=7)]
        truth: dict[int, int] = {}
        for item in stream:
            summary.update(item)
            truth[item] = truth.get(item, 0) + 1
        phi = 0.05
        expected = {v for v, c in truth.items() if c >= phi * len(stream)}
        reported = {item for item, __ in summary.heavy_hitters(phi)}
        assert expected <= reported

    def test_phi_below_tracking_threshold_rejected(self):
        summary = CountMinHeavyHitters(phi_track=0.01)
        summary.update("a")
        with pytest.raises(ParameterError):
            summary.heavy_hitters(0.001)

    def test_weighted_updates(self):
        summary = CountMinHeavyHitters(epsilon=0.01, phi_track=0.05, seed=8)
        summary.update("whale", 1_000.0)
        for item in range(50):
            summary.update(item, 1.0)
        ranked = summary.heavy_hitters(0.5)
        assert ranked[0][0] == "whale"

    def test_state_includes_grid(self):
        summary = CountMinHeavyHitters(epsilon=0.01)
        summary.update("a")
        assert summary.state_size_bytes() >= summary.sketch.state_size_bytes()

    def test_agrees_with_spacesaving_on_a_decayed_packet_trace(self):
        """Theorem 2 takes any weighted HH substrate: on forward-decayed
        destinations both find the same top three, and SpaceSaving's
        counters are a fraction of the Count-Min grid (Fig. 4(c)'s axis)."""
        trace = build_trace(duration_sec=2.0, rate_per_sec=2_000, proto="tcp")
        spacesaving = WeightedSpaceSaving.from_epsilon(0.005)
        countmin = CountMinHeavyHitters(
            epsilon=0.005, delta=0.01, phi_track=0.01, seed=5
        )
        for row in trace:
            weight = (row[1] % 60.0) ** 2 + 1.0
            spacesaving.update(row[3], weight)
            countmin.update(row[3], weight)
        ss_top = [c.item for c in spacesaving.heavy_hitters(0.02)[:3]]
        cm_top = [item for item, __ in countmin.heavy_hitters(0.02)[:3]]
        assert ss_top[0] == cm_top[0]
        assert set(ss_top) == set(cm_top)
        assert spacesaving.state_size_bytes() < countmin.state_size_bytes() / 4


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

    def test_heavy_hitters_batch_matches_loop(self):
        stream = [v for __, v in zipf_stream(3_000, num_values=200,
                                             exponent=1.4, seed=9)]
        looped = CountMinHeavyHitters(epsilon=0.02, phi_track=0.01, seed=4)
        for item in stream:
            looped.update(item)
        batched = CountMinHeavyHitters(epsilon=0.02, phi_track=0.01, seed=4)
        batched.update_many(stream)
        assert batched.heavy_hitters(0.05) == looped.heavy_hitters(0.05)


class TestSeedRange:
    """Row ``r`` hashes with the BLAKE2 key ``seed * 1,000,003 + r``, so
    every such key must lie in ``[0, 2**64)``: a seed that breaks that
    fails when the sketch is built, not with an ``OverflowError`` on its
    first update."""

    @pytest.mark.parametrize("seed", [-1, 2**50, 2**64, 0.5])
    def test_out_of_range_seed_fails_at_construction(self, seed):
        for build in (CountMinSketch, CountMinHeavyHitters):
            with pytest.raises(ParameterError, match=r"must be an int in \[0, "):
                build(seed=seed)

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

    @pytest.mark.parametrize("build", [CountMinSketch, CountMinHeavyHitters])
    def test_a_buffer_carrying_one_is_refused(self, build):
        summary = build(seed=3)
        summary.update("a")
        assert StreamSummary.from_bytes(with_seed(summary, 3)).to_bytes() == (
            summary.to_bytes()
        )
        for seed in (-1, 2**50):
            with pytest.raises(ParameterError, match=r"must be an int in \[0, "):
                StreamSummary.from_bytes(with_seed(summary, seed))

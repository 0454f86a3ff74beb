"""Unit tests for the KMV distinct-count sketch."""

from __future__ import annotations

import pytest

from repro.core.errors import MergeError, ParameterError
from repro.core.protocol import StreamSummary
from repro.core.registry import get_summary
from repro.core.tree import pack_tree
from repro.sketches.dominance import DominanceNormEstimator
from repro.sketches.kmv import KMVSketch, hash_to_unit


class TestHashing:
    def test_deterministic(self):
        assert hash_to_unit("abc", 0) == hash_to_unit("abc", 0)

    def test_seed_changes_hash(self):
        assert hash_to_unit("abc", 0) != hash_to_unit("abc", 1)

    def test_range(self):
        for item in range(1_000):
            value = hash_to_unit(item)
            assert 0.0 <= value < 1.0


class TestEqualSpellings:
    """Items a dict holds as one are one item: a KMV hashes an item's
    identity bytes, not its ``repr``."""

    SPELLINGS = [1, 1.0, True, 0.0, -0.0]

    def test_equal_items_are_counted_once(self):
        sketch = KMVSketch(k=64, seed=7)
        for item in self.SPELLINGS:
            sketch.update(item)
        assert sketch.estimate() == 2.0

    def test_the_decayed_distinct_count_agrees_with_the_exact_one(self):
        approx = get_summary("decayed_distinct_count").factory()
        exact = get_summary("exact_decayed_distinct").factory()
        for item in self.SPELLINGS:
            approx.update(item, 1.0)
            exact.update(item, 1.0)
        assert exact.query() == 2.0
        assert 2.0 <= approx.query() <= 2.0 * (1 + approx.epsilon)

    def test_every_nan_is_one_item_to_a_sketch_but_not_to_a_dict(self):
        # group_id names every NaN alike, so the sketches count one; the
        # exact count's dict finds a NaN only by identity, so it keeps each
        # NaN object apart (DESIGN §5.1).
        nans = [float("nan") for _ in range(3)]
        sketch = KMVSketch(k=64, seed=7)
        approx = get_summary("decayed_distinct_count").factory()
        exact = get_summary("exact_decayed_distinct").factory()
        for item in nans:
            sketch.update(item)
            approx.update(item, 1.0)
            exact.update(item, 1.0)
        assert sketch.estimate() == 1.0
        assert 1.0 <= approx.query() <= 1.0 + approx.epsilon
        assert exact.query() == 3.0

    def test_a_tuple_is_not_its_one_part(self):
        sketch = KMVSketch(k=64, seed=7)
        for item in ("a", ("a",), ("a", 1), (1, "a"), ("a", "b")):
            sketch.update(item)
        assert sketch.estimate() == 5.0


class TestKMV:
    def test_exact_below_k(self):
        sketch = KMVSketch(k=64)
        for item in range(40):
            sketch.update(item)
        assert sketch.is_exact()
        assert sketch.estimate() == 40.0

    def test_duplicates_free(self):
        sketch = KMVSketch(k=64)
        for __ in range(100):
            sketch.update("same")
        assert sketch.estimate() == 1.0

    def test_estimate_accuracy(self):
        sketch = KMVSketch(k=512)
        true_count = 20_000
        for item in range(true_count):
            sketch.update(item)
        assert not sketch.is_exact()
        assert sketch.estimate() == pytest.approx(true_count, rel=0.15)

    def test_retains_k_smallest(self):
        sketch = KMVSketch(k=8)
        for item in range(1_000):
            sketch.update(item)
        assert len(sketch) == 8
        retained = sorted(sketch.values())
        all_hashes = sorted(hash_to_unit(item, 0) for item in range(1_000))
        assert retained == all_hashes[:8]

    def test_rejects_tiny_k(self):
        with pytest.raises(ParameterError):
            KMVSketch(k=1)

    def test_merge_equals_union(self):
        left = KMVSketch(k=32)
        right = KMVSketch(k=32)
        union = KMVSketch(k=32)
        for item in range(500):
            (left if item % 2 else right).update(item)
            union.update(item)
        left.merge(right)
        assert sorted(left.values()) == sorted(union.values())
        assert left.estimate() == union.estimate()

    def test_merge_overlapping_sets(self):
        left = KMVSketch(k=128)
        right = KMVSketch(k=128)
        for item in range(300):
            left.update(item)
        for item in range(150, 450):
            right.update(item)
        left.merge(right)
        assert left.estimate() == pytest.approx(450, rel=0.25)

    def test_merge_parameter_mismatch(self):
        with pytest.raises(MergeError):
            KMVSketch(k=16).merge(KMVSketch(k=32))
        with pytest.raises(MergeError):
            KMVSketch(k=16, seed=0).merge(KMVSketch(k=16, seed=1))

    def test_copy_is_independent(self):
        sketch = KMVSketch(k=16)
        sketch.update("a")
        clone = sketch.copy()
        clone.update("b")
        assert len(sketch) == 1
        assert len(clone) == 2

    def test_state_size(self):
        sketch = KMVSketch(k=16)
        for item in range(10):
            sketch.update(item)
        assert sketch.state_size_bytes() == 80


def with_seed(summary, seed) -> bytes:
    """``summary``'s buffer with the hash seed in its payload (or in its
    inner ``sketch``'s) replaced — a hostile but well-framed buffer."""
    buffer = summary.to_bytes()
    head = buffer[: 2 + buffer[1]]  # version, name length, registry name
    payload = summary._state_payload()
    payload.get("sketch", payload)["seed"] = seed
    return head + pack_tree(payload)


class TestSeedRange:
    """A seed keys BLAKE2 as 8 bytes: outside ``[0, 2**64)`` the sketch
    refuses it when built, not with an ``OverflowError`` on first use."""

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, "7", None])
    def test_out_of_range_seed_fails_at_construction(self, seed):
        in_range = r"seed must be an int in \[0, 2\*\*64\)"
        with pytest.raises(ParameterError, match=in_range):
            KMVSketch(seed=seed)
        with pytest.raises(ParameterError, match=in_range):
            DominanceNormEstimator(seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
    def test_every_in_range_seed_hashes_as_before(self, seed):
        sketch = KMVSketch(k=8, seed=seed)
        for item in range(100):
            sketch.update(item)
        assert sorted(sketch.values()) == sorted(
            hash_to_unit(item, seed) for item in range(100)
        )[:8]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_a_buffer_carrying_one_is_refused(self, seed):
        sketch = KMVSketch(k=8, seed=3)
        sketch.update("a")
        assert StreamSummary.from_bytes(with_seed(sketch, 3)).to_bytes() == (
            sketch.to_bytes()
        )
        with pytest.raises(ParameterError, match=r"\[0, 2\*\*64\)"):
            StreamSummary.from_bytes(with_seed(sketch, seed))

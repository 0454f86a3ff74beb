"""Unit tests for checkpoint/restore through the one summary codec,
``to_bytes`` / ``from_bytes``."""

from __future__ import annotations

import math

import pytest

from repro.core.aggregates import (
    DecayedAverage,
    DecayedCount,
    DecayedMax,
    DecayedMin,
    DecayedSum,
    DecayedVariance,
)
from repro.core.decay import ForwardDecay
from repro.core.distinct import ExactDecayedDistinct
from repro.core.errors import ParameterError
from repro.core.functions import (
    ExponentialG,
    GeneralPolynomialG,
    LogarithmicG,
    PolynomialG,
)
from repro.core.heavy_hitters import DecayedHeavyHitters
from repro.core.protocol import StreamSummary, dump_decay, load_decay
from repro.core.quantiles import DecayedQuantiles
from repro.core.tree import pack_tree, unpack_tree
from tests.conftest import PAPER_STREAM
from tests.sampling.test_sampler_buffers import buffer


def roundtrip(summary):
    """to_bytes -> from_bytes, dispatching on the buffer's registry name."""
    return StreamSummary.from_bytes(summary.to_bytes())


class TestDecayRoundTrip:
    @pytest.mark.parametrize(
        "g",
        [
            PolynomialG(2.5),
            ExponentialG(0.3),
            GeneralPolynomialG((1.0, 0.0, 2.0)),
            LogarithmicG(scale=4.0),
        ],
        ids=["poly", "exp", "genpoly", "log"],
    )
    def test_functions_round_trip(self, g):
        decay = ForwardDecay(g, landmark=42.0)
        restored = load_decay(unpack_tree(pack_tree(dump_decay(decay))))
        assert restored == decay
        assert restored.weight(50.0, 60.0) == decay.weight(50.0, 60.0)

    def test_custom_function_rejected(self):
        class CustomG:
            def __call__(self, n):
                return 1.0

        with pytest.raises(ParameterError):
            dump_decay(ForwardDecay(CustomG(), landmark=0.0))


class TestAggregateCheckpoints:
    @pytest.mark.parametrize(
        "cls",
        [DecayedCount, DecayedSum, DecayedAverage, DecayedVariance,
         DecayedMin, DecayedMax],
    )
    def test_round_trip_preserves_answers(self, cls, paper_decay):
        summary = cls(paper_decay)
        for t, v in PAPER_STREAM:
            summary.update(t, v)
        restored = roundtrip(summary)
        assert restored.query(110.0) == pytest.approx(summary.query(110.0))
        assert restored.items_processed == summary.items_processed
        assert restored.last_timestamp == summary.last_timestamp

    def test_restored_summary_keeps_updating(self, paper_decay):
        summary = DecayedSum(paper_decay)
        reference = DecayedSum(paper_decay)
        for t, v in PAPER_STREAM[:3]:
            summary.update(t, v)
            reference.update(t, v)
        restored = roundtrip(summary)
        for t, v in PAPER_STREAM[3:]:
            restored.update(t, v)
            reference.update(t, v)
        assert restored.query(110.0) == pytest.approx(reference.query(110.0))

    def test_exponential_with_shifted_landmark(self):
        decay = ForwardDecay(ExponentialG(alpha=1.0), landmark=0.0)
        summary = DecayedSum(decay)
        for t in range(1, 1_001):
            summary.update(float(t), 1.0)
        assert summary._engine.shifts > 0
        restored = roundtrip(summary)
        assert restored._engine.internal_landmark == summary._engine.internal_landmark
        exact = math.fsum(math.exp(t - 1_000.0) for t in range(1, 1_001))
        assert restored.query(1_000.0) == pytest.approx(exact, rel=1e-12)
        # And it keeps renormalizing correctly after restore.
        restored.update(2_000.0, 1.0)
        assert restored._engine.shifts > 0
        exact = math.fsum(math.exp(t - 2_000.0) for t in [*range(1, 1_001), 2_000])
        assert restored.query(2_000.0) == pytest.approx(exact, rel=1e-12)

    def test_empty_summary_round_trip(self, paper_decay):
        restored = roundtrip(DecayedCount(paper_decay))
        assert restored.items_processed == 0
        restored.update(105.0)
        assert restored.query(110.0) == pytest.approx(0.25)


class TestHolisticCheckpoints:
    def test_heavy_hitters_round_trip(self, paper_decay):
        summary = DecayedHeavyHitters(paper_decay, epsilon=0.01)
        for t, v in PAPER_STREAM:
            summary.update(v, t)
        restored = roundtrip(summary)
        assert restored.decayed_total(110.0) == pytest.approx(
            summary.decayed_total(110.0)
        )
        assert [h.item for h in restored.heavy_hitters(0.2, 110.0)] == [
            h.item for h in summary.heavy_hitters(0.2, 110.0)
        ]

    def test_heavy_hitters_string_and_int_keys(self, paper_decay):
        summary = DecayedHeavyHitters(paper_decay, epsilon=0.1)
        summary.update("host-1", 105.0)
        summary.update(42, 106.0)
        restored = roundtrip(summary)
        assert restored.decayed_count("host-1", 110.0) == pytest.approx(
            summary.decayed_count("host-1", 110.0)
        )
        assert restored.decayed_count(42, 110.0) == pytest.approx(
            summary.decayed_count(42, 110.0)
        )

    def test_quantiles_round_trip(self, paper_decay):
        summary = DecayedQuantiles(paper_decay, epsilon=0.05, universe_bits=4)
        for t, v in PAPER_STREAM:
            summary.update(v, t)
        restored = roundtrip(summary)
        for phi in (0.25, 0.5, 0.75):
            assert restored.quantile(phi) == summary.quantile(phi)
        assert restored.decayed_total(110.0) == pytest.approx(
            summary.decayed_total(110.0)
        )

    def test_gk_backend_round_trip(self, paper_decay):
        summary = DecayedQuantiles(paper_decay, backend="gk")
        for t, v in PAPER_STREAM:
            summary.update(v, t)
        restored = roundtrip(summary)
        for phi in (0.25, 0.5, 0.75):
            assert restored.quantile(phi) == summary.quantile(phi)

    def test_distinct_round_trip(self, paper_decay):
        summary = ExactDecayedDistinct(paper_decay)
        for t, v in PAPER_STREAM:
            summary.update(v, t)
        restored = roundtrip(summary)
        assert restored.query(110.0) == pytest.approx(summary.query(110.0))
        assert restored.distinct_items == summary.distinct_items


class TestErrors:
    def test_unregistered_type_rejected(self, paper_decay):
        class Unregistered(DecayedCount):
            pass

        with pytest.raises(ParameterError, match="not a registered summary"):
            Unregistered(paper_decay).to_bytes()

    def test_sampler_round_trip_continues_rng_sequence(self):
        import random

        from repro.sampling.reservoir import ReservoirSampler

        sampler = ReservoirSampler(4, rng=random.Random(11))
        twin = ReservoirSampler(4, rng=random.Random(11))
        for i in range(50):
            sampler.update(i)
            twin.update(i)
        restored = roundtrip(sampler)
        for i in range(50, 200):
            restored.update(i)
            twin.update(i)
        assert restored.sample() == twin.sample()

    @pytest.mark.parametrize("type_name", ["Bogus", "DecayedCount"])
    def test_unknown_checkpoint_type_rejected(self, type_name, paper_decay):
        # Without a registry name even a known class name is refused.
        payload = DecayedCount(paper_decay)._state_payload()
        with pytest.raises(ParameterError):
            StreamSummary.from_bytes(buffer(type_name, payload))

    @pytest.mark.parametrize(
        "payload", [{}, [1]], ids=["payload-missing-a-field", "payload-list"]
    )
    def test_a_malformed_payload_is_a_parameter_error(self, payload):
        with pytest.raises(ParameterError):
            StreamSummary.from_bytes(buffer("weighted_spacesaving", payload))

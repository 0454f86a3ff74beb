"""Unit tests for the UDAF mechanism, builtins and adapters."""

from __future__ import annotations

import pytest

from repro.core.errors import MergeError, QueryError
from repro.dsms import udaf as udaf_module
from repro.dsms.udaf import (
    AggarwalUdaf,
    AvgUdaf,
    CountUdaf,
    EHCountUdaf,
    EHSumUdaf,
    MaxUdaf,
    MinUdaf,
    PrioritySampleUdaf,
    ReservoirUdaf,
    SlidingWindowHHUdaf,
    SumUdaf,
    UdafRegistry,
    UnaryHHUdaf,
    WeightedHHUdaf,
    WeightedReservoirUdaf,
    default_registry,
)


class TestBuiltins:
    def test_count(self):
        udaf = CountUdaf()
        state = udaf.create()
        for __ in range(5):
            udaf.update(state, ())
        assert udaf.finalize(state) == 5
        assert udaf.state_size_bytes(state) == 4

    def test_sum_and_merge(self):
        udaf = SumUdaf()
        left, right = udaf.create(), udaf.create()
        udaf.update(left, (2.0,))
        udaf.update(right, (3.5,))
        udaf.merge(left, right)
        assert udaf.finalize(left) == pytest.approx(5.5)

    def test_min_max(self):
        low, high = MinUdaf(), MaxUdaf()
        low_state, high_state = low.create(), high.create()
        for value in (5, 2, 9):
            low.update(low_state, (value,))
            high.update(high_state, (value,))
        assert low.finalize(low_state) == 2
        assert high.finalize(high_state) == 9

    def test_min_merge_handles_empty_side(self):
        udaf = MinUdaf()
        filled, empty = udaf.create(), udaf.create()
        udaf.update(filled, (4,))
        udaf.merge(filled, empty)
        assert udaf.finalize(filled) == 4
        udaf.merge(empty, filled)
        assert udaf.finalize(empty) == 4

    def test_avg(self):
        udaf = AvgUdaf()
        state = udaf.create()
        for value in (2.0, 4.0):
            udaf.update(state, (value,))
        assert udaf.finalize(state) == pytest.approx(3.0)
        assert udaf.finalize(udaf.create()) is None

    def test_builtins_are_mergeable(self):
        for udaf in (CountUdaf(), SumUdaf(), MinUdaf(), MaxUdaf(), AvgUdaf()):
            assert udaf.mergeable

    def test_adapters_are_high_level_only(self):
        for udaf in (
            WeightedHHUdaf(), UnaryHHUdaf(), SlidingWindowHHUdaf(),
            EHCountUdaf(), EHSumUdaf(), PrioritySampleUdaf(),
            WeightedReservoirUdaf(), ReservoirUdaf(), AggarwalUdaf(),
        ):
            assert not udaf.mergeable
            with pytest.raises(MergeError):
                udaf.merge(udaf.create(), udaf.create())


class TestAdapters:
    def test_weighted_hh_udaf(self):
        udaf = WeightedHHUdaf(epsilon=0.1, phi=0.3)
        state = udaf.create()
        for item, weight in [("a", 5.0), ("b", 1.0), ("a", 4.0)]:
            udaf.update(state, (item, weight))
        result = udaf.finalize(state)
        assert result[0][0] == "a"
        assert result[0][1] == pytest.approx(9.0)
        assert udaf.state_size_bytes(state) > 0

    def test_unary_hh_udaf(self):
        udaf = UnaryHHUdaf(epsilon=0.1, phi=0.3)
        state = udaf.create()
        for item in ["x", "x", "y"]:
            udaf.update(state, (item,))
        result = udaf.finalize(state)
        assert result[0][0] == "x"

    def test_sliding_window_hh_udaf(self):
        udaf = SlidingWindowHHUdaf(window=60.0, epsilon=0.1, phi=0.2)
        state = udaf.create()
        for t in range(30):
            udaf.update(state, ("hot" if t % 2 else t, float(t)))
        result = udaf.finalize(state)
        assert result[0][0] == "hot"
        assert udaf.finalize(udaf.create()) == []

    def test_eh_udafs(self):
        count = EHCountUdaf(epsilon=0.2, window=100.0)
        state = count.create()
        for t in range(50):
            count.update(state, (float(t),))
        assert count.finalize(state) == pytest.approx(50, rel=0.3)

        total = EHSumUdaf(epsilon=0.2, window=100.0)
        sum_state = total.create()
        for t in range(50):
            total.update(sum_state, (float(t), 2))
        assert total.finalize(sum_state) == pytest.approx(100, rel=0.3)

    def test_sampler_udafs_return_samples(self):
        for udaf in (
            PrioritySampleUdaf(k=5, seed=1),
            WeightedReservoirUdaf(k=5, seed=1),
        ):
            state = udaf.create()
            for item in range(20):
                udaf.update(state, (item, float(item + 1)))
            sample = udaf.finalize(state)
            assert len(sample) == 5

    def test_unweighted_sampler_udafs(self):
        for udaf in (ReservoirUdaf(k=5, seed=2), AggarwalUdaf(k=5, seed=2)):
            state = udaf.create()
            for item in range(20):
                udaf.update(state, (item,))
            assert len(udaf.finalize(state)) == 5

    def test_sampler_udafs_empty_finalize(self):
        for udaf in (
            PrioritySampleUdaf(k=3), WeightedReservoirUdaf(k=3),
            ReservoirUdaf(k=3), AggarwalUdaf(k=3),
        ):
            assert udaf.finalize(udaf.create()) == []

    def test_per_group_rngs_differ(self):
        udaf = ReservoirUdaf(k=3, seed=7)
        first = udaf.create()
        second = udaf.create()
        assert first._rng.random() != second._rng.random()


class TestEHDecayedUdaf:
    def test_arbitrary_decay_at_query_time(self):
        from repro.core.functions import ExponentialF, PolynomialF
        from repro.dsms.udaf import EHDecayedUdaf

        for f in (PolynomialF(alpha=1.0), ExponentialF(lam=0.1)):
            udaf = EHDecayedUdaf(f=f, epsilon=0.05, window=100.0)
            state = udaf.create()
            arrivals = [i * 0.1 for i in range(600)]
            for t in arrivals:
                udaf.update(state, (t,))
            estimate = udaf.finalize(state)
            now = arrivals[-1]
            exact = sum(f(now - t) / f(0.0) for t in arrivals)
            assert estimate == pytest.approx(exact, rel=0.15)

    def test_empty_finalize(self):
        from repro.dsms.udaf import EHDecayedUdaf

        udaf = EHDecayedUdaf()
        assert udaf.finalize(udaf.create()) == 0.0

    def test_registered_by_default(self):
        assert "eh_decayed" in default_registry()


class TestQuantileAndDistinctUdafs:
    def test_weighted_quantiles_udaf(self):
        from repro.dsms.udaf import WeightedQuantilesUdaf

        udaf = WeightedQuantilesUdaf(epsilon=0.05, universe_bits=8,
                                     phis=(0.5,))
        state = udaf.create()
        for value in range(100):
            udaf.update(state, (value, 1.0))
        [median] = udaf.finalize(state)
        assert 35 <= median <= 65
        assert udaf.finalize(udaf.create()) == []
        assert udaf.state_size_bytes(state) > 0

    def test_weighted_quantiles_respect_weights(self):
        from repro.dsms.udaf import WeightedQuantilesUdaf

        udaf = WeightedQuantilesUdaf(epsilon=0.02, universe_bits=8,
                                     phis=(0.5,))
        state = udaf.create()
        udaf.update(state, (10, 1.0))
        udaf.update(state, (200, 50.0))  # heavy weight dominates
        [median] = udaf.finalize(state)
        assert median >= 190

    def test_decayed_distinct_udaf(self):
        from repro.core.decay import ForwardDecay
        from repro.core.functions import PolynomialG
        from repro.dsms.udaf import DecayedDistinctUdaf

        decay = ForwardDecay(PolynomialG(2.0), landmark=-1.0)
        udaf = DecayedDistinctUdaf(decay=decay, exact=True)
        state = udaf.create()
        for t, item in [(1.0, "a"), (2.0, "b"), (3.0, "a")]:
            udaf.update(state, (item, t))
        expected = decay.weight(3.0, 3.0) + decay.weight(2.0, 3.0)
        assert udaf.finalize(state) == pytest.approx(expected)
        assert udaf.finalize(udaf.create()) == 0.0

    def test_decayed_distinct_sketched_variant(self):
        from repro.dsms.udaf import DecayedDistinctUdaf

        udaf = DecayedDistinctUdaf(epsilon=0.1, seed=5)
        state = udaf.create()
        for t in range(1, 201):
            udaf.update(state, (t % 40, float(t)))
        estimate = udaf.finalize(state)
        assert 0.0 < estimate <= 40.0
        assert udaf.state_size_bytes(state) > 0


class TestRegistry:
    def test_lookup_case_insensitive(self):
        registry = default_registry()
        assert registry.get("COUNT").name == "count"
        assert "PriSamp" in registry

    def test_unknown_name(self):
        registry = UdafRegistry()
        with pytest.raises(QueryError):
            registry.get("nothing")

    def test_register_requires_name(self):
        registry = UdafRegistry()

        class Nameless(CountUdaf):
            name = ""

        with pytest.raises(QueryError):
            registry.register(Nameless())

    def test_names_listing(self):
        names = default_registry().names()
        for expected in ("count", "sum", "fwd_hh", "sw_hh", "prisamp"):
            assert expected in names

    def test_default_registry_parameters_flow_through(self):
        registry = default_registry(hh_epsilon=0.5, sample_size=7)
        assert registry.get("fwd_hh").epsilon == 0.5
        assert registry.get("prisamp").k == 7

    @pytest.mark.parametrize(
        "constant, value, name, attr",
        [
            ("_WINDOW_S", 30.0, "sw_hh", "window"),
            ("_WINDOW_S", 30.0, "eh_count", "window"),
            ("_PANE_S", 5.0, "sw_hh", "pane"),
            ("_SEED", 9, "fwd_distinct", "seed"),
            ("_SEED", 9, "prisamp", "seed"),
        ],
    )
    def test_registry_constants_reach_the_adapters(
        self, monkeypatch, constant, value, name, attr
    ):
        # No caller sets the window, pane or seed: they are constants a
        # registry reads when it is built, and a test patches them.
        monkeypatch.setattr(udaf_module, constant, value)
        assert getattr(default_registry().get(name), attr) == value


class TestSketchAdapterBatchPaths:
    def test_weighted_hh_update_many_matches_loop(self):
        udaf = WeightedHHUdaf(epsilon=0.05, phi=0.05)
        batch = [(f"h{i % 9}", float(1 + i % 4)) for i in range(500)]
        looped = udaf.create()
        for args in batch:
            udaf.update(looped, args)
        batched = udaf.create()
        udaf.update_many(batched, batch)
        assert batched._counts == looped._counts
        assert batched.total_weight == looped.total_weight

    def test_unary_hh_update_many_matches_loop(self):
        udaf = UnaryHHUdaf(epsilon=0.05, phi=0.05)
        batch = [(f"h{i % 9}",) for i in range(500)]
        looped = udaf.create()
        for args in batch:
            udaf.update(looped, args)
        batched = udaf.create()
        udaf.update_many(batched, batch)
        assert {c.item: c.count for c in batched.counters()} == {
            c.item: c.count for c in looped.counters()
        }

    def test_empty_batches_are_noops(self):
        for udaf in (WeightedHHUdaf(), UnaryHHUdaf()):
            state = udaf.create()
            udaf.update_many(state, [])
            assert state.total_weight == 0.0

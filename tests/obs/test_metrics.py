"""Conformance tests for the decayed metric primitives.

The metrics are the paper applied to the library's own telemetry, so they
are held to the paper's invariants: fixed numerators (Section III-A) and
renormalization only on writes (Section VI-A).
"""

from __future__ import annotations

import math

import pytest

from repro.core.errors import ParameterError
from repro.obs.metrics import (
    DecayedCounter,
    DecayedRateGauge,
    HotKeyTracker,
    LastValueGauge,
    LatencyQuantiles,
)


class TestDecayedCounter:
    def test_halves_every_half_life(self, clock):
        counter = DecayedCounter(half_life_s=10.0, clock=clock)
        counter.add(8.0)
        assert counter.value() == pytest.approx(8.0)
        clock.advance(10.0)
        assert counter.value() == pytest.approx(4.0)
        clock.advance(20.0)
        assert counter.value() == pytest.approx(1.0)
        assert counter.raw_total == 8.0

    def test_reads_never_touch_the_numerator(self, clock):
        """Section III-A: reads are one division; stored state is static."""
        counter = DecayedCounter(half_life_s=10.0, clock=clock)
        counter.add(3.0)
        clock.advance(5.0)
        counter.add(2.0)
        numerator = counter.static_numerator
        landmark = counter.landmark
        for _ in range(5):
            clock.advance(7.0)
            counter.value()
        assert counter.static_numerator == numerator
        assert counter.landmark == landmark

    def test_first_write_anchors_the_landmark(self, clock):
        counter = DecayedCounter(half_life_s=10.0, clock=clock)
        clock.advance(3.0)
        counter.add(1.0)
        assert counter.landmark == clock.now
        assert counter.static_numerator == 1.0

    def test_renormalizes_on_write_before_overflow(self, clock):
        counter = DecayedCounter(half_life_s=1.0, clock=clock)
        counter.add(1.0)
        # ~720 half-lives later the raw exponent would be ~500; without
        # the Section VI-A landmark shift exp() would overflow.
        clock.advance(720.0)
        counter.add(1.0)
        assert counter.landmark == clock.now
        assert counter.value() == pytest.approx(1.0)  # old mass fully faded

    def test_decay_survives_renormalization(self, clock):
        direct = DecayedCounter(half_life_s=1.0, clock=clock)
        direct.add(4.0)
        clock.advance(600.0)  # exponent 600 * ln2 ~ 416 > 355: a shift
        direct.add(4.0)
        assert direct.landmark == clock.now
        clock.advance(1.0)
        # 601 half-lives for the first item, 1 for the second.
        expected = math.fsum([4.0 * 2.0**-601, 4.0 * 2.0**-1])
        assert direct.value() == pytest.approx(expected, rel=1e-12)

    def test_a_read_long_after_the_last_write_underflows_to_zero(self, clock):
        counter = DecayedCounter(clock=clock)  # 60 s half-life
        counter.add(1.0)
        clock.advance(8 * 3600.0)  # exponent ~333: no shift yet
        counter.add(1.0)
        clock.advance(17 * 3600.0)  # exponent ~1040 from the landmark
        # The true value is 2^-1020 + 2^-1500 (~9e-308), but the divisor
        # exp(~1040) is past the float range: the read is 0.0, not an
        # OverflowError.
        assert counter.value() == 0.0

    def test_rejects_bad_half_life(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                DecayedCounter(half_life_s=bad)

    def test_value_is_the_backward_decayed_sum_of_every_write(self, clock):
        """Section III-A: the fixed numerator over one normalizer equals
        the backward-exponentially-decayed sum, write by write."""
        counter = DecayedCounter(half_life_s=4.0, clock=clock)
        writes = [(0.0, 3.0), (1.5, 2.0), (6.0, 5.0), (6.0, 1.0), (13.25, 0.5)]
        start = clock.now
        for offset, amount in writes:
            counter.add(amount, now=start + offset)
        expected = math.fsum(
            amount * 2.0 ** (-(20.0 - offset) / 4.0) for offset, amount in writes
        )
        assert counter.value(now=start + 20.0) == pytest.approx(expected, rel=1e-12)
        assert counter.raw_total == 11.5

    def test_an_explicit_now_overrides_the_clock(self, clock):
        counter = DecayedCounter(half_life_s=10.0, clock=clock)
        counter.add(8.0, now=clock.now + 10.0)
        assert counter.landmark == clock.now + 10.0
        assert counter.value(now=clock.now + 20.0) == pytest.approx(4.0)

    def test_alpha_is_ln2_over_the_half_life(self):
        assert DecayedCounter(half_life_s=5.0).alpha == pytest.approx(
            math.log(2.0) / 5.0
        )

    def test_an_empty_counter_reads_zero(self, clock):
        counter = DecayedCounter(clock=clock)
        clock.advance(3_600.0)
        assert counter.value() == 0.0
        assert counter.static_numerator == 0.0
        assert counter.raw_total == 0.0


class TestDecayedRateGauge:
    def test_steady_stream_converges_to_true_rate(self, clock):
        gauge = DecayedRateGauge(half_life_s=5.0, clock=clock)
        for _ in range(2_000):
            gauge.observe(10.0)  # 10 events per 0.1s tick = 100/s
            clock.advance(0.1)
        assert gauge.rate() == pytest.approx(100.0, rel=0.05)

    def test_rate_fades_after_stream_stops(self, clock):
        gauge = DecayedRateGauge(half_life_s=5.0, clock=clock)
        for _ in range(1_000):
            gauge.observe(1.0)
            clock.advance(0.1)
        busy = gauge.rate()
        clock.advance(50.0)  # ten half-lives of silence
        assert gauge.rate() < busy / 500.0

    def test_zero_before_any_observation(self, clock):
        gauge = DecayedRateGauge(clock=clock)
        assert gauge.rate() == 0.0

    def test_a_read_at_the_first_observation_is_zero(self, clock):
        gauge = DecayedRateGauge(clock=clock)
        gauge.observe(5.0)
        assert gauge.rate() == 0.0  # no observation window yet
        clock.advance(1.0)
        assert gauge.rate() > 0.0

    def test_early_reads_are_not_biased_low(self, clock):
        """The finite-horizon mass corrects the startup bias: one second
        into a 100/s stream under a 60 s half-life the gauge reads ~100/s,
        where ``alpha * count`` alone would read ~1.2/s."""
        gauge = DecayedRateGauge(half_life_s=60.0, clock=clock)
        for _ in range(10):
            gauge.observe(10.0)
            clock.advance(0.1)
        assert gauge.rate() == pytest.approx(100.0, rel=0.01)

    def test_snapshot_reports_rate_and_undecayed_total(self, clock):
        gauge = DecayedRateGauge(half_life_s=5.0, clock=clock)
        gauge.observe(3.0)
        clock.advance(2.0)
        gauge.observe(4.0)
        later = clock.now + 1.0
        assert gauge.snapshot(now=later) == {
            "type": "rate",
            "per_sec": gauge.rate(now=later),
            "raw_total": 7.0,
            "half_life_s": 5.0,
        }


class TestLatencyQuantiles:
    def test_quantiles_bracket_uniform_data(self, clock):
        sketch = LatencyQuantiles(epsilon=0.01, clock=clock)
        for value in range(1, 1_001):
            sketch.observe(float(value))
        assert sketch.quantile(0.50) == pytest.approx(500.0, abs=25.0)
        assert sketch.quantile(0.99) == pytest.approx(990.0, abs=25.0)
        assert sketch.count == 1_000

    def test_empty_quantile_is_none(self, clock):
        assert LatencyQuantiles(clock=clock).quantile(0.5) is None

    def test_a_weight_counts_as_that_many_observations(self, clock):
        sketch = LatencyQuantiles(epsilon=0.01, clock=clock)
        sketch.observe(5.0, weight=9.0)
        sketch.observe(100.0)
        assert sketch.quantile(0.5) == 5.0
        assert sketch.quantile(1.0) == 100.0
        assert sketch.count == 2  # observations, not weight

    def test_count_is_undecayed_under_a_half_life(self, clock):
        sketch = LatencyQuantiles(half_life_s=1.0, clock=clock)
        for _ in range(3):
            sketch.observe(1.0)
            clock.advance(10.0)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == 1.0

    def test_snapshot_reports_the_three_quantiles(self, clock):
        sketch = LatencyQuantiles(epsilon=0.01, clock=clock)
        for value in range(1, 101):
            sketch.observe(float(value))
        snap = sketch.snapshot()
        assert snap["count"] == 100
        assert [snap["p50"], snap["p90"], snap["p99"]] == [
            sketch.quantile(0.50), sketch.quantile(0.90), sketch.quantile(0.99)
        ]
        assert snap["p50"] <= snap["p90"] <= snap["p99"]

    def test_decayed_quantiles_track_recent_regime(self, clock):
        sketch = LatencyQuantiles(epsilon=0.01, half_life_s=1.0, clock=clock)
        for _ in range(500):
            sketch.observe(10.0)  # old regime: fast
        clock.advance(30.0)  # 30 half-lives: old mass ~1e-9
        for _ in range(500):
            sketch.observe(1_000.0)  # new regime: slow
        assert sketch.quantile(0.5) == pytest.approx(1_000.0)

    def test_a_write_after_a_long_idle_spell_shifts(self, clock):
        sketch = LatencyQuantiles(epsilon=0.01, half_life_s=1.0, clock=clock)
        for _ in range(100):
            sketch.observe(10.0)
        # 2,000 half-lives: the shift factor 2^-2000 underflows to zero,
        # which the GK sketch's scale would refuse.
        clock.advance(2_000.0)
        for _ in range(100):
            sketch.observe(1_000.0)
        assert sketch._engine.shifts == 1
        assert sketch.count == 200
        assert sketch.quantile(0.5) == 1_000.0


class TestHotKeyTracker:
    def test_top_orders_by_weight(self, clock):
        tracker = HotKeyTracker(capacity=16, clock=clock)
        for key, repeats in [("a", 50), ("b", 30), ("c", 5)]:
            for _ in range(repeats):
                tracker.observe(key)
        top = tracker.top(2)
        assert [key for key, _, _ in top] == ["a", "b"]
        assert top[0][1] == pytest.approx(50.0)

    def test_decay_prefers_recent_keys(self, clock):
        tracker = HotKeyTracker(capacity=16, half_life_s=1.0, clock=clock)
        for _ in range(1_000):
            tracker.observe("old")
        clock.advance(30.0)
        for _ in range(10):
            tracker.observe("new")
        top = tracker.top(2)
        assert top[0][0] == "new"
        # The old key's decayed weight collapsed: 1000 * 2^-30 << 1.
        old = dict((k, w) for k, w, _ in top)["old"]
        assert old < 1e-5

    def test_renormalization_on_write(self, clock):
        tracker = HotKeyTracker(capacity=8, half_life_s=1.0, clock=clock)
        tracker.observe("k")
        clock.advance(600.0)  # exponent 600 * ln2 ~ 416 > 355: a shift
        tracker.observe("k")
        assert tracker._engine.shifts == 1
        assert math.isfinite(tracker.total_weight)
        assert tracker.top(1)[0][1] == pytest.approx(1.0)

    def test_a_write_after_a_long_idle_spell_shifts(self, clock):
        tracker = HotKeyTracker(capacity=8, half_life_s=1.0, clock=clock)
        for _ in range(50):
            tracker.observe("old")
        clock.advance(2_000.0)  # shift factor 2^-2000 underflows to zero
        tracker.observe("new")
        assert tracker._engine.shifts == 1
        (key, weight, _), (_, old_weight, _) = tracker.top(2)
        assert key == "new"
        assert weight == 1.0
        assert old_weight < 1e-300

    def test_top_breaks_ties_by_key_repr(self, clock):
        tracker = HotKeyTracker(capacity=8, clock=clock)
        for key in ("b", "c", "a"):
            tracker.observe(key, 2.0)
        assert [key for key, _, _ in tracker.top(3)] == ["a", "b", "c"]

    def test_top_returns_at_most_k_keys(self, clock):
        tracker = HotKeyTracker(capacity=8, clock=clock)
        for key in range(6):
            tracker.observe(key, float(key + 1))
        assert [key for key, _, _ in tracker.top(2)] == [5, 4]
        assert len(tracker.top(10)) == 6

    def test_a_key_past_capacity_reports_its_overcount_as_error(self, clock):
        """SpaceSaving: a new key takes the lightest counter's slot and
        inherits its weight as error, so ``[weight - error, weight]``
        brackets the key's true weight."""
        tracker = HotKeyTracker(capacity=2, clock=clock)
        tracker.observe("a", 5.0)
        tracker.observe("b", 3.0)
        tracker.observe("c", 1.0)
        assert tracker.top(3) == [("a", 5.0, 0.0), ("c", 4.0, 3.0)]
        assert tracker.total_weight == 9.0

    def test_undecayed_weights_are_raw_sums(self, clock):
        tracker = HotKeyTracker(capacity=4, clock=clock)
        tracker.observe("k", 2.5)
        clock.advance(1_000.0)
        tracker.observe("k", 0.5)
        assert tracker.top(1) == [("k", 3.0, 0.0)]

    def test_decayed_weights_halve_every_half_life(self, clock):
        tracker = HotKeyTracker(capacity=4, half_life_s=2.0, clock=clock)
        tracker.observe("k", 8.0)
        assert tracker.top(1, now=clock.now + 4.0)[0][1] == pytest.approx(2.0)
        assert tracker.top(1)[0][1] == pytest.approx(8.0)

    def test_snapshot_lists_the_top_k(self, clock):
        tracker = HotKeyTracker(capacity=8, clock=clock)
        for key in range(7):
            tracker.observe(key, float(key + 1))
        assert tracker.snapshot(k=2) == {
            "type": "hotkeys",
            "capacity": 8,
            "top": [
                {"key": "6", "weight": 7.0, "error": 0.0},
                {"key": "5", "weight": 6.0, "error": 0.0},
            ],
        }


class TestLastValueGauge:
    def test_keeps_latest_sample(self):
        gauge = LastValueGauge()
        assert gauge.value() is None
        gauge.set(10.0)
        gauge.set(20.0)
        assert gauge.value() == 20.0

    def test_snapshot_reports_the_latest_sample(self):
        gauge = LastValueGauge()
        assert gauge.snapshot() == {"type": "gauge", "value": None}
        gauge.set(3.0)
        assert gauge.snapshot(now=123.0) == {"type": "gauge", "value": 3.0}


class TestSnapshots:
    def test_snapshots_are_deterministic_under_fixed_clock(self, clock):
        def build():
            c = DecayedCounter(10.0, clock=clock)
            c.add(5.0, now=clock.now)
            return c.snapshot(now=clock.now + 3.0)

        assert build() == build()

    def test_snapshot_shapes(self, clock):
        counter = DecayedCounter(clock=clock)
        counter.add(1.0)
        assert counter.snapshot()["type"] == "counter"
        gauge = DecayedRateGauge(clock=clock)
        assert gauge.snapshot()["type"] == "rate"
        sketch = LatencyQuantiles(clock=clock)
        assert sketch.snapshot() == {
            "type": "latency",
            "count": 0,
            "p50": None,
            "p90": None,
            "p99": None,
            "epsilon": 0.01,
        }
        tracker = HotKeyTracker(clock=clock)
        tracker.observe("k")
        hot = tracker.snapshot()
        assert hot["type"] == "hotkeys"
        assert hot["top"][0]["key"] == "'k'"

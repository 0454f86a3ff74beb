"""Conformance tests for the decayed metric primitives.

The metrics are the paper applied to the library's own telemetry, so they
are held to the paper's invariants: fixed numerators (Section III-A) and
renormalization only on writes (Section VI-A).
"""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    HALF_LIFE_S,
    HOT_KEY_CAPACITY,
    LATENCY_EPSILON,
    DecayedCounter,
    DecayedRateGauge,
    HotKeyTracker,
    LastValueGauge,
    LatencyQuantiles,
)


class TestDecayedCounter:
    def test_halves_every_half_life(self, clock):
        counter = DecayedCounter(clock)
        counter.add(8.0)
        assert counter.value() == pytest.approx(8.0)
        clock.advance(HALF_LIFE_S)
        assert counter.value() == pytest.approx(4.0)
        clock.advance(2 * HALF_LIFE_S)
        assert counter.value() == pytest.approx(1.0)
        assert counter.raw_total == 8.0

    def test_reads_never_touch_the_numerator(self, clock):
        """Section III-A: reads are one division; stored state is static."""
        counter = DecayedCounter(clock)
        counter.add(3.0)
        clock.advance(60.0)
        counter.add(2.0)
        numerator = counter._num
        landmark = counter._engine.internal_landmark
        for _ in range(5):
            clock.advance(120.0)
            counter.value()
        assert counter._num == numerator
        assert counter._engine.internal_landmark == landmark

    def test_first_write_anchors_the_landmark(self, clock):
        counter = DecayedCounter(clock)
        clock.advance(180.0)
        counter.add(1.0)
        assert counter._engine.internal_landmark == clock.now
        assert counter._num == 1.0

    def test_renormalizes_on_write_before_overflow(self, clock):
        counter = DecayedCounter(clock)
        counter.add(1.0)
        # ~720 half-lives later the raw exponent would be ~500; without
        # the Section VI-A landmark shift exp() would overflow.
        clock.advance(720 * HALF_LIFE_S)
        counter.add(1.0)
        assert counter._engine.internal_landmark == clock.now
        assert counter.value() == pytest.approx(1.0)  # old mass fully faded

    def test_decay_survives_renormalization(self, clock):
        direct = DecayedCounter(clock)
        direct.add(4.0)
        clock.advance(600 * HALF_LIFE_S)  # exponent 600 * ln2 ~ 416 > 355: a shift
        direct.add(4.0)
        assert direct._engine.internal_landmark == clock.now
        clock.advance(HALF_LIFE_S)
        # 601 half-lives for the first item, 1 for the second.
        expected = math.fsum([4.0 * 2.0**-601, 4.0 * 2.0**-1])
        assert direct.value() == pytest.approx(expected, rel=1e-12)

    def test_a_read_long_after_the_last_write_underflows_to_zero(self, clock):
        counter = DecayedCounter(clock)  # 60 s half-life
        counter.add(1.0)
        clock.advance(8 * 3600.0)  # exponent ~333: no shift yet
        counter.add(1.0)
        clock.advance(17 * 3600.0)  # exponent ~1040 from the landmark
        # The true value is 2^-1020 + 2^-1500 (~9e-308), but the divisor
        # exp(~1040) is past the float range: the read is 0.0, not an
        # OverflowError.
        assert counter.value() == 0.0

    def test_value_is_the_backward_decayed_sum_of_every_write(self, clock):
        """Section III-A: the fixed numerator over one normalizer equals
        the backward-exponentially-decayed sum, write by write."""
        counter = DecayedCounter(clock)
        writes = [(0.0, 3.0), (90.0, 2.0), (360.0, 5.0), (360.0, 1.0), (795.0, 0.5)]
        start = clock.now
        for offset, amount in writes:
            counter.add(amount, now=start + offset)
        expected = math.fsum(
            amount * 2.0 ** (-(1200.0 - offset) / HALF_LIFE_S)
            for offset, amount in writes
        )
        assert counter.value(now=start + 1200.0) == pytest.approx(expected, rel=1e-12)
        assert counter.raw_total == 11.5

    def test_an_explicit_now_overrides_the_clock(self, clock):
        counter = DecayedCounter(clock)
        counter.add(8.0, now=clock.now + 60.0)
        assert counter._engine.internal_landmark == clock.now + 60.0
        assert counter.value(now=clock.now + 120.0) == pytest.approx(4.0)

    def test_an_empty_counter_reads_zero(self, clock):
        counter = DecayedCounter(clock)
        clock.advance(3_600.0)
        assert counter.value() == 0.0
        assert counter.raw_total == 0.0


class TestDecayedRateGauge:
    def test_steady_stream_converges_to_true_rate(self, clock):
        gauge = DecayedRateGauge(clock)
        for _ in range(2_000):
            gauge.observe(10.0)  # 10 events per 0.1s tick = 100/s
            clock.advance(0.1)
        assert gauge.rate() == pytest.approx(100.0, rel=0.05)

    def test_rate_fades_after_stream_stops(self, clock):
        gauge = DecayedRateGauge(clock)
        for _ in range(1_000):
            gauge.observe(1.0)
            clock.advance(0.1)
        busy = gauge.rate()
        clock.advance(10 * HALF_LIFE_S)  # ten half-lives of silence
        assert gauge.rate() < busy / 500.0

    def test_zero_before_any_observation(self, clock):
        gauge = DecayedRateGauge(clock)
        assert gauge.rate() == 0.0

    def test_a_read_at_the_first_observation_is_zero(self, clock):
        gauge = DecayedRateGauge(clock)
        gauge.observe(5.0)
        assert gauge.rate() == 0.0  # no observation window yet
        clock.advance(60.0)
        assert gauge.rate() > 0.0

    def test_early_reads_are_not_biased_low(self, clock):
        """The finite-horizon mass corrects the startup bias: one second
        into a 100/s stream under a 60 s half-life the gauge reads ~100/s,
        where ``alpha * count`` alone would read ~1.2/s."""
        gauge = DecayedRateGauge(clock)
        for _ in range(10):
            gauge.observe(10.0)
            clock.advance(0.1)
        assert gauge.rate() == pytest.approx(100.0, rel=0.01)

    def test_snapshot_reports_rate_and_undecayed_total(self, clock):
        gauge = DecayedRateGauge(clock)
        gauge.observe(3.0)
        clock.advance(60.0)
        gauge.observe(4.0)
        later = clock.now + 60.0
        assert gauge.snapshot(now=later) == {
            "type": "rate",
            "per_sec": gauge.rate(now=later),
            "raw_total": 7.0,
            "half_life_s": HALF_LIFE_S,
        }


class TestLatencyQuantiles:
    def test_quantiles_bracket_uniform_data(self):
        sketch = LatencyQuantiles()
        for value in range(1, 1_001):
            sketch.observe(float(value))
        assert sketch.quantile(0.50) == pytest.approx(500.0, abs=25.0)
        assert sketch.quantile(0.99) == pytest.approx(990.0, abs=25.0)
        assert sketch.count == 1_000

    def test_empty_quantile_is_none(self):
        assert LatencyQuantiles().quantile(0.5) is None

    def test_snapshot_reports_the_three_quantiles(self):
        sketch = LatencyQuantiles()
        for value in range(1, 101):
            sketch.observe(float(value))
        snap = sketch.snapshot()
        assert snap["count"] == 100
        assert [snap["p50"], snap["p90"], snap["p99"]] == [
            sketch.quantile(0.50), sketch.quantile(0.90), sketch.quantile(0.99)
        ]
        assert snap["p50"] <= snap["p90"] <= snap["p99"]

class TestHotKeyTracker:
    def test_top_orders_by_weight(self):
        tracker = HotKeyTracker()
        for key, repeats in [("a", 50), ("b", 30), ("c", 5)]:
            for _ in range(repeats):
                tracker.observe(key)
        top = tracker.top(2)
        assert [key for key, _, _ in top] == ["a", "b"]
        assert top[0][1] == pytest.approx(50.0)

    def test_top_breaks_ties_by_key_repr(self):
        tracker = HotKeyTracker()
        for key in ("b", "c", "a") * 2:
            tracker.observe(key)
        assert [key for key, _, _ in tracker.top(3)] == ["a", "b", "c"]

    def test_top_returns_at_most_k_keys(self):
        tracker = HotKeyTracker()
        for key in range(6):
            for _ in range(key + 1):
                tracker.observe(key)
        assert [key for key, _, _ in tracker.top(2)] == [5, 4]
        assert len(tracker.top(10)) == 6

    def test_a_key_past_capacity_reports_its_overcount_as_error(self):
        """SpaceSaving: a new key takes the lightest counter's slot and
        inherits its weight as error, so ``[weight - error, weight]``
        brackets the key's true weight."""
        tracker = HotKeyTracker()
        for _ in range(5):
            tracker.observe("a")
        for index in range(HOT_KEY_CAPACITY - 1):  # every counter taken
            tracker.observe(f"k{index}")
        tracker.observe("c")
        assert tracker.top(2) == [("a", 5.0, 0.0), ("c", 2.0, 1.0)]

    def test_snapshot_lists_the_top_k(self):
        tracker = HotKeyTracker()
        for key in range(7):
            for _ in range(key + 1):
                tracker.observe(key)
        assert tracker.snapshot() == {
            "type": "hotkeys",
            "capacity": HOT_KEY_CAPACITY,
            "top": [
                {"key": repr(key), "weight": key + 1.0, "error": 0.0}
                for key in (6, 5, 4, 3, 2)
            ],
        }


class TestLastValueGauge:
    def test_keeps_latest_sample(self):
        gauge = LastValueGauge()
        gauge.set(10.0)
        gauge.set(20.0)
        assert gauge.snapshot()["value"] == 20.0

    def test_snapshot_reports_the_latest_sample(self):
        gauge = LastValueGauge()
        assert gauge.snapshot() == {"type": "gauge", "value": None}
        gauge.set(3.0)
        assert gauge.snapshot(now=123.0) == {"type": "gauge", "value": 3.0}


class TestSnapshots:
    def test_snapshots_are_deterministic_under_fixed_clock(self, clock):
        def build():
            c = DecayedCounter(clock)
            c.add(5.0, now=clock.now)
            return c.snapshot(now=clock.now + 3.0)

        assert build() == build()

    def test_snapshot_shapes(self, clock):
        counter = DecayedCounter(clock)
        counter.add(1.0)
        assert counter.snapshot()["type"] == "counter"
        gauge = DecayedRateGauge(clock)
        assert gauge.snapshot()["type"] == "rate"
        sketch = LatencyQuantiles()
        assert sketch.snapshot() == {
            "type": "latency",
            "count": 0,
            "p50": None,
            "p90": None,
            "p99": None,
            "epsilon": LATENCY_EPSILON,
        }
        tracker = HotKeyTracker()
        tracker.observe("k")
        hot = tracker.snapshot()
        assert hot["type"] == "hotkeys"
        assert hot["top"][0]["key"] == "'k'"

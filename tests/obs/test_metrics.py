"""Conformance tests for the decayed metric primitives.

The metrics are the paper applied to the library's own telemetry, so they
are held to the paper's invariants: fixed numerators (Section III-A),
renormalization only on writes (Section VI-A), and merge with landmark
alignment (Section VI-B).
"""

from __future__ import annotations

import math

import pytest

from repro.core.errors import MergeError, ParameterError
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

    def test_merge_commutes(self, clock):
        a1, b1, a2, b2 = (DecayedCounter(10.0, clock=clock) for _ in range(4))
        for c in (a1, a2):
            c.add(3.0, now=clock.now)
        clock.advance(6.0)
        for c in (b1, b2):
            c.add(5.0, now=clock.now)
        a1.merge(b1)
        b2.merge(a2)
        clock.advance(3.0)
        assert a1.value() == pytest.approx(b2.value())

    def test_merge_associates(self, clock):
        def build(amounts_at):
            counters = []
            for offset, amount in amounts_at:
                c = DecayedCounter(10.0, clock=clock)
                c.add(amount, now=clock.now + offset)
                counters.append(c)
            return counters

        x1, y1, z1 = build([(0.0, 2.0), (4.0, 3.0), (9.0, 5.0)])
        x2, y2, z2 = build([(0.0, 2.0), (4.0, 3.0), (9.0, 5.0)])
        # (x + y) + z  vs  x + (y + z)
        x1.merge(y1)
        x1.merge(z1)
        y2.merge(z2)
        x2.merge(y2)
        clock.advance(12.0)
        assert x1.value() == pytest.approx(x2.value())
        assert x1.raw_total == pytest.approx(x2.raw_total)

    def test_merge_aligns_a_peer_that_shifted(self, clock):
        start = clock.now
        shifted = DecayedCounter(half_life_s=1.0, clock=clock)
        behind = DecayedCounter(half_life_s=1.0, clock=clock)
        shifted.add(2.0, now=start)
        behind.add(3.0, now=start + 100.0)
        shifted.add(5.0, now=start + 600.0)  # 600 * ln2 ~ 416 > 355
        assert shifted._engine.shifts == 1
        assert behind._engine.shifts == 0
        now = start + 601.0
        expected = math.fsum([2.0 * 2.0**-601, 3.0 * 2.0**-501, 5.0 * 2.0**-1])
        ahead_into_behind = DecayedCounter(half_life_s=1.0, clock=clock)
        ahead_into_behind.merge(behind)
        ahead_into_behind.merge(shifted)  # advances to the peer's landmark
        shifted.merge(behind)  # scales the peer down
        for merged in (shifted, ahead_into_behind):
            assert merged.landmark == start + 600.0
            assert merged.value(now=now) == pytest.approx(expected, rel=1e-12)

    def test_merge_rejects_mismatched_half_life(self, clock):
        a = DecayedCounter(10.0, clock=clock)
        b = DecayedCounter(20.0, clock=clock)
        with pytest.raises(MergeError):
            a.merge(b)
        with pytest.raises(MergeError):
            a.merge(object())

    def test_rejects_bad_half_life(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                DecayedCounter(half_life_s=bad)


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

    def test_merge_combines_worker_rates(self, clock):
        a = DecayedRateGauge(half_life_s=5.0, clock=clock)
        b = DecayedRateGauge(half_life_s=5.0, clock=clock)
        for _ in range(1_000):
            a.observe(1.0)
            b.observe(2.0)
            clock.advance(0.1)
        solo = a.rate()
        a.merge(b)
        assert a.rate() == pytest.approx(solo * 3.0, rel=0.05)


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

    def test_decayed_quantiles_track_recent_regime(self, clock):
        sketch = LatencyQuantiles(epsilon=0.01, half_life_s=1.0, clock=clock)
        for _ in range(500):
            sketch.observe(10.0)  # old regime: fast
        clock.advance(30.0)  # 30 half-lives: old mass ~1e-9
        for _ in range(500):
            sketch.observe(1_000.0)  # new regime: slow
        assert sketch.quantile(0.5) == pytest.approx(1_000.0)

    def test_merge_matches_single_sketch(self, clock):
        merged = LatencyQuantiles(epsilon=0.01, clock=clock)
        single = LatencyQuantiles(epsilon=0.01, clock=clock)
        other = LatencyQuantiles(epsilon=0.01, clock=clock)
        for value in range(1, 501):
            merged.observe(float(value))
            single.observe(float(value))
        for value in range(501, 1_001):
            other.observe(float(value))
            single.observe(float(value))
        merged.merge(other)
        assert merged.count == single.count
        for phi in (0.1, 0.5, 0.9):
            assert merged.quantile(phi) == pytest.approx(
                single.quantile(phi), rel=0.05
            )

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

    def test_merge_rejects_mixed_decay_modes(self, clock):
        plain = LatencyQuantiles(clock=clock)
        decayed = LatencyQuantiles(half_life_s=5.0, clock=clock)
        with pytest.raises(MergeError):
            plain.merge(decayed)


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

    def test_merge_sums_weights(self, clock):
        a = HotKeyTracker(capacity=16, clock=clock)
        b = HotKeyTracker(capacity=16, clock=clock)
        for _ in range(10):
            a.observe("x")
            b.observe("x")
            b.observe("y")
        a.merge(b)
        weights = {key: w for key, w, _ in a.top(5)}
        assert weights["x"] == pytest.approx(20.0)
        assert weights["y"] == pytest.approx(10.0)

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

    def test_merge_aligns_a_peer_that_shifted(self, clock):
        start = clock.now
        shifted = HotKeyTracker(capacity=8, half_life_s=1.0, clock=clock)
        behind = HotKeyTracker(capacity=8, half_life_s=1.0, clock=clock)
        shifted.observe("a", 4.0, now=start)
        shifted.observe("b", 2.0, now=start + 600.0)  # a shift
        behind.observe("b", 6.0, now=start + 599.0)
        assert (shifted._engine.shifts, behind._engine.shifts) == (1, 0)
        behind.merge(shifted)  # advances to the peer's landmark first
        assert behind._engine.shifts == 1
        weights = {key: w for key, w, _ in behind.top(2, now=start + 601.0)}
        expected_b = 2.0 * 2.0**-1 + 6.0 * 2.0**-2
        assert weights["b"] == pytest.approx(expected_b, rel=1e-12)
        assert weights["a"] == pytest.approx(4.0 * 2.0**-601, rel=1e-12)


class TestLastValueGauge:
    def test_keeps_latest_sample(self, clock):
        gauge = LastValueGauge(clock=clock)
        assert gauge.value() is None
        gauge.set(10.0)
        clock.advance(1.0)
        gauge.set(20.0)
        assert gauge.value() == 20.0

    def test_merge_prefers_later_stamp(self, clock):
        older = LastValueGauge(clock=clock)
        older.set(1.0)
        clock.advance(5.0)
        newer = LastValueGauge(clock=clock)
        newer.set(2.0)
        older.merge(newer)
        assert older.value() == 2.0
        newer.merge(older)  # merging the older sample back changes nothing
        assert newer.value() == 2.0


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

"""Self-instrumentation primitives built from the repo's own summaries.

The observability layer dogfoods the paper: every time-sensitive metric is a
*forward-decayed* summary over wall-clock time, so recent behaviour is
weighted up and history fades smoothly — with the Section III-A fixed-
numerator trick intact.  A :class:`DecayedCounter` stores only the numerator
``sum_i g(t_i - L) * amount_i`` for ``g(n) = exp(alpha * n)``; reads never
rescale stored state, they apply the single division by ``g(now - L)``.
Each decayed primitive holds a
:class:`~repro.core.weights.ForwardWeightEngine` over ``ExponentialG(alpha)``
with nominal landmark 0: it computes the arrival weight and renormalizes
(Section VI-A) on the *write* path alone.  A write into empty state
anchors the internal landmark at its own time.

Primitives:

* :class:`DecayedCounter` — decayed event/amount count, O(1) read;
* :class:`DecayedRateGauge` — events per second, exponentially faded;
* :class:`LatencyQuantiles` — GK sketch over microsecond timings;
* :class:`HotKeyTracker` — SpaceSaving over group keys, optionally decayed;
* :class:`LastValueGauge` — most recent sample of a sampled quantity.

The time-sensitive primitives take an injectable ``clock`` (default
``time.time``) and an explicit ``now=`` override on every operation, so
tests drive them with a manual clock and snapshots are deterministic.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Hashable

from repro.core.decay import ForwardDecay
from repro.core.errors import ParameterError
from repro.core.functions import ExponentialG
from repro.core.weights import ForwardWeightEngine, ScaleState
from repro.sketches.gk import GKSummary

__all__ = [
    "DecayedCounter",
    "DecayedRateGauge",
    "LatencyQuantiles",
    "HotKeyTracker",
    "LastValueGauge",
]

Clock = Callable[[], float]


def _alpha_for_half_life(half_life_s: float) -> float:
    if not half_life_s > 0 or math.isnan(half_life_s) or math.isinf(half_life_s):
        raise ParameterError(
            f"half_life_s must be positive finite, got {half_life_s!r}"
        )
    return math.log(2.0) / half_life_s


def _decay_engine(half_life_s: float, scale_state: ScaleState) -> ForwardWeightEngine:
    """Exponential forward decay at the half-life's rate, nominal landmark 0."""
    alpha = _alpha_for_half_life(half_life_s)
    return ForwardWeightEngine(ForwardDecay(ExponentialG(alpha)), scale_state)


def _write_weight(engine: ForwardWeightEngine, now: float, empty: bool) -> float:
    """The static weight ``g(now - L)`` of a write at ``now``.

    Any landmark is exact for empty state, so a write into it first
    anchors the engine's landmark at ``now``.
    """
    if empty:
        engine.internal_landmark = now
    return engine.arrival_weight(now)


class DecayedCounter:
    """Forward-exponentially-decayed counter over wall-clock time.

    ``add(amount)`` folds in ``amount * g(now - L)`` with
    ``g(n) = exp(alpha * n)`` — the item's *static* weight, fixed at arrival.
    ``value()`` divides the stored numerator by ``g(now - L)`` once; by the
    forward/backward equivalence for exponentials (Section III-A) the result
    is exactly the backward-exponentially-decayed count.  Reads are O(1) and
    never mutate state.
    """

    __slots__ = ("half_life_s", "alpha", "_clock", "_engine", "_num", "_raw")

    def __init__(self, half_life_s: float = 60.0, clock: Clock | None = None):
        self.half_life_s = float(half_life_s)
        self._engine = _decay_engine(half_life_s, self._scale)
        self.alpha = self._engine.decay.g.alpha
        self._clock = clock if clock is not None else time.time
        self._num = 0.0
        self._raw = 0.0

    @property
    def landmark(self) -> float:
        """The current internal landmark ``L`` (moves only on writes)."""
        return self._engine.internal_landmark

    @property
    def static_numerator(self) -> float:
        """The stored fixed numerator ``sum_i g(t_i - L) * amount_i``."""
        return self._num

    @property
    def raw_total(self) -> float:
        """Undecayed sum of all amounts ever added."""
        return self._raw

    def _scale(self, factor: float) -> None:
        self._num *= factor

    def add(self, amount: float = 1.0, now: float | None = None) -> None:
        """Fold ``amount`` in with the static weight ``g(now - L)``."""
        now = self._clock() if now is None else now
        weight = _write_weight(self._engine, now, not self._num)  # may rescale _num
        self._num += weight * amount
        self._raw += amount

    def value(self, now: float | None = None) -> float:
        """Decayed count at ``now``: one division by ``g(now - L)``."""
        now = self._clock() if now is None else now
        return self._num / self._engine.normalizer(now)

    def snapshot(self, now: float | None = None) -> dict:
        """JSON-compatible state summary."""
        return {
            "type": "counter",
            "decayed": self.value(now),
            "raw_total": self._raw,
            "half_life_s": self.half_life_s,
        }


class DecayedRateGauge:
    """Events (or amounts) per second, exponentially time-decayed.

    A steady stream at rate ``r`` observed for long enough converges to
    ``rate() == r``; after the stream stops the estimate fades with the
    configured half-life.  The startup bias of plain ``alpha * count`` is
    corrected with the finite-horizon mass ``(1 - exp(-alpha * E)) / alpha``
    over the elapsed observation window ``E``.
    """

    __slots__ = ("_counter", "_clock", "_start")

    def __init__(self, half_life_s: float = 60.0, clock: Clock | None = None):
        self._clock = clock if clock is not None else time.time
        self._counter = DecayedCounter(half_life_s, clock=self._clock)
        self._start: float | None = None

    def observe(self, amount: float = 1.0, now: float | None = None) -> None:
        """Record ``amount`` worth of events at ``now``."""
        now = self._clock() if now is None else now
        if self._start is None:
            self._start = now
        self._counter.add(amount, now=now)

    def rate(self, now: float | None = None) -> float:
        """Decayed events/sec at ``now`` (0.0 before any observation)."""
        if self._start is None:
            return 0.0
        now = self._clock() if now is None else now
        elapsed = now - self._start
        alpha = self._counter.alpha
        if elapsed <= 0.0:
            return 0.0
        mass = (1.0 - math.exp(-alpha * elapsed)) / alpha
        if mass <= 0.0:
            return 0.0
        return self._counter.value(now) / mass

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: current rate plus raw totals."""
        return {
            "type": "rate",
            "per_sec": self.rate(now),
            "raw_total": self._counter.raw_total,
            "half_life_s": self._counter.half_life_s,
        }


class LatencyQuantiles:
    """Approximate quantiles of microsecond timings via the GK sketch.

    With ``half_life_s`` set, observations carry forward-decayed static
    weights ``g(now - L)`` so the quantiles track *recent* latency; the GK
    sketch stores the fixed numerators and the engine rescales the whole
    structure (a pure landmark shift, Section VI-A) only when the exponent
    grows too large.  With the default ``half_life_s=None`` the sketch is
    unweighted.
    """

    __slots__ = ("epsilon", "_clock", "_engine", "_gk", "_count")

    def __init__(
        self,
        epsilon: float = 0.01,
        half_life_s: float | None = None,
        clock: Clock | None = None,
    ):
        self.epsilon = epsilon
        self._clock = clock if clock is not None else time.time
        self._gk = GKSummary(epsilon)
        self._engine = (
            None if half_life_s is None
            else _decay_engine(half_life_s, self._gk.scale)
        )
        self._count = 0

    @property
    def count(self) -> int:
        """Number of observations folded in (undecayed)."""
        return self._count

    def observe(
        self, value: float, weight: float = 1.0, now: float | None = None
    ) -> None:
        """Record one timing (any unit; callers here use microseconds)."""
        if self._engine is not None:
            now = self._clock() if now is None else now
            weight *= _write_weight(self._engine, now, not self._count)
        self._gk.update(value, weight)
        self._count += 1

    def quantile(self, phi: float) -> float | None:
        """The ``phi``-quantile, or None when nothing was observed."""
        if len(self._gk) == 0:
            return None
        return self._gk.quantile(phi)

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: count plus p50/p90/p99."""
        return {
            "type": "latency",
            "count": self._count,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "epsilon": self.epsilon,
        }


class HotKeyTracker:
    """Top-k keys by (optionally forward-decayed) weight, via SpaceSaving.

    Theorem 2 of the paper: decayed heavy hitters reduce to *weighted*
    heavy hitters over static weights ``g(t_i - L)``.  That is exactly what
    this tracker feeds into :class:`WeightedSpaceSaving`; queries divide by
    the single normalizer ``g(now - L)`` so reported weights are decayed.
    """

    __slots__ = ("capacity", "_clock", "_engine", "_ss")

    def __init__(
        self,
        capacity: int = 64,
        half_life_s: float | None = None,
        clock: Clock | None = None,
    ):
        self.capacity = capacity
        self._clock = clock if clock is not None else time.time
        # Here, not at module level: only engine instrumentation builds a
        # tracker, so a server's metrics registry never loads SpaceSaving.
        from repro.sketches.spacesaving import WeightedSpaceSaving

        self._ss = WeightedSpaceSaving(capacity)
        self._engine = (
            None if half_life_s is None
            else _decay_engine(half_life_s, self._ss.scale)
        )

    @property
    def total_weight(self) -> float:
        """Total static weight folded in (numerator scale)."""
        return self._ss.total_weight

    def observe(
        self, key: Hashable, weight: float = 1.0, now: float | None = None
    ) -> None:
        """Add ``weight`` to ``key``."""
        if self._engine is not None:
            now = self._clock() if now is None else now
            weight *= _write_weight(self._engine, now, not len(self._ss))
        self._ss.update(key, weight)

    def top(
        self, k: int = 5, now: float | None = None
    ) -> list[tuple[Hashable, float, float]]:
        """The ``k`` heaviest keys as ``(key, decayed_weight, decayed_error)``.

        Sorted heaviest-first; ties broken by key repr for determinism.
        """
        normalizer = 1.0
        if self._engine is not None:
            now = self._clock() if now is None else now
            normalizer = self._engine.normalizer(now)
        counters = sorted(
            self._ss.counters(),
            key=lambda c: (-c.count, repr(c.item)),
        )
        return [
            (c.item, c.count / normalizer, c.error / normalizer)
            for c in counters[:k]
        ]

    def snapshot(self, now: float | None = None, k: int = 5) -> dict:
        """Serializable view: the top ``k`` keys with weights and errors."""
        return {
            "type": "hotkeys",
            "capacity": self.capacity,
            "top": [
                {"key": repr(key), "weight": weight, "error": error}
                for key, weight, error in self.top(k, now=now)
            ],
        }


class LastValueGauge:
    """Most recent sample of a sampled quantity (e.g. state bytes)."""

    __slots__ = ("_value",)

    def __init__(self):
        self._value: float | None = None

    def set(self, value: float) -> None:
        """Record the latest sample."""
        self._value = value

    def value(self) -> float | None:
        """The latest sample, or None before any ``set``."""
        return self._value

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: the latest sample."""
        return {"type": "gauge", "value": self._value}

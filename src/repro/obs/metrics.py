"""Self-instrumentation primitives built from the repo's own summaries.

The decayed metrics dogfood the paper: a counter or a rate is a
*forward-decayed* sum over wall-clock time, so recent behaviour is
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
* :class:`HotKeyTracker` — SpaceSaving over group keys;
* :class:`LastValueGauge` — most recent sample of a sampled quantity.

Every metric of a kind has one shape: the decayed two fade with
:data:`HALF_LIFE_S`, a latency sketch keeps rank error
:data:`LATENCY_EPSILON` and a tracker :data:`HOT_KEY_CAPACITY` keys.  The
decayed two read an injectable ``clock`` and take an explicit ``now=`` on
every operation, so tests drive them with a manual clock and snapshots
are deterministic.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable

from repro.core.decay import ForwardDecay
from repro.core.functions import ExponentialG
from repro.core.weights import ForwardWeightEngine
from repro.sketches.gk import GKSummary

__all__ = [
    "HALF_LIFE_S",
    "LATENCY_EPSILON",
    "HOT_KEY_CAPACITY",
    "DecayedCounter",
    "DecayedRateGauge",
    "LatencyQuantiles",
    "HotKeyTracker",
    "LastValueGauge",
]

#: Half-life of every decayed counter and rate, in seconds.
HALF_LIFE_S = 60.0
#: Rank error of every latency sketch.
LATENCY_EPSILON = 0.01
#: Keys a hot-key tracker keeps counters for.
HOT_KEY_CAPACITY = 64

_ALPHA = math.log(2.0) / HALF_LIFE_S

Clock = Callable[[], float]


class DecayedCounter:
    """Forward-exponentially-decayed counter over wall-clock time.

    ``add(amount)`` folds in ``amount * g(now - L)`` with
    ``g(n) = exp(alpha * n)`` — the item's *static* weight, fixed at arrival.
    ``value()`` divides the stored numerator by ``g(now - L)`` once; by the
    forward/backward equivalence for exponentials (Section III-A) the result
    is exactly the backward-exponentially-decayed count.  Reads are O(1) and
    never mutate state.
    """

    __slots__ = ("_clock", "_engine", "_num", "_raw")

    def __init__(self, clock: Clock):
        self._clock = clock
        self._engine = ForwardWeightEngine(
            ForwardDecay(ExponentialG(_ALPHA)), self._scale
        )
        self._num = 0.0
        self._raw = 0.0

    @property
    def raw_total(self) -> float:
        """Undecayed sum of all amounts ever added."""
        return self._raw

    def _scale(self, factor: float) -> None:
        self._num *= factor

    def add(self, amount: float = 1.0, now: float | None = None) -> None:
        """Fold ``amount`` in with the static weight ``g(now - L)``."""
        now = self._clock() if now is None else now
        if not self._num:
            # Any landmark is exact for empty state: anchor it here.
            self._engine.internal_landmark = now
        weight = self._engine.arrival_weight(now)  # may rescale _num
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
            "half_life_s": HALF_LIFE_S,
        }


class DecayedRateGauge:
    """Events (or amounts) per second, exponentially time-decayed.

    A steady stream at rate ``r`` observed for long enough converges to
    ``rate() == r``; after the stream stops the estimate fades with
    :data:`HALF_LIFE_S`.  The startup bias of plain ``alpha * count`` is
    corrected with the finite-horizon mass ``(1 - exp(-alpha * E)) / alpha``
    over the elapsed observation window ``E``.
    """

    __slots__ = ("_counter", "_clock", "_start")

    def __init__(self, clock: Clock):
        self._clock = clock
        self._counter = DecayedCounter(clock)
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
        if elapsed <= 0.0:
            return 0.0
        mass = (1.0 - math.exp(-_ALPHA * elapsed)) / _ALPHA
        if mass <= 0.0:
            return 0.0
        return self._counter.value(now) / mass

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: current rate plus raw totals."""
        return {
            "type": "rate",
            "per_sec": self.rate(now),
            "raw_total": self._counter.raw_total,
            "half_life_s": HALF_LIFE_S,
        }


class LatencyQuantiles:
    """Approximate quantiles of microsecond timings via the GK sketch."""

    __slots__ = ("_gk",)

    def __init__(self):
        self._gk = GKSummary(LATENCY_EPSILON)

    @property
    def count(self) -> int:
        """Number of observations folded in."""
        return int(self._gk.total_weight)

    def observe(self, value: float) -> None:
        """Record one timing (any unit; callers here use microseconds)."""
        self._gk.update(value)

    def quantile(self, phi: float) -> float | None:
        """The ``phi``-quantile, or None when nothing was observed."""
        if len(self._gk) == 0:
            return None
        return self._gk.quantile(phi)

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: count plus p50/p90/p99."""
        return {
            "type": "latency",
            "count": self.count,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "epsilon": LATENCY_EPSILON,
        }


class HotKeyTracker:
    """Top-k keys by observation count, via SpaceSaving."""

    __slots__ = ("_ss",)

    def __init__(self):
        # Here, not at module level: only engine instrumentation builds a
        # tracker, so a server's metrics registry never loads SpaceSaving.
        from repro.sketches.spacesaving import WeightedSpaceSaving

        self._ss = WeightedSpaceSaving(HOT_KEY_CAPACITY)

    def observe(self, key: Hashable) -> None:
        """Count one observation of ``key``."""
        self._ss.update(key, 1.0)

    def top(self, k: int = 5) -> list[tuple[Hashable, float, float]]:
        """The ``k`` heaviest keys as ``(key, weight, error)``.

        Sorted heaviest-first; ties broken by key repr for determinism.
        """
        counters = sorted(
            self._ss.counters(),
            key=lambda c: (-c.count, repr(c.item)),
        )
        return [(c.item, c.count, c.error) for c in counters[:k]]

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: the top five keys with weights and errors."""
        return {
            "type": "hotkeys",
            "capacity": HOT_KEY_CAPACITY,
            "top": [
                {"key": repr(key), "weight": weight, "error": error}
                for key, weight, error in self.top()
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

    def snapshot(self, now: float | None = None) -> dict:
        """Serializable view: the latest sample."""
        return {"type": "gauge", "value": self._value}

"""Forward-decayed count-distinct (Section IV-D, Definition 9, Theorem 4).

The decayed distinct count is

    D = sum_v max_{v_i = v} g(t_i - L) / g(t - L)

i.e. each distinct value contributes the weight of its most recent (highest
weighted) occurrence.  The numerator is the *dominance norm* of the stream
of ``(item, g(t_i - L))`` pairs and does not depend on the query time, so —
as with every other forward-decayed aggregate — it can be tracked online
and scaled once at query time.

Two implementations:

* :class:`ExactDecayedDistinct` — a dictionary of per-item maxima; exact,
  with space linear in the number of distinct items.  Useful as an oracle
  and for moderate cardinalities.
* :class:`DecayedDistinctCount` — the sketched version of Theorem 4,
  backed by :class:`~repro.sketches.dominance.DominanceNormEstimator`,
  using ``~O(1/eps^2)`` space for a ``(1 +- eps)`` estimate.

Both work natively in **log-weight space**, so exponential decay never
overflows and no landmark renormalization is required (contrast Section
VI-A, which is needed for the *linear* summaries).
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.decay import ForwardDecay, quadratic_decay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.functions import ExponentialG
from repro.core.protocol import DECAY, ITEMS, LOG_WEIGHT, MAX_TIME, RAW, Field, Nested
from repro.core.protocol import StreamSummary, Table, Value
from repro.core.registry import register_summary
from repro.sketches.dominance import DominanceNormEstimator

__all__ = ["ExactDecayedDistinct", "DecayedDistinctCount"]


def _log_static_weight(decay: ForwardDecay, timestamp: float) -> float:
    """``log g(t_i - L)``, computed overflow-free for exponential ``g``."""
    if isinstance(decay.g, ExponentialG):
        return decay.g.alpha * (timestamp - decay.landmark)
    weight = decay.static_weight(timestamp)
    if weight <= 0.0:
        raise ParameterError(
            "count-distinct requires strictly positive weights; "
            f"g({timestamp} - {decay.landmark}) = {weight}"
        )
    return math.log(weight)


def _log_normalizer(decay: ForwardDecay, query_time: float) -> float:
    if isinstance(decay.g, ExponentialG):
        return decay.g.alpha * (query_time - decay.landmark)
    return math.log(decay.normalizer(query_time))


@register_summary(
    "exact_decayed_distinct",
    kind="aggregate",
    input_kind="item_time",
    factory=lambda: ExactDecayedDistinct(quadratic_decay()),
)
class ExactDecayedDistinct(StreamSummary):
    """Exact decayed distinct count: per-item maximum static weight.

    Space is linear in the number of distinct items — the baseline/oracle
    against which the sketched estimator is validated.
    """

    _FIELDS = (
        DECAY,
        ITEMS,
        MAX_TIME,
        # One float (plus key slot) per distinct item.
        Field("log_max", Table(RAW, Value(LOG_WEIGHT)), initial=dict,
              entry_bytes=16),
    )

    def __init__(self, decay: ForwardDecay):
        super().__init__()
        self._decay = decay

    @property
    def decay(self) -> ForwardDecay:
        """The decay model this summary was built with."""
        return self._decay

    @property
    def distinct_items(self) -> int:
        """Number of distinct values observed (undecayed)."""
        return len(self._log_max)

    def update(self, item: Hashable, timestamp: float) -> None:
        """Record an occurrence of ``item`` at ``timestamp``."""
        log_weight = _log_static_weight(self._decay, timestamp)
        current = self._log_max.get(item)
        if current is None or log_weight > current:
            self._log_max[item] = log_weight
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp

    def query(self, query_time: float | None = None) -> float:
        """The exact decayed distinct count ``D`` at ``query_time``."""
        if self._items == 0:
            raise EmptySummaryError("distinct summary has seen no items")
        if query_time is None:
            query_time = self._max_time
        log_norm = _log_normalizer(self._decay, query_time)
        return math.fsum(
            math.exp(lw - log_norm) for lw in self._log_max.values()
        )

    def merge(self, other: "ExactDecayedDistinct") -> None:
        """Fold in a summary over a disjoint substream."""
        self._check_merge(other, "decay")
        for item, log_weight in other._log_max.items():
            current = self._log_max.get(item)
            if current is None or log_weight > current:
                self._log_max[item] = log_weight
        self._merge_scaled(other, 1.0)


@register_summary(
    "decayed_distinct_count",
    kind="aggregate",
    input_kind="item_time",
    factory=lambda: DecayedDistinctCount(quadratic_decay(), epsilon=0.2, seed=7),
)
class DecayedDistinctCount(StreamSummary):
    """Sketched decayed count-distinct (Theorem 4).

    Approximates ``D`` within relative error ``(1 +- eps)`` (with high
    probability) using the dominance-norm level-set estimator, in space
    ``~O(1/eps^2)`` independent of the number of distinct items.
    """

    _FIELDS = (
        DECAY,
        Field("epsilon", init=True),
        Field("seed", attr="_seed", init=True),
        ITEMS,
        MAX_TIME,
        Field("estimator", Nested(DominanceNormEstimator)),
    )

    def __init__(self, decay: ForwardDecay, epsilon: float = 0.1, seed: int = 0):
        super().__init__()
        self._decay = decay
        self._seed = seed
        self._estimator = DominanceNormEstimator(epsilon=epsilon, seed=seed)

    @property
    def decay(self) -> ForwardDecay:
        """The decay model this summary was built with."""
        return self._decay

    @property
    def epsilon(self) -> float:
        """Target relative error of the estimate."""
        return self._estimator.epsilon

    @property
    def items_processed(self) -> int:
        """Number of updates folded in (including via merges)."""
        return self._items

    def update(self, item: Hashable, timestamp: float) -> None:
        """Record an occurrence of ``item`` at ``timestamp``."""
        log_weight = _log_static_weight(self._decay, timestamp)
        self._estimator.update(item, log_weight)
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp

    def query(self, query_time: float | None = None) -> float:
        """Estimated decayed distinct count ``D`` at ``query_time``."""
        if self._items == 0:
            raise EmptySummaryError("distinct summary has seen no items")
        if query_time is None:
            query_time = self._max_time
        return self._estimator.estimate(_log_normalizer(self._decay, query_time))

    def merge(self, other: "DecayedDistinctCount") -> None:
        """Fold in a summary over a disjoint substream (Section VI-B)."""
        self._check_merge(other, "decay")
        self._estimator.merge(other._estimator)
        self._merge_scaled(other, 1.0)

"""Forward-decayed heavy hitters (Section IV-C, Theorem 2).

Definition 7 of the paper: the decayed count of a value ``v`` is
``d_v = sum_{v_i = v} g(t_i - L) / g(t - L)``, and the ``phi``-heavy hitters
are all values with ``d_v >= phi * C`` where ``C`` is the total decayed
count.  The ``g(t - L)`` normalizer cancels on both sides, so this is a
*weighted* heavy-hitters problem over the static arrival weights
``g(t_i - L)`` — solved here with the weighted SpaceSaving summary in
``O(1/eps)`` counters and ``O(log 1/eps)`` time per update, exactly the
bounds of Theorem 2.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

from repro.core.decay import ForwardDecay, quadratic_decay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import DECAY, ITEMS, LANDMARK, MAX_TIME, WEIGHT, Field, Nested
from repro.core.protocol import StreamSummary
from repro.core.registry import register_summary
from repro.core.weights import ForwardWeighted, ForwardWeightEngine
from repro.sketches.spacesaving import WeightedSpaceSaving

__all__ = ["DecayedHeavyHitters", "HeavyHitter"]


class HeavyHitter(NamedTuple):
    """One reported heavy hitter."""

    item: Hashable
    decayed_count: float
    """Estimated decayed count ``d_v`` at the query time."""
    error_bound: float
    """Maximum overestimation of ``decayed_count`` (same scaling)."""


@register_summary(
    "decayed_heavy_hitters",
    kind="aggregate",
    input_kind="item_time",
    factory=lambda: DecayedHeavyHitters(quadratic_decay(), epsilon=0.05),
)
class DecayedHeavyHitters(ForwardWeighted, StreamSummary):
    """Streaming ``phi``-heavy hitters under any forward decay function.

    Parameters
    ----------
    decay:
        Forward-decay model supplying ``g`` and the landmark ``L``.
    epsilon:
        Additive error on decayed counts, as a fraction of the total
        decayed count ``C``: the summary reports all items with
        ``d_v >= phi * C`` and none with ``d_v < (phi - epsilon) * C``.

    Guarantees (Theorem 2): space ``O(1/epsilon)`` counters, update time
    ``O(log 1/epsilon)``.  Out-of-order arrivals are handled natively and
    summaries over disjoint substreams merge (Section VI-B).
    """

    _FIELDS = (
        DECAY,
        LANDMARK,
        Field("epsilon", init=True),
        ITEMS,
        MAX_TIME,
        Field("sketch", Nested(WeightedSpaceSaving, WEIGHT)),
    )

    def __init__(self, decay: ForwardDecay, epsilon: float = 0.01):
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        super().__init__()
        self.epsilon = epsilon
        self._sketch = WeightedSpaceSaving.from_epsilon(epsilon)
        self._engine = ForwardWeightEngine(decay, self.scale)

    def update(self, item: Hashable, timestamp: float, count: float = 1.0) -> None:
        """Record an occurrence of ``item`` at ``timestamp``.

        ``count`` supports pre-aggregated input (e.g. a packet of ``count``
        bytes when tracking decayed byte counts): the effective weight is
        ``count * g(t_i - L)``.
        """
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count!r}")
        weight = self._engine.arrival_weight(timestamp)
        self._sketch.update(item, weight * count)
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp

    def _normalizer(self, query_time: float | None) -> float:
        """``g(t - L)`` at ``query_time``, the last item's time by default."""
        if self._items == 0:
            raise EmptySummaryError("heavy-hitter summary has seen no items")
        return self._engine.normalizer(
            self._max_time if query_time is None else query_time)

    def decayed_total(self, query_time: float | None = None) -> float:
        """The total decayed count ``C`` at ``query_time`` (Definition 5)."""
        return self._sketch.total_weight / self._normalizer(query_time)

    def decayed_count(self, item: Hashable, query_time: float | None = None) -> float:
        """Estimated decayed count ``d_v`` of one item (0 if unmonitored)."""
        return self._sketch.estimate(item) / self._normalizer(query_time)

    def heavy_hitters(
        self, phi: float, query_time: float | None = None
    ) -> list[HeavyHitter]:
        """All items with estimated decayed count ``>= phi * C``.

        Contains every true ``phi``-heavy hitter; may additionally contain
        items with ``d_v >= (phi - epsilon) * C`` (Theorem 2's guarantee).
        Results are sorted by descending decayed count.
        """
        return self._reported(self._sketch.heavy_hitters(phi), query_time)

    def top_k(self, k: int, query_time: float | None = None) -> list[HeavyHitter]:
        """The ``k`` items with the largest estimated decayed counts."""
        return self._reported(self._sketch.top_k(k), query_time)

    def _reported(self, counters, query_time: float | None) -> list[HeavyHitter]:
        normalizer = self._normalizer(query_time)
        return [HeavyHitter(c.item, c.count / normalizer, c.error / normalizer)
                for c in counters]

    def merge(self, other: "DecayedHeavyHitters") -> None:
        """Fold in a summary of a disjoint substream (Section VI-B)."""
        self._check_merge(other, "epsilon")
        factor = self._engine.align_for_merge(other._engine)
        self._sketch.merge(other._sketch, factor)
        self._merge_scaled(other, factor)

    def query(
        self, phi: float = 0.05, query_time: float | None = None
    ) -> list[HeavyHitter]:
        """Primary answer (StreamSummary protocol): the ``phi``-heavy hitters."""
        return self.heavy_hitters(phi, query_time)

"""Forward-decayed sampling *with* replacement (Section V-A, Theorem 5).

Target distribution: in each drawing, item ``i`` is picked with probability

    w(i, t) / sum_j w(j, t)  =  g(t_i - L) / sum_j g(t_j - L)

(the ``g(t - L)`` normalizers cancel).  The paper's algorithm generalizes
the classic single-item sampler: keep the running weight total
``W_i = sum_{j<=i} g(t_j - L)`` and replace the retained item with item
``i`` with probability ``g(t_i - L) / W_i``; a telescoping product shows
the final retention probability is exactly ``g(t_i - L) / W_n``
(Theorem 5: constant space and constant time per tuple, per drawing).

A sample of size ``s`` runs ``s`` independent single-item samplers, each
with the acceleration the paper sketches after Theorem 5: the chance that
a slot last replaced at running total ``W0`` survives to total ``W``
telescopes to ``W0 / W``, so the total at its next replacement is
``W0 / u`` for uniform ``u``.  That is one draw per *replacement*, not
per item, with exactly the coin-per-item distribution.  For
exponential ``g`` the running totals renormalize against newer landmarks
exactly like the aggregates of :mod:`repro.core.aggregates` (Section VI-A);
retention probabilities are ratios of ``g`` values, so answers are
unchanged.
"""

from __future__ import annotations

import random
from typing import Generic, Hashable, TypeVar

from repro.core.decay import ForwardDecay, quadratic_decay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.keyed_random import KeyedRandom
from repro.core.protocol import DECAY, GENERATOR, LANDMARK, RAW, WEIGHT, Field, ListOf
from repro.core.protocol import StreamSummary, Value
from repro.core.registry import register_summary
from repro.core.weights import ForwardWeighted, ForwardWeightEngine

__all__ = ["DecayedSamplerWithReplacement"]

T = TypeVar("T", bound=Hashable)


@register_summary(
    "decayed_with_replacement",
    kind="sampler",
    input_kind="item_time",
    factory=lambda: DecayedSamplerWithReplacement(
        quadratic_decay(), s=8, rng=random.Random(7)
    ),
    mergeable=False,
    exact_merge=False,
)
class DecayedSamplerWithReplacement(ForwardWeighted, StreamSummary, Generic[T]):
    """Size-``s`` sample with replacement under any forward decay function.

    Parameters
    ----------
    decay:
        Forward-decay model supplying ``g`` and the landmark.
    s:
        Number of independent drawings maintained in parallel.
    rng:
        Source of randomness (seed it for reproducibility).

    Space is ``O(s)``.  An update that replaces no slot costs one
    comparison; one that replaces costs ``O(s)`` and one draw per slot it
    replaces.
    """

    # s sizes the slot table: believe it only as far as the payload
    # carries slots, or a flipped bit allocates gigabytes.  And every
    # slot needs its threshold, or update indexes past the list.  The
    # footprint is one slot per drawing plus the total.
    _FIELDS = (
        DECAY,
        LANDMARK,
        Field("s", init=True),
        Field("weight_total", Value(WEIGHT, nonneg=True), initial=0.0,
              entry_bytes=8),
        Field("slots", ListOf(RAW, length="s"), entry_bytes=8),
        Field("items", initial=0),
        Field("next_replace", ListOf(Value(WEIGHT, nonneg=True), length="s")),
        Field("rng", GENERATOR, attr="_rng", init=True),
    )

    def __init__(
        self, decay: ForwardDecay, s: int, rng: random.Random | None = None
    ):
        if s < 1:
            raise ParameterError(f"s must be >= 1, got {s!r}")
        super().__init__()
        self.s = s
        self._rng = KeyedRandom.from_rng(rng)
        self._engine = ForwardWeightEngine(decay, self.scale)
        self._slots: list[T | None] = [None] * s
        # Slot j next replaces when the running total reaches
        # _next_replace[j].  The cached minimum gives an O(1) "no slot
        # fires" fast path.
        self._next_replace: list[float] = [0.0] * s
        self._min_threshold = 0.0

    @property
    def total_weight(self) -> float:
        """Running total of arrival weights (internal-landmark scale)."""
        return self._weight_total

    def update(self, item: T, timestamp: float) -> None:
        """Offer one stream item; each slot whose threshold the running
        total reaches takes it and draws its next threshold."""
        weight = self._engine.arrival_weight(timestamp)  # may rescale first
        self._weight_total += weight
        total = self._weight_total
        if total >= self._min_threshold:
            rng = self._rng
            slots = self._slots
            thresholds = self._next_replace
            for index in range(self.s):
                if total >= thresholds[index]:
                    slots[index] = item
                    u = rng.random()
                    while u <= 0.0:  # pragma: no cover
                        u = rng.random()
                    thresholds[index] = total / u
            self._min_threshold = min(thresholds)
        self._items += 1

    def sample(self) -> list[T]:
        """The current size-``s`` sample (one item per drawing)."""
        if self._items == 0:
            raise EmptySummaryError("sampler has seen no items")
        return [slot for slot in self._slots]  # type: ignore[misc]

    def query(self) -> list[T]:
        """Primary answer (StreamSummary protocol): the current sample."""
        return self.sample()

    def _reindex(self) -> None:
        self._min_threshold = min(self._next_replace)

"""The forward-decay weight engine shared by all decayed summaries.

Every decayed summary in this library stores state that is *linear* in the
arrival weights ``g(t_i - L)``.  This module centralizes the three pieces of
bookkeeping they all need:

* computing the arrival weight of an item (Definition 3's numerator);
* the Section VI-A renormalization for exponential ``g``: when an arrival
  exponent ``alpha * (t_i - L)`` passes :data:`SHIFT_EXPONENT`, shift the
  internal landmark forward and rescale all linear state by
  ``exp(-alpha * (L' - L))``;
* aligning two engines' internal landmarks before a merge (Section VI-B),
  returning the factor that converts the peer's stored state.

Summaries own their state; the engine calls back into a ``scale_state``
callable they provide whenever a landmark shift rescales the world.  This
is the library's one renormalization rule: the decayed summaries, the
self-instrumentation metrics of :mod:`repro.obs.metrics` and nothing else
rescale stored state, and all of them do it through this engine.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from repro.core.decay import ForwardDecay
from repro.core.errors import MergeError
from repro.core.functions import ExponentialG

__all__ = ["ForwardWeightEngine", "ForwardWeighted", "SHIFT_EXPONENT"]

ScaleState = Callable[[float], None]

#: Shift the landmark once an arrival weight would pass ``sqrt(float max)``,
#: i.e. once its exponent passes ``log(sqrt(float max))`` ~ 354.9: that
#: leaves headroom for sums of many weights and for squares in variances.
SHIFT_EXPONENT = math.log(math.sqrt(sys.float_info.max))


class ForwardWeightEngine:
    """Arrival-weight computation with transparent exponential renormalization.

    Parameters
    ----------
    decay:
        The forward-decay model (function ``g`` plus nominal landmark ``L``).
    scale_state:
        Callback invoked with a factor in ``(0, 1)`` whenever the engine
        shifts its internal landmark (the least positive float where it
        underflows); the owner must multiply all its linear state by it.
    """

    __slots__ = ("decay", "_g", "_scale_state", "_landmark", "_exp_alpha", "shifts")

    def __init__(self, decay: ForwardDecay, scale_state: ScaleState):
        self.decay = decay
        self._g = decay.g
        self._scale_state = scale_state
        self._landmark = decay.landmark
        self._exp_alpha = decay.g.alpha if isinstance(decay.g, ExponentialG) else None
        #: Number of renormalizations performed so far.
        self.shifts = 0

    @property
    def internal_landmark(self) -> float:
        """The engine's current (possibly advanced) landmark.

        Set directly, it moves without rescaling: for checkpoint
        restoration, where the owner restores state saved against exactly
        this landmark, and for anchoring an engine whose owner holds no
        state yet.
        """
        return self._landmark

    @internal_landmark.setter
    def internal_landmark(self, landmark: float) -> None:
        self._landmark = landmark

    def arrival_weight(self, timestamp: float) -> float:
        """Return ``g(t_i - L_internal)``, renormalizing first if needed.

        For exponential ``g`` the offset may be negative (out-of-order items
        older than an advanced internal landmark); the weight is then simply
        ``< 1``, which is correct after the state rescaling that moved the
        landmark.
        """
        if self._exp_alpha is not None:
            exponent = self._exp_alpha * (timestamp - self._landmark)
            if exponent > SHIFT_EXPONENT:
                self._shift_to(timestamp)
                exponent = 0.0
            return math.exp(exponent)
        return self.decay.static_weight(timestamp)

    def normalizer(self, query_time: float) -> float:
        """Return ``g(t - L_internal)`` (1.0 when ``g`` evaluates to zero).

        An exponential normalizer past the float range is ``inf``, so an
        answer queried that long after its items underflows to 0.0.
        """
        if self._exp_alpha is not None:
            try:
                return math.exp(self._exp_alpha * (query_time - self._landmark))
            except OverflowError:
                return math.inf
        value = self.decay.normalizer(query_time)
        return value if value != 0.0 else 1.0

    def _shift_to(self, new_landmark: float) -> None:
        factor = math.exp(self._exp_alpha * (self._landmark - new_landmark))
        self._scale_state(factor or math.ulp(0.0))  # sketches refuse 0
        self._landmark = new_landmark
        self.shifts += 1

    def check_compatible(self, other: "ForwardWeightEngine") -> None:
        """Raise :class:`MergeError` unless both engines share (g, L)."""
        if other._g != self._g or other.decay.landmark != self.decay.landmark:
            raise MergeError(
                "summaries must share the decay function and landmark to merge "
                f"(self: {self._g!r} @ {self.decay.landmark}, "
                f"other: {other._g!r} @ {other.decay.landmark})"
            )

    def align_for_merge(self, other: "ForwardWeightEngine") -> float:
        """Prepare to merge a peer's state; return its conversion factor.

        If the peer renormalized further ahead, this engine advances first
        (rescaling its owner's state via the callback) so the returned
        factor is always ``<= 1`` and cannot overflow.
        """
        self.check_compatible(other)
        if self._exp_alpha is None:
            return 1.0
        if other._landmark > self._landmark:
            self._shift_to(other._landmark)
        return math.exp(self._exp_alpha * (other._landmark - self._landmark))


class ForwardWeighted:
    """The ``decay`` and ``items_processed`` of a summary that weighs its
    arrivals through a :class:`ForwardWeightEngine` held as ``_engine``."""

    @property
    def decay(self) -> ForwardDecay:
        """The decay model this summary was built with."""
        return self._engine.decay

    @property
    def items_processed(self) -> int:
        """Number of updates folded in (including via merges)."""
        return self._items

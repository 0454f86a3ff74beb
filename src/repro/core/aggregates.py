"""Decayed aggregates under forward decay (Section IV-A and IV-B).

Every aggregate here exploits the paper's central decomposition: under
forward decay the weight of item ``i`` is ``g(t_i - L) / g(t - L)``, whose
numerator is fixed at arrival.  Therefore a decayed sum/count/min/max/... is
an ordinary *weighted* aggregate over static weights, plus one division by
``g(t - L)`` at query time.  Theorem 1: anything computable in constant
space without decay is computable in constant space under any forward decay
function — and that is exactly what these classes do.

Numerical robustness (Section VI-A): for exponential ``g`` the stored values
``exp(alpha * (t_i - L))`` grow without bound.  All aggregates in this
module hold *linear combinations* of ``g`` values, so they transparently
renormalize against a newer internal landmark whenever an arrival exponent
passes :data:`~repro.core.weights.SHIFT_EXPONENT` (the shared
:class:`~repro.core.weights.ForwardWeightEngine` decides); query answers
are unaffected.

All aggregates are mergeable (Section VI-B): summaries built over disjoint
substreams with the same decay function and landmark combine into the
summary of the union.
"""

from __future__ import annotations

import math
from abc import abstractmethod
from typing import Callable, ClassVar

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, MergeError, ParameterError
from repro.core.protocol import StreamSummary, decode_number, encode_number
from repro.core.registry import register_summary
from repro.core.weights import ForwardWeightEngine

__all__ = [
    "DecayedAggregate",
    "DecayedCount",
    "DecayedSum",
    "DecayedAverage",
    "DecayedVariance",
    "DecayedMin",
    "DecayedMax",
    "DecayedAlgebraic",
    "NAMED_EXPRESSIONS",
]


def _default_decay() -> ForwardDecay:
    from repro.core.functions import PolynomialG

    return ForwardDecay(PolynomialG(2.0))


class DecayedAggregate(StreamSummary):
    """Base class handling weights, renormalization and merge checks.

    Subclasses hold state that is a linear combination of arrival weights
    ``g(t_i - L)`` and implement :meth:`_scale_state` (multiply all linear
    state by a factor), :meth:`_update_weighted` (fold in one item), and
    :meth:`_query_scaled` (produce the answer given the normalizer
    ``g(t - L)``).
    """

    def __init__(self, decay: ForwardDecay):
        self._decay = decay
        self._engine = ForwardWeightEngine(decay, self._scale_state)
        self._items = 0
        self._max_time = -math.inf

    # -- public API ----------------------------------------------------------

    @property
    def decay(self) -> ForwardDecay:
        """The decay model (with its *original* landmark) this aggregate uses."""
        return self._decay

    @property
    def items_processed(self) -> int:
        """Number of updates folded into this aggregate (including merges)."""
        return self._items

    @property
    def last_timestamp(self) -> float:
        """Largest item timestamp observed (``-inf`` when empty)."""
        return self._max_time

    def update(self, timestamp: float, value: float = 1.0) -> None:
        """Fold in one stream item ``(timestamp, value)``.

        Arrival order is irrelevant — out-of-order items are handled
        naturally (Section VI-B) because the weight depends only on the
        item's own timestamp.
        """
        weight = self._engine.arrival_weight(timestamp)
        self._update_weighted(weight, value)
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp

    def query(self, query_time: float | None = None):
        """Return the decayed aggregate evaluated at ``query_time``.

        When ``query_time`` is omitted, the largest observed timestamp is
        used.  Section VI-B cautions that query times earlier than observed
        timestamps make some weights exceed 1; we allow them (they express
        historical queries) but the default avoids them.
        """
        if self._items == 0:
            raise EmptySummaryError(f"{type(self).__name__} has seen no items")
        if query_time is None:
            query_time = self._max_time
        normalizer = self._engine.normalizer(query_time)
        return self._query_scaled(normalizer)

    def merge(self, other: "DecayedAggregate") -> None:
        """Absorb ``other`` (built with identical decay) into this aggregate.

        After merging, this summary answers queries as if it had processed
        the concatenation of both substreams.  ``other`` is not modified.
        """
        self._check_mergeable(other)
        factor = self._engine.align_for_merge(other._engine)
        self._merge_scaled(other, factor)
        self._items += other._items
        if other._max_time > self._max_time:
            self._max_time = other._max_time

    def state_size_bytes(self) -> int:
        """Approximate state footprint: 8 bytes per stored float.

        Matches the accounting of Figure 2(d) in the paper, where forward
        decay stores 8-byte floating point values per group.
        """
        return 8 * self._num_state_floats()

    # -- serde (StreamSummary protocol) ---------------------------------------

    #: Names of the linear-state attributes captured by serialization.
    _SERDE_FIELDS: ClassVar[tuple[str, ...]] = ()

    def _state_payload(self) -> dict:
        from repro.core.serde import dump_decay

        return {
            "decay": dump_decay(self._decay),
            "internal_landmark": self._engine.internal_landmark,
            "items": self._items,
            "max_time": encode_number(self._max_time),
            "state": {
                name: encode_number(getattr(self, name))
                for name in type(self)._SERDE_FIELDS
            },
        }

    @classmethod
    def _from_payload(cls, payload: dict) -> "DecayedAggregate":
        from repro.core.serde import load_decay

        summary = cls(load_decay(payload["decay"]))
        summary._restore_common(payload)
        return summary

    def _restore_common(self, payload: dict) -> None:
        self._engine.restore_landmark(payload["internal_landmark"])
        self._items = payload["items"]
        self._max_time = decode_number(payload["max_time"])
        for name, value in payload["state"].items():
            setattr(self, name, decode_number(value))

    # -- weight machinery ------------------------------------------------------

    def _check_mergeable(self, other: "DecayedAggregate") -> None:
        if type(other) is not type(self):
            raise MergeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )

    # -- subclass contract -----------------------------------------------------

    @abstractmethod
    def _update_weighted(self, weight: float, value: float) -> None:
        """Fold one item with arrival weight ``weight`` and value ``value``."""

    @abstractmethod
    def _query_scaled(self, normalizer: float):
        """Produce the decayed answer given ``g(t - L_internal)``."""

    @abstractmethod
    def _scale_state(self, factor: float) -> None:
        """Multiply all stored linear state by ``factor`` (renormalization)."""

    @abstractmethod
    def _merge_scaled(self, other: "DecayedAggregate", factor: float) -> None:
        """Fold other's state, pre-multiplied by ``factor``, into self."""

    @abstractmethod
    def _num_state_floats(self) -> int:
        """Number of floats in the stored state (for space accounting)."""


@register_summary(
    "decayed_count",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedCount(_default_decay()),
)
class DecayedCount(DecayedAggregate):
    """Decayed count ``C = sum_i g(t_i - L) / g(t - L)`` (Definition 5)."""

    _SERDE_FIELDS = ("_weight_sum",)

    def __init__(self, decay: ForwardDecay):
        super().__init__(decay)
        self._weight_sum = 0.0

    def _update_weighted(self, weight: float, value: float) -> None:
        self._weight_sum += weight

    def _query_scaled(self, normalizer: float) -> float:
        return self._weight_sum / normalizer

    def _scale_state(self, factor: float) -> None:
        self._weight_sum *= factor

    def _merge_scaled(self, other: "DecayedCount", factor: float) -> None:
        self._weight_sum += other._weight_sum * factor

    def _num_state_floats(self) -> int:
        return 1


@register_summary(
    "decayed_sum",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedSum(_default_decay()),
)
class DecayedSum(DecayedAggregate):
    """Decayed sum ``S = sum_i g(t_i - L) v_i / g(t - L)`` (Definition 5)."""

    _SERDE_FIELDS = ("_value_sum",)

    def __init__(self, decay: ForwardDecay):
        super().__init__(decay)
        self._value_sum = 0.0

    def _update_weighted(self, weight: float, value: float) -> None:
        self._value_sum += weight * value

    def _query_scaled(self, normalizer: float) -> float:
        return self._value_sum / normalizer

    def _scale_state(self, factor: float) -> None:
        self._value_sum *= factor

    def _merge_scaled(self, other: "DecayedSum", factor: float) -> None:
        self._value_sum += other._value_sum * factor

    def _num_state_floats(self) -> int:
        return 1


@register_summary(
    "decayed_average",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedAverage(_default_decay()),
)
class DecayedAverage(DecayedAggregate):
    """Decayed average ``A = S / C`` (Definition 5).

    As the paper notes, ``A`` does not change as the query time advances:
    the ``g(t - L)`` normalizers cancel, leaving a weighted average of the
    input values tilted toward recent ones.
    """

    _SERDE_FIELDS = ("_weight_sum", "_value_sum")

    def __init__(self, decay: ForwardDecay):
        super().__init__(decay)
        self._weight_sum = 0.0
        self._value_sum = 0.0

    def _update_weighted(self, weight: float, value: float) -> None:
        self._weight_sum += weight
        self._value_sum += weight * value

    def _query_scaled(self, normalizer: float) -> float:
        return self._value_sum / self._weight_sum

    def _scale_state(self, factor: float) -> None:
        self._weight_sum *= factor
        self._value_sum *= factor

    def _merge_scaled(self, other: "DecayedAverage", factor: float) -> None:
        self._weight_sum += other._weight_sum * factor
        self._value_sum += other._value_sum * factor

    def _num_state_floats(self) -> int:
        return 2


@register_summary(
    "decayed_variance",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedVariance(_default_decay()),
)
class DecayedVariance(DecayedAggregate):
    """Decayed variance ``V = (sum_i g_i v_i^2)/C' - A^2`` (Section IV-A).

    Interprets the normalized decayed weights as probabilities; returns the
    variance of the value distribution under those probabilities.  Like the
    average, it is invariant to the query time.
    """

    _SERDE_FIELDS = ("_weight_sum", "_value_sum", "_square_sum")

    def __init__(self, decay: ForwardDecay):
        super().__init__(decay)
        self._weight_sum = 0.0
        self._value_sum = 0.0
        self._square_sum = 0.0

    def _update_weighted(self, weight: float, value: float) -> None:
        self._weight_sum += weight
        self._value_sum += weight * value
        self._square_sum += weight * value * value

    def _query_scaled(self, normalizer: float) -> float:
        mean = self._value_sum / self._weight_sum
        variance = self._square_sum / self._weight_sum - mean * mean
        # Guard tiny negative values from float cancellation.
        return variance if variance > 0.0 else 0.0

    def _scale_state(self, factor: float) -> None:
        self._weight_sum *= factor
        self._value_sum *= factor
        self._square_sum *= factor

    def _merge_scaled(self, other: "DecayedVariance", factor: float) -> None:
        self._weight_sum += other._weight_sum * factor
        self._value_sum += other._value_sum * factor
        self._square_sum += other._square_sum * factor

    def _num_state_floats(self) -> int:
        return 3


@register_summary(
    "decayed_min",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedMin(_default_decay()),
)
class DecayedMin(DecayedAggregate):
    """Decayed minimum ``MIN = min_i g(t_i - L) v_i / g(t - L)`` (Definition 6).

    Only the smallest weighted product need be retained, making this a
    constant-space computation — provably impossible for backward decay,
    where the sliding-window case forces remembering the window contents.
    """

    _SERDE_FIELDS = ("_best",)

    def __init__(self, decay: ForwardDecay):
        super().__init__(decay)
        self._best = math.inf

    def _update_weighted(self, weight: float, value: float) -> None:
        candidate = weight * value
        if candidate < self._best:
            self._best = candidate

    def _query_scaled(self, normalizer: float) -> float:
        return self._best / normalizer

    def _scale_state(self, factor: float) -> None:
        if math.isfinite(self._best):
            self._best *= factor

    def _merge_scaled(self, other: "DecayedMin", factor: float) -> None:
        candidate = other._best * factor
        if candidate < self._best:
            self._best = candidate

    def _num_state_floats(self) -> int:
        return 1


@register_summary(
    "decayed_max",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedMax(_default_decay()),
)
class DecayedMax(DecayedAggregate):
    """Decayed maximum ``MAX = max_i g(t_i - L) v_i / g(t - L)`` (Definition 6)."""

    _SERDE_FIELDS = ("_best",)

    def __init__(self, decay: ForwardDecay):
        super().__init__(decay)
        self._best = -math.inf

    def _update_weighted(self, weight: float, value: float) -> None:
        candidate = weight * value
        if candidate > self._best:
            self._best = candidate

    def _query_scaled(self, normalizer: float) -> float:
        return self._best / normalizer

    def _scale_state(self, factor: float) -> None:
        if math.isfinite(self._best):
            self._best *= factor

    def _merge_scaled(self, other: "DecayedMax", factor: float) -> None:
        candidate = other._best * factor
        if candidate > self._best:
            self._best = candidate

    def _num_state_floats(self) -> int:
        return 1


#: Serializable expressions for :class:`DecayedAlgebraic`.  Constructing the
#: aggregate with one of these names (instead of a raw callable) makes it
#: checkpointable via the ``StreamSummary`` serde protocol.
NAMED_EXPRESSIONS: dict[str, Callable[[float], float]] = {
    "identity": lambda v: v,
    "square": lambda v: v * v,
    "cube": lambda v: v * v * v,
    "abs": abs,
}


@register_summary(
    "decayed_algebraic",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedAlgebraic(_default_decay(), "square"),
)
class DecayedAlgebraic(DecayedAggregate):
    """Decayed summation of an arbitrary arithmetic expression (Theorem 1).

    ``expression`` maps an item's value to the term to be summed; the
    aggregate maintains ``sum_i g(t_i - L) * expression(v_i)`` and scales by
    ``g(t - L)`` at query time.  This realizes Theorem 1 of the paper: any
    constant-space summation remains constant-space under forward decay.

    ``expression`` may be a raw callable or the name of an entry in
    :data:`NAMED_EXPRESSIONS`; only named expressions survive ``to_bytes``.

    Example — the paper's quadratic-decayed sum of packet lengths::

        agg = DecayedAlgebraic(ForwardDecay(PolynomialG(2), L), lambda v: v)

    or the decayed sum of squares used by variance::

        agg = DecayedAlgebraic(decay, "square")
    """

    _SERDE_FIELDS = ("_term_sum",)

    def __init__(
        self, decay: ForwardDecay, expression: Callable[[float], float] | str
    ):
        super().__init__(decay)
        if isinstance(expression, str):
            if expression not in NAMED_EXPRESSIONS:
                raise ParameterError(
                    f"unknown named expression {expression!r}; "
                    f"known: {sorted(NAMED_EXPRESSIONS)}"
                )
            self._expression_name: str | None = expression
            expression = NAMED_EXPRESSIONS[expression]
        elif callable(expression):
            self._expression_name = None
        else:
            raise ParameterError("expression must be callable or a known name")
        self._expression = expression
        self._term_sum = 0.0

    def _update_weighted(self, weight: float, value: float) -> None:
        self._term_sum += weight * self._expression(value)

    def _query_scaled(self, normalizer: float) -> float:
        return self._term_sum / normalizer

    def _scale_state(self, factor: float) -> None:
        self._term_sum *= factor

    def _merge_scaled(self, other: "DecayedAlgebraic", factor: float) -> None:
        self._term_sum += other._term_sum * factor

    def _check_mergeable(self, other: "DecayedAggregate") -> None:
        super()._check_mergeable(other)
        if other._expression is not self._expression:  # type: ignore[attr-defined]
            raise MergeError(
                "DecayedAlgebraic summaries must share the same expression object"
            )

    def _num_state_floats(self) -> int:
        return 1

    def _state_payload(self) -> dict:
        if self._expression_name is None:
            raise ParameterError(
                "DecayedAlgebraic with a raw callable cannot be serialized; "
                "construct it with a NAMED_EXPRESSIONS name instead"
            )
        payload = super()._state_payload()
        payload["expression"] = self._expression_name
        return payload

    @classmethod
    def _from_payload(cls, payload: dict) -> "DecayedAlgebraic":
        from repro.core.serde import load_decay

        summary = cls(load_decay(payload["decay"]), payload["expression"])
        summary._restore_common(payload)
        return summary

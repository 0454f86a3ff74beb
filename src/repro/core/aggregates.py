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
import operator
from abc import abstractmethod
from typing import Callable

from repro.core.decay import ForwardDecay, quadratic_decay
from repro.core.errors import EmptySummaryError, MergeError, ParameterError
from repro.core.protocol import DECAY, ITEMS, LANDMARK, MAX_TIME, WEIGHT
from repro.core.protocol import Field, StreamSummary, Value
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


#: A float of the state, linear in the arrival weights.
_WEIGHT = Value(WEIGHT)
#: ``g`` values, never negative: refused on restore when they are.
_WEIGHT_SUM = Value(WEIGHT, nonneg=True)


def _fields(initial: float = 0.0, fold=operator.add, **state: Value):
    """An aggregate's payload: the fields every aggregate shares, then its
    linear state as one dict keyed by attribute name, each float starting
    at ``initial`` and merged by ``fold``.  Figure 2(d) counts 8 bytes per
    state float, the forward-decay cost per group."""
    return (DECAY, LANDMARK, ITEMS, MAX_TIME, *(
        Field(f"state.{name}", value, attr=name, initial=initial, fold=fold,
              entry_bytes=8)
        for name, value in state.items()
    ))


class DecayedAggregate(StreamSummary):
    """Base class handling weights, renormalization and merge checks.

    Subclasses hold state that is a linear combination of arrival weights
    ``g(t_i - L)``, declared as the ``state`` group of their ``_FIELDS``
    (which derives its scale, merge, size and payload), and implement
    :meth:`_update_weighted` (fold in one item) and :meth:`_query_scaled`
    (produce the answer given the normalizer ``g(t - L)``).
    """

    def __init__(self, decay: ForwardDecay):
        super().__init__()
        self._decay = decay
        self._engine = ForwardWeightEngine(decay, self.scale)

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
        self._check_merge(other)
        self._merge_scaled(other, self._engine.align_for_merge(other._engine))

    # -- subclass contract -----------------------------------------------------

    @abstractmethod
    def _update_weighted(self, weight: float, value: float) -> None:
        """Fold one item with arrival weight ``weight`` and value ``value``."""

    @abstractmethod
    def _query_scaled(self, normalizer: float):
        """Produce the decayed answer given ``g(t - L_internal)``."""


@register_summary(
    "decayed_count",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedCount(quadratic_decay()),
)
class DecayedCount(DecayedAggregate):
    """Decayed count ``C = sum_i g(t_i - L) / g(t - L)`` (Definition 5)."""

    _FIELDS = _fields(_weight_sum=_WEIGHT_SUM)

    def _update_weighted(self, weight: float, value: float) -> None:
        self._weight_sum += weight

    def _query_scaled(self, normalizer: float) -> float:
        return self._weight_sum / normalizer


@register_summary(
    "decayed_sum",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedSum(quadratic_decay()),
)
class DecayedSum(DecayedAggregate):
    """Decayed sum ``S = sum_i g(t_i - L) v_i / g(t - L)`` (Definition 5)."""

    _FIELDS = _fields(_value_sum=_WEIGHT)

    def _update_weighted(self, weight: float, value: float) -> None:
        self._value_sum += weight * value

    def _query_scaled(self, normalizer: float) -> float:
        return self._value_sum / normalizer


@register_summary(
    "decayed_average",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedAverage(quadratic_decay()),
)
class DecayedAverage(DecayedAggregate):
    """Decayed average ``A = S / C`` (Definition 5).

    As the paper notes, ``A`` does not change as the query time advances:
    the ``g(t - L)`` normalizers cancel, leaving a weighted average of the
    input values tilted toward recent ones.
    """

    _FIELDS = _fields(_weight_sum=_WEIGHT_SUM, _value_sum=_WEIGHT)

    def _update_weighted(self, weight: float, value: float) -> None:
        self._weight_sum += weight
        self._value_sum += weight * value

    def _query_scaled(self, normalizer: float) -> float:
        return self._value_sum / self._weight_sum


@register_summary(
    "decayed_variance",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedVariance(quadratic_decay()),
)
class DecayedVariance(DecayedAggregate):
    """Decayed variance ``V = (sum_i g_i v_i^2)/C' - A^2`` (Section IV-A).

    Interprets the normalized decayed weights as probabilities; returns the
    variance of the value distribution under those probabilities.  Like the
    average, it is invariant to the query time.
    """

    _FIELDS = _fields(
        _weight_sum=_WEIGHT_SUM, _value_sum=_WEIGHT, _square_sum=_WEIGHT
    )

    def _update_weighted(self, weight: float, value: float) -> None:
        self._weight_sum += weight
        self._value_sum += weight * value
        self._square_sum += weight * value * value

    def _query_scaled(self, normalizer: float) -> float:
        mean = self._value_sum / self._weight_sum
        variance = self._square_sum / self._weight_sum - mean * mean
        # Guard tiny negative values from float cancellation.
        return variance if variance > 0.0 else 0.0


@register_summary(
    "decayed_min",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedMin(quadratic_decay()),
)
class DecayedMin(DecayedAggregate):
    """Decayed minimum ``MIN = min_i g(t_i - L) v_i / g(t - L)`` (Definition 6).

    Only the smallest weighted product need be retained, making this a
    constant-space computation — provably impossible for backward decay,
    where the sliding-window case forces remembering the window contents.
    """

    _FIELDS = _fields(math.inf, min, _best=_WEIGHT)

    def _update_weighted(self, weight: float, value: float) -> None:
        candidate = weight * value
        if candidate < self._best:
            self._best = candidate

    def _query_scaled(self, normalizer: float) -> float:
        return self._best / normalizer


@register_summary(
    "decayed_max",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedMax(quadratic_decay()),
)
class DecayedMax(DecayedAggregate):
    """Decayed maximum ``MAX = max_i g(t_i - L) v_i / g(t - L)`` (Definition 6)."""

    _FIELDS = _fields(-math.inf, max, _best=_WEIGHT)

    def _update_weighted(self, weight: float, value: float) -> None:
        candidate = weight * value
        if candidate > self._best:
            self._best = candidate

    def _query_scaled(self, normalizer: float) -> float:
        return self._best / normalizer


#: Serializable expressions for :class:`DecayedAlgebraic`.  Constructing the
#: aggregate with one of these names (instead of a raw callable) makes it
#: checkpointable via the ``StreamSummary`` serde protocol.
NAMED_EXPRESSIONS: dict[str, Callable[[float], float]] = {
    "identity": lambda v: v,
    "square": lambda v: v * v,
    "cube": lambda v: v * v * v,
    "abs": abs,
}


def _expression_name(name: str | None) -> str:
    if name is None:
        raise ParameterError(
            "DecayedAlgebraic with a raw callable cannot be serialized; "
            "construct it with a NAMED_EXPRESSIONS name instead"
        )
    return name


#: The expression travels by its name; a raw callable has none.
_EXPRESSION = Value(codec=(_expression_name, lambda name: name))


@register_summary(
    "decayed_algebraic",
    kind="aggregate",
    input_kind="time_value",
    factory=lambda: DecayedAlgebraic(quadratic_decay(), "square"),
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

    _FIELDS = (
        *_fields(_term_sum=_WEIGHT),
        Field("expression", _EXPRESSION, attr="_expression_name", init=True),
    )

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

    def _update_weighted(self, weight: float, value: float) -> None:
        self._term_sum += weight * self._expression(value)

    def _query_scaled(self, normalizer: float) -> float:
        return self._term_sum / normalizer

    def _check_merge(self, other, *names: str) -> None:
        super()._check_merge(other, *names)
        if other._expression is not self._expression:
            raise MergeError(
                "DecayedAlgebraic summaries must share the same expression object"
            )

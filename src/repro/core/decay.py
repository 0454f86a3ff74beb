"""Decay models: the weight assignment ``w(i, t)`` of Definitions 1-3.

A *decay model* turns a scalar decay function (:mod:`repro.core.functions`)
into the full weight assignment of the paper:

* :class:`BackwardDecay` implements Definition 2:
  ``w(i, t) = f(t - t_i) / f(0)``.
* :class:`ForwardDecay` implements Definition 3:
  ``w(i, t) = g(t_i - L) / g(t - L)`` for a landmark ``L``.

The key operational difference — and the whole point of the paper — is
visible in the interface: :meth:`ForwardDecay.static_weight` returns the
time-independent numerator ``g(t_i - L)`` that summaries store, while
backward decay has no such decomposition (except for the exponential class,
where the two models coincide; see :func:`forward_equals_backward_exp`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.errors import LandmarkError, TimestampError
from repro.core.functions import (
    ExponentialF,
    ExponentialG,
    FFunction,
    GFunction,
    PolynomialG,
)

__all__ = [
    "DecayModel",
    "ForwardDecay",
    "BackwardDecay",
    "forward_equals_backward_exp",
    "quadratic_decay",
    "validate_decay_axioms",
]


def _check_timestamp(value: float, name: str = "timestamp") -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise TimestampError(f"{name} must be finite, got {value!r}")
    return value


class DecayModel(ABC):
    """Common interface for backward and forward weight assignments."""

    @abstractmethod
    def weight(self, item_time: float, query_time: float) -> float:
        """Return ``w(i, t)`` for an item stamped ``item_time`` at query time
        ``query_time``.

        Raises :class:`TimestampError` if ``query_time < item_time`` — a
        decayed weight is only defined from the item's arrival onwards
        (Definition 1, condition 1).
        """

    def weights(self, item_times: list[float], query_time: float) -> list[float]:
        """Vector form of :meth:`weight` over a list of timestamps."""
        return [self.weight(t_i, query_time) for t_i in item_times]


@dataclass(frozen=True)
class BackwardDecay(DecayModel):
    """Backward decay (Definition 2): weight ``f(t - t_i) / f(0)``.

    Provided for completeness and for the baseline implementations; the
    library's efficient summaries all use :class:`ForwardDecay`.
    """

    f: FFunction

    def weight(self, item_time: float, query_time: float) -> float:
        item_time = _check_timestamp(item_time, "item_time")
        query_time = _check_timestamp(query_time, "query_time")
        if query_time < item_time:
            raise TimestampError(
                f"query_time {query_time} precedes item_time {item_time}"
            )
        return self.f(query_time - item_time) / self.f(0.0)


@dataclass(frozen=True)
class ForwardDecay(DecayModel):
    """Forward decay (Definition 3): weight ``g(t_i - L) / g(t - L)``.

    Parameters
    ----------
    g:
        A positive monotone non-decreasing function (see
        :mod:`repro.core.functions`).
    landmark:
        The landmark time ``L``.  By the paper's convention (Section III-B,
        "Landmark Choice") this should be (a lower bound on) the smallest
        timestamp relevant to the query — typically the query start time.

    Notes
    -----
    ``static_weight`` is the quantity summaries store per item; it is fixed
    at arrival, which is what makes every weighted streaming algorithm
    applicable unchanged.  ``normalizer`` is the single ``g(t - L)`` scaling
    applied at query time.
    """

    g: GFunction
    landmark: float = 0.0

    def __post_init__(self) -> None:
        _check_timestamp(self.landmark, "landmark")

    # -- the forward-decay decomposition ------------------------------------

    def static_weight(self, item_time: float) -> float:
        """Return ``g(t_i - L)``, the arrival-time-fixed weight of an item.

        Raises :class:`LandmarkError` if ``item_time <= landmark`` (the
        model requires ``t_i > L``; items at or before the landmark have no
        defined forward offset).
        """
        item_time = _check_timestamp(item_time, "item_time")
        if item_time < self.landmark:
            raise LandmarkError(
                f"item_time {item_time} precedes landmark {self.landmark}; "
                "forward decay requires t_i >= L"
            )
        return self.g(item_time - self.landmark)

    def normalizer(self, query_time: float) -> float:
        """Return ``g(t - L)``, the query-time scaling denominator."""
        query_time = _check_timestamp(query_time, "query_time")
        if query_time < self.landmark:
            raise LandmarkError(
                f"query_time {query_time} precedes landmark {self.landmark}"
            )
        return self.g(query_time - self.landmark)

    # -- DecayModel interface ------------------------------------------------

    def weight(self, item_time: float, query_time: float) -> float:
        item_time = _check_timestamp(item_time, "item_time")
        query_time = _check_timestamp(query_time, "query_time")
        if query_time < item_time:
            raise TimestampError(
                f"query_time {query_time} precedes item_time {item_time}; "
                "pose queries at t >= max item timestamp (Section VI-B)"
            )
        if isinstance(self.g, ExponentialG):
            # Closed form exp(-alpha (t - t_i)): exact at any magnitude,
            # where the g(t_i-L)/g(t-L) ratio would overflow to inf/inf
            # (the Section VI-A problem, solved analytically here).
            if item_time < self.landmark:
                raise LandmarkError(
                    f"item_time {item_time} precedes landmark {self.landmark}; "
                    "forward decay requires t_i >= L"
                )
            return math.exp(-self.g.alpha * (query_time - item_time))
        denom = self.normalizer(query_time)
        if denom == 0.0:
            # Can only happen when t == L (e.g. monomial g); the weight of
            # the (necessarily simultaneous) item is 1 by convention.
            return 1.0
        return self.static_weight(item_time) / denom

    # -- relative decay (Definition 4 / Lemma 1) -----------------------------

    def relative_weight(self, gamma: float, query_time: float) -> float:
        """Weight of an item at relative age ``gamma`` in ``[L, t]``.

        ``gamma = 1`` is "just arrived" (weight 1); ``gamma = 0`` is "at the
        landmark".  For monomial ``g(n) = n**beta`` this equals
        ``gamma**beta`` independent of ``query_time`` (Lemma 1).
        """
        if not 0.0 <= gamma <= 1.0:
            raise TimestampError(f"gamma must be in [0, 1], got {gamma!r}")
        item_time = gamma * query_time + (1.0 - gamma) * self.landmark
        return self.weight(item_time, query_time)

    def has_relative_decay(self) -> bool:
        """True when this model provably satisfies relative decay.

        Currently recognises monomials (Lemma 1) and the trivial no-decay /
        landmark-window functions, which are constant in ``gamma``.
        """
        from repro.core.functions import LandmarkWindowG, NoDecayG

        return isinstance(self.g, (PolynomialG, NoDecayG, LandmarkWindowG))

    def with_landmark(self, landmark: float) -> "ForwardDecay":
        """Return a copy of this model anchored at a different landmark."""
        return ForwardDecay(g=self.g, landmark=landmark)


def forward_equals_backward_exp(alpha: float) -> tuple[ForwardDecay, BackwardDecay]:
    """Return the (forward, backward) exponential pair proven identical.

    Section III-A: for any landmark ``L``,
    ``exp(alpha*(t_i - L)) / exp(alpha*(t - L)) == exp(-alpha*(t - t_i))``.
    The returned pair is useful in tests and demonstrations of the identity.
    """
    return (
        ForwardDecay(g=ExponentialG(alpha=alpha)),
        BackwardDecay(f=ExponentialF(lam=alpha)),
    )


def quadratic_decay() -> ForwardDecay:
    """``g(n) = n**2`` from landmark 0: the registered summaries' default."""
    return ForwardDecay(PolynomialG(2.0))


def validate_decay_axioms(
    model: DecayModel,
    item_time: float,
    query_times: list[float],
    tolerance: float = 1e-12,
) -> None:
    """Check Definition 1 on a concrete trajectory, raising on violation.

    Verifies that ``w(i, t_i) == 1``, ``0 <= w <= 1`` throughout, and that
    the weight is monotone non-increasing along the sorted ``query_times``.
    Used by the test-suite's property tests, and available to users who
    define custom ``g``/``f`` functions.
    """
    initial = model.weight(item_time, item_time)
    if abs(initial - 1.0) > tolerance:
        raise AssertionError(f"w(i, t_i) must be 1, got {initial}")
    previous = None
    for t in sorted(q for q in query_times if q >= item_time):
        w = model.weight(item_time, t)
        if not (-tolerance <= w <= 1.0 + tolerance):
            raise AssertionError(f"w(i, {t}) = {w} outside [0, 1]")
        if previous is not None and w > previous + tolerance:
            raise AssertionError(
                f"weight increased over time: {previous} -> {w} at t={t}"
            )
        previous = w

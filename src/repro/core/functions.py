"""Decay-function building blocks.

The paper (Sections II and III) defines two families of scalar functions:

* **Backward** decay is driven by a positive, monotone *non-increasing*
  function ``f`` of an item's age ``a = t - t_i``; the decayed weight is
  ``f(a) / f(0)`` (Definition 2).
* **Forward** decay is driven by a positive, monotone *non-decreasing*
  function ``g`` of the offset ``n = t_i - L`` from a landmark ``L``; the
  decayed weight is ``g(t_i - L) / g(t - L)`` (Definition 3).

This module provides both families as small value objects.  They are
deliberately dumb: they only know how to evaluate themselves and describe
themselves.  The pairing with landmarks, streams and weights lives in
:mod:`repro.core.decay`.

Every class in this module is immutable, hashable and comparable by value,
so decay functions can be used as dictionary keys (e.g. to share summaries
between queries using the same decay) and checked for compatibility when
merging distributed summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.errors import ParameterError

__all__ = [
    "GFunction",
    "FFunction",
    "NoDecayG",
    "PolynomialG",
    "GeneralPolynomialG",
    "ExponentialG",
    "LandmarkWindowG",
    "LogarithmicG",
    "NoDecayF",
    "SlidingWindowF",
    "ExponentialF",
    "PolynomialF",
    "SuperExponentialF",
    "SubPolynomialF",
]


@runtime_checkable
class GFunction(Protocol):
    """A positive, monotone non-decreasing function ``g`` for forward decay.

    Implementations must guarantee, for ``0 <= n <= n'``:

    * ``g(n) >= 0``
    * ``g(n') >= g(n)``  (monotone non-decreasing)

    so that ``g(t_i - L) / g(t - L)`` satisfies Definition 1 of the paper.
    """

    def __call__(self, n: float) -> float:
        """Evaluate ``g(n)`` for an elapsed time ``n >= 0`` since the landmark."""
        ...


@runtime_checkable
class FFunction(Protocol):
    """A positive, monotone non-increasing function ``f`` for backward decay."""

    def __call__(self, age: float) -> float:
        """Evaluate ``f(age)`` for an item age ``age >= 0``."""
        ...


def _require_positive(name: str, value: float) -> float:
    if not (value > 0) or math.isinf(value) or math.isnan(value):
        raise ParameterError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Forward-decay g functions (Section III)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoDecayG:
    """``g(n) = 1``: forward "decay" that weights every item equally.

    Included so that undecayed computation is a degenerate member of the
    forward-decay family, mirroring the paper's "No decay" row.
    """

    def __call__(self, n: float) -> float:
        return 1.0

    def describe(self) -> str:
        return "g(n) = 1"


@dataclass(frozen=True)
class PolynomialG:
    """Monomial forward decay ``g(n) = n**beta`` for ``beta > 0``.

    This is the class singled out by Lemma 1 of the paper: it satisfies the
    *relative decay* property, where an item's weight depends only on its
    relative position in ``[L, t]``.
    """

    beta: float = 2.0

    def __post_init__(self) -> None:
        _require_positive("beta", self.beta)

    def __call__(self, n: float) -> float:
        if n < 0:
            raise ParameterError(f"g is defined for n >= 0, got {n!r}")
        return float(n) ** self.beta

    def describe(self) -> str:
        return f"g(n) = n**{self.beta:g}"


@dataclass(frozen=True)
class GeneralPolynomialG:
    """General polynomial forward decay ``g(n) = sum_j gamma_j * n**j``.

    The paper notes that arbitrary polynomials with non-negative
    coefficients are valid forward-decay functions; monomials
    (:class:`PolynomialG`) are the special case that also grants relative
    decay.  Coefficients are given low-degree first: ``coefficients[j]`` is
    ``gamma_j``.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise ParameterError("coefficients must be non-empty")
        if all(c == 0 for c in self.coefficients):
            raise ParameterError("at least one coefficient must be non-zero")
        for c in self.coefficients:
            if c < 0 or math.isnan(c) or math.isinf(c):
                raise ParameterError(
                    "polynomial coefficients must be finite and non-negative "
                    f"to keep g monotone, got {c!r}"
                )

    def __call__(self, n: float) -> float:
        if n < 0:
            raise ParameterError(f"g is defined for n >= 0, got {n!r}")
        # Horner evaluation, high degree first.
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def describe(self) -> str:
        terms = [
            f"{c:g}*n**{j}" for j, c in enumerate(self.coefficients) if c != 0
        ]
        return "g(n) = " + " + ".join(terms)


@dataclass(frozen=True)
class ExponentialG:
    """Exponential forward decay ``g(n) = exp(alpha * n)`` for ``alpha > 0``.

    Section III-A of the paper proves this coincides *exactly* with backward
    exponential decay at rate ``alpha``: the landmark cancels in the weight
    ratio.  Its raw values grow without bound, so long-running computations
    renormalize through :class:`repro.core.weights.ForwardWeightEngine`
    (Section VI-A).
    """

    alpha: float

    def __post_init__(self) -> None:
        _require_positive("alpha", self.alpha)

    def __call__(self, n: float) -> float:
        if n < 0:
            raise ParameterError(f"g is defined for n >= 0, got {n!r}")
        try:
            return math.exp(self.alpha * n)
        except OverflowError:
            # Saturate rather than raise: this is precisely the regime the
            # Section VI-A renormalization exists for, and callers that hit
            # it directly still see a monotone (if useless) value.
            return math.inf

    def describe(self) -> str:
        return f"g(n) = exp({self.alpha:g}*n)"


@dataclass(frozen=True)
class LandmarkWindowG:
    """Landmark window: ``g(n) = 1`` for ``n > 0`` and ``0`` otherwise.

    The forward-decay analogue of a sliding window (Section III-C): every
    item after the landmark has full weight until the window "closes" when
    the query terminates.
    """

    def __call__(self, n: float) -> float:
        return 1.0 if n > 0 else 0.0

    def describe(self) -> str:
        return "g(n) = [n > 0]"


@dataclass(frozen=True)
class LogarithmicG:
    """Sub-polynomial forward decay ``g(n) = log(1 + n)`` (scaled).

    Decays even more slowly than any monomial: useful when old items should
    retain substantial weight.  Included to demonstrate that the framework
    accepts any monotone non-decreasing ``g``, per Section III.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("scale", self.scale)

    def __call__(self, n: float) -> float:
        if n < 0:
            raise ParameterError(f"g is defined for n >= 0, got {n!r}")
        return math.log1p(self.scale * n)

    def describe(self) -> str:
        return f"g(n) = log(1 + {self.scale:g}*n)"


# ---------------------------------------------------------------------------
# Backward-decay f functions (Section II-A)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoDecayF:
    """``f(a) = 1``: no decay; all ages weigh equally."""

    def __call__(self, age: float) -> float:
        return 1.0

    def describe(self) -> str:
        return "f(a) = 1"


@dataclass(frozen=True)
class SlidingWindowF:
    """Sliding window of size ``window``: ``f(a) = 1`` iff ``a < window``."""

    window: float

    def __post_init__(self) -> None:
        _require_positive("window", self.window)

    def __call__(self, age: float) -> float:
        if age < 0:
            raise ParameterError(f"f is defined for age >= 0, got {age!r}")
        return 1.0 if age < self.window else 0.0

    def describe(self) -> str:
        return f"f(a) = [a < {self.window:g}]"


@dataclass(frozen=True)
class ExponentialF:
    """Backward exponential decay ``f(a) = exp(-lambda * a)``.

    The classic "radioactive" decay: the time for the weight to halve is the
    same at every age.  Identical to :class:`ExponentialG` at the same rate
    under the forward model (Section III-A).
    """

    lam: float

    def __post_init__(self) -> None:
        _require_positive("lam", self.lam)

    def __call__(self, age: float) -> float:
        if age < 0:
            raise ParameterError(f"f is defined for age >= 0, got {age!r}")
        return math.exp(-self.lam * age)

    def describe(self) -> str:
        return f"f(a) = exp(-{self.lam:g}*a)"


@dataclass(frozen=True)
class PolynomialF:
    """Backward polynomial decay ``f(a) = (a + 1)**(-alpha)``.

    The ``+ 1`` keeps ``f(0) = 1`` as required by Definition 1.  This is the
    decay class for which backward computation is expensive (Cohen-Strauss)
    and which forward decay replaces with cheap monomials.
    """

    alpha: float

    def __post_init__(self) -> None:
        _require_positive("alpha", self.alpha)

    def __call__(self, age: float) -> float:
        if age < 0:
            raise ParameterError(f"f is defined for age >= 0, got {age!r}")
        return (age + 1.0) ** (-self.alpha)

    def describe(self) -> str:
        return f"f(a) = (a+1)**(-{self.alpha:g})"


@dataclass(frozen=True)
class SuperExponentialF:
    """Super-exponential backward decay ``f(a) = exp(-lambda * a**2)``."""

    lam: float

    def __post_init__(self) -> None:
        _require_positive("lam", self.lam)

    def __call__(self, age: float) -> float:
        if age < 0:
            raise ParameterError(f"f is defined for age >= 0, got {age!r}")
        return math.exp(-self.lam * age * age)

    def describe(self) -> str:
        return f"f(a) = exp(-{self.lam:g}*a**2)"


@dataclass(frozen=True)
class SubPolynomialF:
    """Sub-polynomial backward decay ``f(a) = 1 / (1 + ln(1 + a))``."""

    def __call__(self, age: float) -> float:
        if age < 0:
            raise ParameterError(f"f is defined for age >= 0, got {age!r}")
        return 1.0 / (1.0 + math.log1p(age))

    def describe(self) -> str:
        return "f(a) = 1/(1 + ln(1 + a))"

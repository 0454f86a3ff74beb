"""Weighted Greenwald-Khanna quantile summary.

An alternative engine for forward-decayed quantiles (Theorem 3): where the
q-digest requires a bounded integer universe ``[0, U)``, the GK summary
handles arbitrary (even floating-point) values, at the price of not being
losslessly mergeable.  The ablation benchmark compares the two; the
:class:`~repro.core.quantiles.DecayedQuantiles` front end can run on
either.

Structure: a sorted list of tuples ``(value, g, delta)`` where ``g`` is
the weight gap to the previous tuple and ``delta`` the maximum additional
rank uncertainty.  The classic invariant ``g + delta <= 2 eps W`` is
maintained under weighted inserts by treating an insert of weight ``w`` as
a tuple with ``g = w`` (valid because rank uncertainty is unaffected by
the mass *at* the new value), with periodic compression merging adjacent
tuples whose combined mass fits the invariant.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import RAW, WEIGHT, Field, Records, StreamSummary, Value
from repro.core.registry import register_summary

__all__ = ["GKSummary"]


class _Tuple:
    __slots__ = ("value", "g", "delta")  # the payload's columns, in order

    def __init__(self, value: float, g: float, delta: float):
        self.value = value
        self.g = g
        self.delta = delta


@register_summary(
    "gk_summary",
    kind="sketch",
    input_kind="value_weight",
    factory=lambda: GKSummary(0.05),
    exact_merge=False,
)
class GKSummary(StreamSummary):
    """Weighted epsilon-approximate quantiles over arbitrary ordered values.

    Parameters
    ----------
    epsilon:
        Rank-error fraction: a ``phi`` quantile query returns a value whose
        true weighted rank is within ``epsilon * W`` of ``phi * W``.
    """

    _FIELDS = (
        Field("epsilon", init=True),
        Field("total", Value(WEIGHT, nonneg=True), initial=0.0),
        Field("since_compress", initial=0),
        # Three floats per stored tuple.
        Field("tuples", Records(RAW, Value(WEIGHT, nonneg=True),
                                Value(WEIGHT, nonneg=True), row=_Tuple),
              initial=list, entry_bytes=24),
    )

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon < 0.5:
            raise ParameterError(f"epsilon must be in (0, 0.5), got {epsilon!r}")
        super().__init__()
        self.epsilon = epsilon
        self._values: list[float] = []  # parallel sorted keys for bisect

    @property
    def total_weight(self) -> float:
        """Total weight inserted."""
        return self._total

    def __len__(self) -> int:
        """Number of stored tuples."""
        return len(self._tuples)

    def update(self, value: float, weight: float = 1.0) -> None:
        """Insert ``value`` with positive ``weight``."""
        if math.isnan(value) or math.isinf(value):
            raise ParameterError(f"value must be finite, got {value!r}")
        if not weight > 0 or math.isnan(weight) or math.isinf(weight):
            raise ParameterError(f"weight must be positive finite, got {weight!r}")
        index = bisect_right(self._values, value)
        if index == 0 or index == len(self._tuples):
            # New minimum or maximum: rank is known exactly (delta = 0).
            entry = _Tuple(value, weight, 0.0)
        else:
            cap = 2.0 * self.epsilon * self._total
            delta = max(0.0, self._tuples[index].g + self._tuples[index].delta - 1e-12)
            entry = _Tuple(value, weight, min(delta, cap))
        self._tuples.insert(index, entry)
        self._values.insert(index, value)
        self._total += weight
        self._since_compress += 1
        if self._since_compress * self.epsilon >= 1.0:
            self.compress()

    def compress(self) -> None:
        """Merge adjacent tuples while the GK invariant allows."""
        self._since_compress = 0
        cap = 2.0 * self.epsilon * self._total
        if cap <= 0.0 or len(self._tuples) < 3:
            return
        tuples = self._tuples
        kept: list[_Tuple] = [tuples[0]]
        # Never merge into the last tuple's position from the right; walk
        # middles and fold each into its successor when capacity permits.
        for index in range(1, len(tuples) - 1):
            current = tuples[index]
            successor = tuples[index + 1]
            if current.g + successor.g + successor.delta <= cap:
                successor.g += current.g
            else:
                kept.append(current)
        kept.append(tuples[-1])
        self._tuples = kept
        self._values = [t.value for t in kept]

    def rank_bounds(self, value: float) -> tuple[float, float]:
        """(lower, upper) bounds on the weighted rank of ``value``."""
        r_min = 0.0
        for entry in self._tuples:
            if entry.value > value:
                return r_min, r_min + entry.delta
            r_min += entry.g
        return r_min, r_min

    def quantile(self, phi: float) -> float:
        """Smallest stored value with weighted rank ``>= phi * W``."""
        if not 0.0 <= phi <= 1.0:
            raise ParameterError(f"phi must be in [0, 1], got {phi!r}")
        if not self._tuples:
            raise EmptySummaryError("quantile query on empty GK summary")
        target = phi * self._total
        margin = self.epsilon * self._total
        r_min = 0.0
        for entry in self._tuples:
            r_min += entry.g
            if r_min + entry.delta >= target - margin and r_min >= target - margin:
                return entry.value
        return self._tuples[-1].value

    def quantiles(self, phis) -> list[float]:
        """Batch quantile queries."""
        return [self.quantile(phi) for phi in phis]

    def merge(self, other: "GKSummary", factor: float = 1.0) -> None:
        """Fold ``other`` in by re-inserting its tuples, scaled by ``factor``
        (one that scales to 0.0, a peer far behind in decay, is dropped).  GK
        does not merge losslessly: the error can reach ``eps_self + eps_other``;
        tight distributed bounds need the q-digest backend.
        """
        self._check_merge(other)
        for entry in other._tuples:
            if weight := entry.g * factor:
                self.update(entry.value, weight)
        self.compress()

    def query(self, phi: float = 0.5) -> float:
        """Primary answer (StreamSummary protocol): the ``phi``-quantile."""
        return self.quantile(phi)

    def _reindex(self) -> None:
        self._values = [t.value for t in self._tuples]

"""Forward-decayed quantiles (Section IV-C, Theorem 3).

Definition 8 of the paper: the decayed rank of a value ``v`` is
``r_v = sum_{v_i <= v} g(t_i - L) / g(t - L)`` and the ``phi``-quantile is
the smallest ``v`` with ``r_v >= phi * C``.  Factoring out the common
``g(t - L)`` reduces the problem to *weighted* quantiles over the static
arrival weights, which the q-digest answers in ``O((1/eps) log U)`` space
with ``O(log log U)``-ish update cost — the bounds of Theorem 3.

Values must come from the integer domain ``[0, 2**universe_bits)``; this is
the q-digest's native requirement and matches the paper's assumption of an
integer domain of size ``U``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.decay import ForwardDecay, quadratic_decay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import DECAY, ITEMS, LANDMARK, MAX_TIME, WEIGHT, Field, Nested
from repro.core.protocol import StreamSummary
from repro.core.registry import register_summary
from repro.core.weights import ForwardWeightEngine
from repro.sketches.gk import GKSummary
from repro.sketches.qdigest import QDigest

__all__ = ["DecayedQuantiles"]


@register_summary(
    "decayed_quantiles",
    kind="aggregate",
    input_kind="value_time",
    factory=lambda: DecayedQuantiles(quadratic_decay(), epsilon=0.01, universe_bits=10),
)
class DecayedQuantiles(StreamSummary):
    """Streaming ``phi``-quantiles under any forward decay function.

    Parameters
    ----------
    decay:
        Forward-decay model supplying ``g`` and the landmark ``L``.
    epsilon:
        Additive rank error as a fraction of the total decayed count: the
        reported ``phi``-quantile has true decayed rank within
        ``(phi +- epsilon) * C``.
    universe_bits:
        ``log2`` of the value domain size ``U`` (q-digest backend only).
    backend:
        ``"qdigest"`` (default) — bounded integer domain, losslessly
        mergeable; ``"gk"`` — weighted Greenwald-Khanna over arbitrary
        ordered values (no universe bound), approximately mergeable.
    """

    _FIELDS = (
        DECAY,
        LANDMARK,
        Field("epsilon", init=True),
        Field("backend", init=True),
        Field("universe_bits", init=True),
        ITEMS,
        MAX_TIME,
        Field("digest", Nested(
            lambda payload: QDigest if payload["backend"] == "qdigest" else GKSummary,
            WEIGHT,
        )),
    )

    def __init__(
        self,
        decay: ForwardDecay,
        epsilon: float = 0.01,
        universe_bits: int = 16,
        backend: str = "qdigest",
    ):
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if backend not in ("qdigest", "gk"):
            raise ParameterError(
                f"backend must be 'qdigest' or 'gk', got {backend!r}"
            )
        super().__init__()
        self.epsilon = epsilon
        self.backend = backend
        if backend == "qdigest":
            self._digest = QDigest.from_epsilon(epsilon, universe_bits)
        else:
            self._digest = GKSummary(min(epsilon, 0.49))
        self._engine = ForwardWeightEngine(decay, self.scale)

    @property
    def decay(self) -> ForwardDecay:
        """The decay model this summary was built with."""
        return self._engine.decay

    @property
    def items_processed(self) -> int:
        """Number of updates folded in (including via merges)."""
        return self._items

    @property
    def universe_bits(self) -> int | None:
        """``log2`` of the supported value domain (None for the GK backend)."""
        if isinstance(self._digest, QDigest):
            return self._digest.universe_bits
        return None

    def update(self, value: int, timestamp: float, count: float = 1.0) -> None:
        """Record ``count`` occurrences of integer ``value`` at ``timestamp``."""
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count!r}")
        weight = self._engine.arrival_weight(timestamp)
        self._digest.update(value, weight * count)
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp

    def _normalizer(self, query_time: float | None) -> float:
        """``g(t - L)`` at ``query_time``, the last item's time by default."""
        if self._items == 0:
            raise EmptySummaryError("quantile summary has seen no items")
        return self._engine.normalizer(
            self._max_time if query_time is None else query_time)

    def decayed_total(self, query_time: float | None = None) -> float:
        """The total decayed count ``C`` at ``query_time``."""
        return self._digest.total_weight / self._normalizer(query_time)

    def decayed_rank(self, value: int, query_time: float | None = None) -> float:
        """Approximate decayed rank ``r_v`` of ``value`` (Definition 8)."""
        normalizer = self._normalizer(query_time)
        if isinstance(self._digest, QDigest):
            raw = self._digest.rank(value)
        else:
            low, high = self._digest.rank_bounds(value)
            raw = (low + high) / 2.0
        return raw / normalizer

    def quantile(self, phi: float) -> int:
        """The smallest value whose decayed rank is ``>= phi * C``.

        The ``g(t - L)`` normalizer cancels between rank and total, so the
        answer is independent of the query time — quantiles are positional.
        """
        return self._digest.quantile(phi)

    def quantiles(self, phis: Iterable[float]) -> list[int]:
        """Batch form of :meth:`quantile`."""
        return self._digest.quantiles(phis)

    def median(self) -> int:
        """Convenience: the decayed median (``phi = 0.5``)."""
        return self.quantile(0.5)

    def merge(self, other: "DecayedQuantiles") -> None:
        """Fold in a summary of a disjoint substream (Section VI-B)."""
        self._check_merge(other, "backend", "universe_bits")
        factor = self._engine.align_for_merge(other._engine)
        self._digest.merge(other._digest, factor)
        self._merge_scaled(other, factor)

    def query(self, phi: float = 0.5) -> int:
        """Primary answer (StreamSummary protocol): the ``phi``-quantile."""
        if self._items == 0:
            raise EmptySummaryError("quantile summary has seen no items")
        return self.quantile(phi)

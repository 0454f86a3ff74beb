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

from typing import Iterable, Sequence

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, MergeError, ParameterError
from repro.core.protocol import StreamSummary, decode_number, encode_number
from repro.core.registry import register_summary
from repro.core.weights import ForwardWeightEngine
from repro.sketches.gk import GKSummary
from repro.sketches.qdigest import QDigest

__all__ = ["DecayedQuantiles"]


def _default_decay() -> ForwardDecay:
    from repro.core.functions import PolynomialG

    return ForwardDecay(PolynomialG(2.0))


@register_summary(
    "decayed_quantiles",
    kind="aggregate",
    input_kind="value_time",
    factory=lambda: DecayedQuantiles(_default_decay(), epsilon=0.01, universe_bits=10),
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
        self.epsilon = epsilon
        self.backend = backend
        if backend == "qdigest":
            self._digest = QDigest.from_epsilon(epsilon, universe_bits)
        else:
            self._digest = GKSummary(min(epsilon, 0.49))
        # Late-bound so a serde restore may swap in a rebuilt digest.
        self._engine = ForwardWeightEngine(
            decay, lambda factor: self._digest.scale(factor))
        self._items = 0
        self._max_time = float("-inf")

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

    def decayed_total(self, query_time: float | None = None) -> float:
        """The total decayed count ``C`` at ``query_time``."""
        if self._items == 0:
            raise EmptySummaryError("quantile summary has seen no items")
        if query_time is None:
            query_time = self._max_time
        return self._digest.total_weight / self._engine.normalizer(query_time)

    def decayed_rank(self, value: int, query_time: float | None = None) -> float:
        """Approximate decayed rank ``r_v`` of ``value`` (Definition 8)."""
        if self._items == 0:
            raise EmptySummaryError("quantile summary has seen no items")
        if query_time is None:
            query_time = self._max_time
        if isinstance(self._digest, QDigest):
            raw = self._digest.rank(value)
        else:
            low, high = self._digest.rank_bounds(value)
            raw = (low + high) / 2.0
        return raw / self._engine.normalizer(query_time)

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
        if not isinstance(other, DecayedQuantiles):
            raise MergeError(f"cannot merge {type(other).__name__}")
        if other.backend != self.backend:
            raise MergeError(
                f"backend mismatch: {self.backend} vs {other.backend}"
            )
        if other.universe_bits != self.universe_bits:
            raise MergeError(
                f"universe mismatch: {self.universe_bits} vs {other.universe_bits}"
            )
        factor = self._engine.align_for_merge(other._engine)
        self._digest.merge(other._digest, factor)
        self._items += other._items
        if other._max_time > self._max_time:
            self._max_time = other._max_time

    def query(self, phi: float = 0.5) -> int:
        """Primary answer (StreamSummary protocol): the ``phi``-quantile."""
        if self._items == 0:
            raise EmptySummaryError("quantile summary has seen no items")
        return self.quantile(phi)

    def state_size_bytes(self) -> int:
        """Approximate summary footprint."""
        return self._digest.state_size_bytes()

    # -- serde (StreamSummary protocol) ---------------------------------------

    def _state_payload(self) -> dict:
        from repro.core.serde import dump_decay

        return {
            "decay": dump_decay(self.decay),
            "internal_landmark": self._engine.internal_landmark,
            "epsilon": self.epsilon,
            "backend": self.backend,
            "universe_bits": self.universe_bits,
            "items": self._items,
            "max_time": encode_number(self._max_time),
            "digest": self._digest._state_payload(),
        }

    @classmethod
    def _from_payload(cls, payload: dict) -> "DecayedQuantiles":
        from repro.core.serde import load_decay

        summary = cls(
            load_decay(payload["decay"]),
            epsilon=payload["epsilon"],
            universe_bits=payload["universe_bits"] or 16,
            backend=payload["backend"],
        )
        summary._engine.restore_landmark(payload["internal_landmark"])
        summary._items = payload["items"]
        summary._max_time = decode_number(payload["max_time"])
        backend_cls = QDigest if payload["backend"] == "qdigest" else GKSummary
        summary._digest = backend_cls._from_payload(payload["digest"])
        return summary

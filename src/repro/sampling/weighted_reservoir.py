"""Weighted reservoir sampling without replacement (Section V-B).

Implements the algorithm of Efraimidis & Spirakis (IPL 2006): item ``i``
gets key ``p_i = u_i ** (1 / w_i)`` with ``u_i`` uniform on ``[0, 1]``, and
the sample is the ``k`` items with the largest keys.  The resulting sample
has the distribution of sequential weighted sampling without replacement.

Under forward decay the weight is the static ``w_i = g(t_i - L)`` —
scaling all weights by a constant does not change the induced distribution,
so the ``g(t - L)`` normalizer is irrelevant (the paper's observation).

**Numerical form.**  Maximizing ``u ** (1/w)`` is equivalent to minimizing
``e_i = -ln(u_i) / w_i`` — an exponential race with rate ``w_i`` — and, in
turn, to minimizing ``ln(e_i) = ln(-ln u_i) - ln w_i``.  We rank by that
log-domain key, so exponentially-decayed weights (whose raw values overflow
doubles long before a minute of stream passes) are handled exactly with no
landmark renormalization.

:class:`WeightedReservoirSampler` is A-Res: draw a key per item, keep the
``k`` smallest in a max-heap; O(log k) per item.  Their A-ExpJ, which
draws one key per *insertion*, is not offered: it ranks raw float
weights, which exponential decay overflows (EXPERIMENTS.md, Ablations).
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Generic, Hashable, TypeVar

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.functions import ExponentialG
from repro.core.keyed_random import KeyedRandom
from repro.core.protocol import GENERATOR, KEY, LOG_WEIGHT, NUMBER_CODEC, RAW, Field
from repro.core.protocol import Records, StreamSummary, Value
from repro.core.registry import register_summary

__all__ = ["WeightedReservoirSampler", "decayed_log_weight"]

T = TypeVar("T", bound=Hashable)

#: Stands in for a uniform draw of exactly 0.0, whose logarithm is needed.
_SMALLEST = 5e-324


def decayed_log_weight(decay: ForwardDecay, timestamp: float) -> float:
    """``ln g(t_i - L)``, computed overflow-free for exponential ``g``."""
    if isinstance(decay.g, ExponentialG):
        return decay.g.alpha * (timestamp - decay.landmark)
    weight = decay.static_weight(timestamp)
    if weight <= 0.0:
        raise ParameterError(
            f"sampling weights must be positive; g gave {weight!r} at {timestamp!r}"
        )
    return math.log(weight)


def batch_log_weights(items, weights) -> list[float] | None:
    """``ln`` of a column of raw weights, or None unless it pairs with
    ``items`` and every weight is one :meth:`update` accepts."""
    if weights is None or len(items) != len(weights):
        return None
    try:
        logs = list(map(math.log, weights))
    except (ValueError, TypeError):  # zero, negative, not a number
        return None
    return logs if all(map(math.isfinite, logs)) else None  # inf, NaN


#: A log-domain key, ``-inf`` / NaN tagged.
LOG_KEY = Value(LOG_WEIGHT, NUMBER_CODEC)


def heap_fields(*entry: Value, entry_bytes: int,
                extra: tuple[Field, ...] = ()) -> tuple[Field, ...]:
    """A heap sampler's payload, ``extra`` before its heap: at most ``k``
    entries in heap order, or ``heapreplace`` would evict the wrong one."""
    return (
        Field("k", init=True),
        Field("seen", initial=0),
        Field("tiebreak", initial=0),
        *extra,
        Field("heap", Records(*entry, heap=True, most="k"), initial=list,
              entry_bytes=entry_bytes),
        Field("rng", GENERATOR, attr="_rng", init=True),
    )


class HeapSampler(StreamSummary, Generic[T]):
    """What the two log-domain heap samplers share: ``k`` and a keyed
    generator, items offered by raw weight or by ``update_log``, and the
    sample as the answer."""

    def __init__(self, k: int, rng: random.Random | None = None):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k!r}")
        super().__init__()
        self.k = k
        self._rng = KeyedRandom.from_rng(rng)

    @property
    def items_seen(self) -> int:
        """Number of stream items offered."""
        return self._seen

    def update(self, item: T, weight: float) -> None:
        """Offer ``item`` with a raw positive weight."""
        if not weight > 0 or math.isinf(weight) or math.isnan(weight):
            raise ParameterError(f"weight must be positive finite, got {weight!r}")
        self.update_log(item, math.log(weight))

    def __len__(self) -> int:
        """Current number of retained items."""
        return len(self._heap)

    def query(self):
        """Primary answer (StreamSummary protocol): the current sample."""
        return self.sample()


@register_summary(
    "weighted_reservoir",
    kind="sampler",
    input_kind="item_weight",
    factory=lambda: WeightedReservoirSampler(k=16, rng=random.Random(7)),
    mergeable=False,
    exact_merge=False,
)
class WeightedReservoirSampler(HeapSampler[T]):
    """A-Res: size-``k`` weighted sample without replacement.

    Items are offered with either a raw weight (:meth:`update`) or a
    log-weight (:meth:`update_log`); mixing the two is fine, they rank on
    the same scale.  For forward decay, pass
    ``decayed_log_weight(decay, t_i)``.
    """

    # Max-heap on log-key via negation of (log-key, tiebreak, item): the
    # root is the *largest* (worst) retained key, evicted first.  A key
    # and a slot per item.
    _FIELDS = heap_fields(LOG_KEY, RAW, KEY, entry_bytes=16)

    def update_log(self, item: T, log_weight: float) -> None:
        """Offer ``item`` with ``ln(weight)`` (overflow-free path)."""
        if math.isnan(log_weight):
            raise ParameterError("log_weight must not be NaN")
        self._seen += 1
        u = self._rng.random() or _SMALLEST
        self._tiebreak += 1
        # Smallest log-key first: ln(-ln u) - ln w, negated for the heap.
        entry = (log_weight - math.log(-math.log(u)), self._tiebreak, item)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def update_many(self, first, second=None) -> None:
        """Batch ingest: the :meth:`update` step inlined over the columns,
        its draws taken a block at a time.  Bit-identical to per-item
        updates — same draws in row order, same heap."""
        logs = batch_log_weights(first, second)
        if logs is None:  # the per-item loop says what is wrong, and where
            return super().update_many(first, second)
        log = math.log
        heap = self._heap
        k = self.k
        tiebreak = self._tiebreak
        for item, log_weight, u in zip(first, logs, self._rng.randoms(len(logs))):
            tiebreak += 1
            entry = (log_weight - log(-log(u or _SMALLEST)), tiebreak, item)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
        self._seen += len(logs)
        self._tiebreak = tiebreak

    def sample(self) -> list[T]:
        """The current sample, best key first (at most ``k`` items)."""
        if not self._heap:
            raise EmptySummaryError("weighted reservoir has seen no items")
        ordered = sorted(self._heap, reverse=True)
        return [item for __, __, item in ordered]

"""Priority sampling (Alon, Duffield, Lund, Thorup — PODS 2005).

The second without-replacement scheme of Section V-B: item ``i`` receives
priority ``q_i = w_i / u_i`` (``u_i`` uniform on ``(0, 1]``) and the sample
keeps the ``k`` items of highest priority.  Alongside the sample the
``(k+1)``-th priority ``tau`` is retained; then

    w_hat_i = max(w_i, tau)    for sampled items, else 0

is an *unbiased* estimator of ``w_i``, and ``sum_i w_hat_i [i in Q]``
unbiasedly estimates any selection (subset-sum) query ``Q`` with
near-optimal variance.  Under forward decay, feeding ``w_i = g(t_i - L)``
(times the tuple's value, for sum queries) yields unbiased decayed
estimates after the usual single division by ``g(t - L)``.

As with the weighted reservoir, ranking happens in log-space
(``ln q = ln w - ln u``) so exponential decay cannot overflow; estimator
arithmetic exponentiates only differences against the query normalizer.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Hashable, NamedTuple, TypeVar

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import KEY, RAW, Field
from repro.core.registry import register_summary
from repro.sampling.weighted_reservoir import (
    LOG_KEY,
    HeapSampler,
    batch_log_weights,
    heap_fields,
)

__all__ = ["PrioritySampler", "PrioritySample", "estimate_decayed_sum"]

T = TypeVar("T", bound=Hashable)


class PrioritySample(NamedTuple):
    """The retained sample plus the estimation threshold."""

    entries: list[tuple[Hashable, float]]
    """``(item, log_weight)`` pairs of the ``k`` highest-priority items."""
    log_tau: float
    """``ln`` of the (k+1)-th priority; ``-inf`` while fewer than k+1 seen."""


@register_summary(
    "priority_sampler",
    kind="sampler",
    input_kind="item_weight",
    factory=lambda: PrioritySampler(k=16, rng=random.Random(7)),
    mergeable=False,
    exact_merge=False,
)
class PrioritySampler(HeapSampler[T]):
    """Size-``k`` priority sample with unbiased subset-sum estimation.

    Items are offered with raw weights (:meth:`update`) or log-weights
    (:meth:`update_log`).  For forward decay pass
    ``decayed_log_weight(decay, t_i)`` — optionally plus ``ln(v_i)`` when
    the estimand is a decayed sum of values rather than a decayed count.
    """

    # Min-heap of (log_priority, tiebreak, item, log_weight): the root is
    # the lowest-priority retained item.  Priority, weight and a slot per
    # item; ``ln tau`` is the highest evicted log-priority.
    _FIELDS = heap_fields(
        LOG_KEY, RAW, KEY, LOG_KEY, entry_bytes=24,
        extra=(Field("log_tau", LOG_KEY, initial=-math.inf),),
    )

    @property
    def log_tau(self) -> float:
        """``ln tau``: the (k+1)-th highest log-priority seen so far."""
        return self._log_tau

    def update_log(self, item: T, log_weight: float) -> None:
        """Offer ``item`` with ``ln(weight)`` (overflow-free path)."""
        if math.isnan(log_weight):
            raise ParameterError("log_weight must not be NaN")
        self._seen += 1
        log_priority = log_weight - math.log(1.0 - self._rng.random())
        self._tiebreak += 1
        entry = (log_priority, self._tiebreak, item, log_weight)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
            return
        if log_priority > self._heap[0][0]:
            evicted = heapq.heapreplace(self._heap, entry)
            if evicted[0] > self._log_tau:
                self._log_tau = evicted[0]
        elif log_priority > self._log_tau:
            self._log_tau = log_priority

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
        log_tau = self._log_tau
        for item, log_weight, u in zip(first, logs, self._rng.randoms(len(logs))):
            log_priority = log_weight - log(1.0 - u)
            tiebreak += 1
            if len(heap) < k:
                heapq.heappush(heap, (log_priority, tiebreak, item, log_weight))
            elif log_priority > heap[0][0]:
                evicted = heapq.heapreplace(
                    heap, (log_priority, tiebreak, item, log_weight)
                )[0]
                if evicted > log_tau:
                    log_tau = evicted
            elif log_priority > log_tau:
                log_tau = log_priority
        self._seen += len(logs)
        self._tiebreak = tiebreak
        self._log_tau = log_tau

    def sample(self) -> PrioritySample:
        """The retained items with their log-weights, plus ``ln tau``."""
        if not self._heap:
            raise EmptySummaryError("priority sampler has seen no items")
        ordered = sorted(self._heap, reverse=True)
        return PrioritySample(
            entries=[(item, lw) for __, __, item, lw in ordered],
            log_tau=self._log_tau,
        )

    def subset_sum_log_estimate(
        self, predicate: Callable[[T], bool], log_normalizer: float = 0.0
    ) -> float:
        """Unbiased estimate of ``sum_{i: pred} w_i / exp(log_normalizer)``.

        Each retained item contributes ``max(w_i, tau)``; computing
        ``exp(max(log_w, log_tau) - log_normalizer)`` keeps exponential
        weights finite whenever the normalizer is at the query-time scale.
        """
        if not self._heap:
            raise EmptySummaryError("priority sampler has seen no items")
        total = 0.0
        log_tau = self._log_tau
        for __, __, item, log_weight in self._heap:
            if predicate(item):
                contribution = max(log_weight, log_tau)
                total += math.exp(contribution - log_normalizer)
        return total


def estimate_decayed_sum(
    sampler: PrioritySampler,
    decay: ForwardDecay,
    query_time: float,
    predicate: Callable = lambda item: True,
) -> float:
    """Estimate a decayed count/sum at ``query_time`` from a priority sample.

    Assumes the sampler was fed ``decayed_log_weight(decay, t_i)`` (for
    counts) or that plus ``ln v_i`` (for sums); divides by ``g(t - L)`` in
    log-space.
    """
    if query_time < decay.landmark:
        raise ParameterError("query_time must be at or after the landmark")
    from repro.core.functions import ExponentialG

    if isinstance(decay.g, ExponentialG):
        log_norm = decay.g.alpha * (query_time - decay.landmark)
    else:
        log_norm = math.log(decay.normalizer(query_time))
    return sampler.subset_sum_log_estimate(predicate, log_norm)

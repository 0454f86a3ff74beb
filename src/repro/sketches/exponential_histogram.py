"""Exponential Histograms for sliding-window count and sum (Datar et al.).

The paper's backward-decay baseline for Figure 2: following Cohen & Strauss,
an Exponential Histogram (EH) can approximate the *decayed* sum or count
under **any** decay function specified at query time, by rewriting the
decayed aggregate as a combination of scaled sliding-window aggregates —
each of which the EH answers within relative error ``epsilon``.

Structure (count version): every arrival becomes a size-1 bucket; whenever
more than ``ceil(1/epsilon)/2 + 1`` buckets share a size, the two oldest of
that size merge into one of twice the size, carrying the newer timestamp.
Buckets whose timestamp falls out of the window expire.  The window count is
the total bucket size minus half the oldest bucket (its membership is
uncertain).  Space is ``O((1/epsilon) * log(epsilon * N))`` buckets.

The sum version decomposes each non-negative integer value into powers of
two and inserts them as buckets, preserving the same invariant and bounds.

:class:`DecayedEHCombiner` implements the Cohen-Strauss combination: the
decayed aggregate under a backward decay function ``f`` is approximated as
``sum_buckets size_b * f(t - ts_b) / f(0)`` — a staircase over the bucket
boundaries, accurate to a relative ``epsilon`` because each bucket holds at
most an ``epsilon`` fraction of the mass newer than it.
"""

from __future__ import annotations

import math
from collections import Counter, deque

from repro.core.errors import ParameterError
from repro.core.functions import FFunction
from repro.core.protocol import RAW, Field, Records, StreamSummary
from repro.core.registry import register_summary

__all__ = [
    "ExponentialHistogramCount",
    "ExponentialHistogramSum",
    "DecayedEHCombiner",
]


class _Bucket:
    __slots__ = ("timestamp", "size")  # the payload's columns, in order

    def __init__(self, timestamp: float, size: int):
        self.timestamp = timestamp  # newest element in the bucket
        self.size = size


class _ExponentialHistogramBase(StreamSummary):
    """Shared bucket machinery of the count and sum variants.

    Exponential histograms are single-stream structures: buckets are
    ordered by arrival and merges depend on that order, so there is no
    union rule — ``merge`` raises :class:`~repro.core.errors.MergeError`
    (one of the backward-decay limitations forward decay removes).
    """

    _FIELDS = (
        Field("epsilon", init=True),
        Field("window", init=True),
        Field("last_time", initial=-math.inf),
        # A timestamp and a size per bucket, oldest first: the per-group
        # state of Figure 2(d), kilobytes against 8 bytes for forward decay.
        Field("buckets", Records(RAW, RAW, row=_Bucket), initial=deque,
              entry_bytes=16),
    )

    def __init__(self, epsilon: float, window: float):
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not window > 0:
            raise ParameterError(f"window must be > 0, got {window!r}")
        self.epsilon = epsilon
        self.window = window
        # Datar et al.: at most k/2 + 1 buckets of each size, k = ceil(1/eps).
        self._max_per_size = math.ceil(1.0 / epsilon) // 2 + 1
        super().__init__()
        self._reindex()  # buckets per size, and their total size

    def __len__(self) -> int:
        """Number of live buckets."""
        return len(self._buckets)

    @property
    def last_time(self) -> float:
        """Largest arrival timestamp observed (``-inf`` when empty)."""
        return self._last_time

    def _insert_bucket(self, timestamp: float, size: int) -> None:
        self._buckets.append(_Bucket(timestamp, size))
        self._per_size[size] = self._per_size.get(size, 0) + 1
        self._total_size += size
        self._cascade_merges(size)

    def _cascade_merges(self, start_size: int) -> None:
        size = start_size
        while self._per_size.get(size, 0) > self._max_per_size:
            self._merge_two_oldest(size)
            size *= 2

    def _merge_two_oldest(self, size: int) -> None:
        # Find the two oldest buckets of the given size (near the left end).
        first_idx = None
        buckets = self._buckets
        for idx, bucket in enumerate(buckets):
            if bucket.size == size:
                if first_idx is None:
                    first_idx = idx
                else:
                    merged = _Bucket(bucket.timestamp, size * 2)
                    del buckets[idx]
                    del buckets[first_idx]
                    buckets.insert(first_idx, merged)
                    self._per_size[size] -= 2
                    self._per_size[size * 2] = self._per_size.get(size * 2, 0) + 1
                    return
        raise AssertionError("per-size accounting out of sync")  # pragma: no cover

    def expire(self, now: float) -> None:
        """Drop buckets whose newest element left the window."""
        horizon = now - self.window
        buckets = self._buckets
        while buckets and buckets[0].timestamp <= horizon:
            bucket = buckets.popleft()
            self._per_size[bucket.size] -= 1
            if self._per_size[bucket.size] == 0:
                del self._per_size[bucket.size]
            self._total_size -= bucket.size

    def _estimate(self, now: float) -> float:
        self.expire(now)
        if not self._buckets:
            return 0.0
        if len(self._buckets) == 1:
            return float(self._total_size)
        return self._total_size - self._buckets[0].size / 2.0

    def buckets(self) -> list[tuple[float, int]]:
        """``(newest_timestamp, size)`` per bucket, oldest first."""
        return [(b.timestamp, b.size) for b in self._buckets]

    def _reindex(self) -> None:
        self._buckets = deque(self._buckets)
        self._per_size = dict(Counter(bucket.size for bucket in self._buckets))
        self._total_size = sum(bucket.size for bucket in self._buckets)


@register_summary(
    "eh_count",
    kind="sketch",
    input_kind="time",
    factory=lambda: ExponentialHistogramCount(epsilon=0.05, window=100.0),
    mergeable=False,
    exact_merge=False,
    ordered=True,
)
class ExponentialHistogramCount(_ExponentialHistogramBase):
    """EH over unit arrivals: sliding-window count within ``(1 + epsilon)``."""

    def query(self, now: float | None = None) -> float:
        """Primary answer (StreamSummary protocol): the window count."""
        return self.count(self._last_time if now is None else now)

    def update(self, timestamp: float) -> None:
        """Record one arrival at ``timestamp`` (non-decreasing order)."""
        if timestamp < self._last_time:
            raise ParameterError(
                "ExponentialHistogram requires in-order arrivals "
                f"({timestamp} < {self._last_time}); this is one of the "
                "backward-decay limitations forward decay removes"
            )
        self._last_time = timestamp
        self._insert_bucket(timestamp, 1)
        self.expire(timestamp)

    def count(self, now: float) -> float:
        """Estimated number of arrivals in ``(now - window, now]``."""
        return self._estimate(now)


@register_summary(
    "eh_sum",
    kind="sketch",
    input_kind="time_value_ordered",
    factory=lambda: ExponentialHistogramSum(epsilon=0.05, window=100.0),
    mergeable=False,
    exact_merge=False,
    ordered=True,
)
class ExponentialHistogramSum(_ExponentialHistogramBase):
    """EH over non-negative integer values: sliding-window sum.

    Each value is inserted as its binary decomposition (one bucket per set
    bit), after which the standard merge invariant applies; the estimate
    carries the same ``(1 + epsilon)`` relative-error guarantee.
    """

    def query(self, now: float | None = None) -> float:
        """Primary answer (StreamSummary protocol): the window sum."""
        return self.sum(self._last_time if now is None else now)

    def update(self, timestamp: float, value: int) -> None:
        """Record an arrival of integer ``value >= 0`` at ``timestamp``."""
        if timestamp < self._last_time:
            raise ParameterError(
                "ExponentialHistogram requires in-order arrivals "
                f"({timestamp} < {self._last_time})"
            )
        if value < 0:
            raise ParameterError(f"value must be >= 0, got {value!r}")
        self._last_time = timestamp
        remaining = int(value)
        bit = 1
        while remaining:
            if remaining & 1:
                self._insert_bucket(timestamp, bit)
            remaining >>= 1
            bit <<= 1
        self.expire(timestamp)

    def sum(self, now: float) -> float:
        """Estimated sum of values in ``(now - window, now]``."""
        return self._estimate(now)


class DecayedEHCombiner:
    """Arbitrary backward-decayed sum/count from one EH (Cohen-Strauss).

    Wraps an EH and, at query time, evaluates **any** backward decay
    function ``f`` over the bucket staircase::

        decayed ~ sum_b size_b * f(now - timestamp_b) / f(0)

    This is the paper's "best previous method" baseline: a single data
    structure answering decayed queries for decay functions chosen at query
    time, at the price of much higher per-update cost and per-group space
    than forward decay.
    """

    def __init__(self, histogram: _ExponentialHistogramBase):
        self._histogram = histogram

    @property
    def histogram(self) -> _ExponentialHistogramBase:
        """The underlying Exponential Histogram."""
        return self._histogram

    def decayed_value(self, f: FFunction, now: float) -> float:
        """Approximate the ``f``-decayed aggregate at time ``now``."""
        self._histogram.expire(now)
        f0 = f(0.0)
        total = 0.0
        for timestamp, size in self._histogram.buckets():
            age = now - timestamp
            if age < 0:
                age = 0.0
            total += size * f(age)
        return total / f0

    def state_size_bytes(self) -> int:
        """Footprint of the underlying histogram."""
        return self._histogram.state_size_bytes()

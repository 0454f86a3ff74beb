"""SpaceSaving frequent-items summaries (Metwally et al., ICDT 2005).

Two variants are provided, mirroring the paper's experimental setup
(Section VIII, "Heavy Hitter Aggregates"):

* :class:`UnarySpaceSaving` — the classic structure optimized for unary
  (+1) updates, using the Stream-Summary bucket list so every update is
  O(1).  This is the paper's undecayed baseline ("Unary HH").
* :class:`WeightedSpaceSaving` — accepts arbitrary non-negative real
  weights per update, as required by forward decay (Theorem 2 reduces
  decayed heavy hitters to weighted heavy hitters with static weights
  ``g(t_i - L)``).  An update to a monitored item is one dict store; only
  a replacement consults the min-heap, O(log 1/eps) amortized.

Guarantees (single-stream): with ``capacity = ceil(1/eps)`` counters, each
estimate ``est(v)`` satisfies ``true(v) <= est(v) <= true(v) + eps * W``
where ``W`` is the total weight, and every item with true weight
``>= eps * W`` is among the counters (no false negatives for
``phi >= eps`` heavy-hitter queries).

Both variants merge (Agarwal et al., "Mergeable Summaries"): counts of the
union are summed and the largest ``capacity`` survive; the two-sided error
``|est - true| <= eps * W_total`` is preserved.
"""

from __future__ import annotations

import heapq
import math
from abc import abstractmethod
from typing import Hashable, Iterable, Iterator

from repro.core.errors import ParameterError
from repro.core.protocol import EXACT, RAW, WEIGHT, Field, StreamSummary, Table, Value
from repro.core.registry import register_summary

__all__ = ["SpaceSavingBase", "UnarySpaceSaving", "WeightedSpaceSaving", "Counter"]


class Counter:
    """A monitored item: estimated weight plus maximum overestimation."""

    __slots__ = ("item", "count", "error")

    def __init__(self, item: Hashable, count: float, error: float):
        self.item = item
        self.count = count
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.item!r}, count={self.count:g}, error={self.error:g})"


def capacity_for_epsilon(epsilon: float) -> int:
    """Number of counters needed for additive error ``epsilon * W``."""
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return max(1, math.ceil(1.0 / epsilon))


class SpaceSavingBase(StreamSummary):
    """Shared query interface of the two SpaceSaving variants."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity!r}")
        super().__init__()
        self.capacity = capacity

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "SpaceSavingBase":
        """Build a summary sized for additive error ``epsilon * W``."""
        return cls(capacity_for_epsilon(epsilon))

    @property
    def total_weight(self) -> float:
        """Total weight of all updates folded in (the ``W`` of the bounds)."""
        return self._total

    @property
    def epsilon(self) -> float:
        """The additive-error fraction guaranteed by this capacity."""
        return 1.0 / self.capacity

    @abstractmethod
    def update(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` to ``item``'s frequency."""

    @abstractmethod
    def counters(self) -> Iterator[Counter]:
        """Iterate over the monitored counters (order unspecified)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of monitored items (``<= capacity``)."""

    @abstractmethod
    def estimate(self, item: Hashable) -> float:
        """Upper-bound estimate of ``item``'s total weight (0 if unmonitored)."""

    @abstractmethod
    def guaranteed_weight(self, item: Hashable) -> float:
        """Lower bound on ``item``'s true weight (``count - error``)."""

    def heavy_hitters(self, phi: float) -> list[Counter]:
        """All monitored items with estimated weight ``>= phi * W``.

        With ``phi >= epsilon`` this contains every true ``phi``-heavy
        hitter, and contains no item of true weight ``< (phi - epsilon) W``
        (Theorem 2 of the paper, via the SpaceSaving guarantee).
        """
        if not 0.0 < phi <= 1.0:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        threshold = phi * self._total
        hitters = [c for c in self.counters() if c.count >= threshold]
        hitters.sort(key=lambda c: -c.count)
        return hitters

    def top_k(self, k: int) -> list[Counter]:
        """The ``k`` monitored items with the largest estimated weights."""
        ranked = sorted(self.counters(), key=lambda c: -c.count)
        return ranked[:k]

    def query(self, phi: float = 0.05) -> list[tuple[Hashable, float, float]]:
        """Primary answer (StreamSummary protocol): the ``phi``-heavy hitters
        as plain ``(item, count, error)`` tuples."""
        return [(c.item, c.count, c.error) for c in self.heavy_hitters(phi)]

    def _reindex(self) -> None:
        errors = self._errors
        for item, count in self._counts.items():
            if not errors[item] <= count:
                raise ParameterError(
                    f"counter {item!r}: {count!r}, error {errors[item]!r}"
                )


def _counter_fields(role: str) -> tuple[Field, ...]:
    """A SpaceSaving payload: no more than ``capacity`` counters, each
    ``[item, count, error]`` with ``0 <= error <= count`` and a footprint
    of 2 floats + 1 key slot."""
    weight = Value(role, nonneg=True)
    return (
        Field("capacity", init=True),
        Field("total", weight, initial=0.0),
        Field("counters", Table(RAW, weight, weight, most="capacity"),
              attr=("_counts", "_errors"), initial=(dict, dict), entry_bytes=24),
    )


@register_summary(
    "weighted_spacesaving",
    kind="sketch",
    input_kind="item_weight",
    factory=lambda: WeightedSpaceSaving.from_epsilon(0.02),
)
class WeightedSpaceSaving(SpaceSavingBase):
    """SpaceSaving with arbitrary non-negative per-update weights.

    The forward-decay engine of :class:`repro.core.heavy_hitters.DecayedHeavyHitters`.
    The heap holds exactly one ``(recorded count, item)`` entry per
    counter and an update to a monitored item leaves it alone, so recorded
    <= actual for every entry.  A replacement refreshes a stale top in
    place until the top is current: every other entry sorts at or after it
    and under-records, so that top is the true ``(count, item)`` minimum —
    the victim a heap pushed to on every update would have chosen.
    """

    _FIELDS = _counter_fields(WEIGHT)

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._heap: list[tuple[float, Hashable]] = []

    def update(self, item: Hashable, weight: float = 1.0) -> None:
        if weight < 0 or math.isnan(weight):
            raise ParameterError(f"weight must be >= 0, got {weight!r}")
        if weight == 0.0:
            return
        self._total += weight
        counts = self._counts
        if item in counts:
            counts[item] += weight
        elif len(counts) < self.capacity:
            counts[item] = weight
            self._errors[item] = 0.0
            heapq.heappush(self._heap, (weight, item))
        else:
            self._replace_min(item, weight)

    def update_many(self, first, second=None) -> None:
        """Batch ingest: the :meth:`update` loop with dict/heap lookups
        hoisted.  Bit-identical to per-item updates (same eviction order,
        same heap)."""
        if second is not None and len(first) != len(second):
            raise ParameterError(
                f"column lengths differ: {len(first)} != {len(second)}"
            )
        counts = self._counts
        errors = self._errors
        heap = self._heap
        push = heapq.heappush
        capacity = self.capacity
        total = self._total
        pairs = (
            zip(first, second) if second is not None
            else ((item, 1.0) for item in first)
        )
        try:
            for item, weight in pairs:
                if weight < 0 or math.isnan(weight):
                    raise ParameterError(f"weight must be >= 0, got {weight!r}")
                if weight == 0.0:
                    continue
                total += weight
                if item in counts:
                    counts[item] += weight
                elif len(counts) < capacity:
                    counts[item] = weight
                    errors[item] = 0.0
                    push(heap, (weight, item))
                else:
                    self._replace_min(item, weight)
        finally:
            self._total = total

    def _replace_min(self, item: Hashable, weight: float) -> None:
        """Hand the counter with the smallest ``(count, item)`` to ``item``."""
        heap, counts, errors = self._heap, self._counts, self._errors
        min_count, victim = heap[0]
        while counts[victim] != min_count:
            # Stale: the victim was updated since.  Re-file it under its
            # current count; what surfaces next is again a lower bound.
            heapq.heapreplace(heap, (counts[victim], victim))
            min_count, victim = heap[0]
        del counts[victim]
        del errors[victim]
        counts[item] = min_count + weight
        errors[item] = min_count
        heapq.heapreplace(heap, (min_count + weight, item))

    def counters(self) -> Iterator[Counter]:
        errors = self._errors
        for item, count in self._counts.items():
            yield Counter(item, count, errors[item])

    def estimate(self, item: Hashable) -> float:
        return self._counts.get(item, 0.0)

    def guaranteed_weight(self, item: Hashable) -> float:
        if item in self._counts:
            return self._counts[item] - self._errors[item]
        return 0.0

    def __len__(self) -> int:
        return len(self._counts)

    def merge(self, other: "WeightedSpaceSaving", factor: float = 1.0) -> None:
        """Fold ``other`` in (mergeable-summaries semantics).

        Counts of the union are summed (missing = 0), errors likewise, and
        only the ``capacity`` largest counts survive.  The result satisfies
        the two-sided bound ``|est - true| <= eps * (W_self + W_other)``.

        ``factor`` pre-scales the peer's counts as they are read — used by
        the forward-decay layer to align summaries renormalized against
        different internal landmarks without mutating ``other``.
        """
        self._check_merge(other, "capacity")
        merged_counts = dict(self._counts)
        merged_errors = dict(self._errors)
        for item, count in other._counts.items():
            if item in merged_counts:
                merged_counts[item] += count * factor
                merged_errors[item] += other._errors[item] * factor
            else:
                merged_counts[item] = count * factor
                merged_errors[item] = other._errors[item] * factor
        survivors = sorted(merged_counts, key=merged_counts.__getitem__, reverse=True)
        survivors = survivors[: self.capacity]
        self._counts = {item: merged_counts[item] for item in survivors}
        self._errors = {item: merged_errors[item] for item in survivors}
        self._total += other._total * factor
        self._reindex()

    def _reindex(self) -> None:
        super()._reindex()
        self._heap = [(count, item) for item, count in self._counts.items()]
        heapq.heapify(self._heap)


class _Bucket:
    """A node in the Stream-Summary list: all items sharing one count."""

    __slots__ = ("count", "items", "prev", "next")

    def __init__(self, count: int):
        self.count = count
        self.items: set[Hashable] = set()
        self.prev: _Bucket | None = None
        self.next: _Bucket | None = None


@register_summary(
    "unary_spacesaving",
    kind="sketch",
    input_kind="item",
    factory=lambda: UnarySpaceSaving.from_epsilon(0.02),
)
class UnarySpaceSaving(SpaceSavingBase):
    """SpaceSaving optimized for unary (+1) updates: O(1) per update.

    Implements the Stream-Summary structure of Metwally et al.: buckets of
    equal-count items kept in a doubly-linked list sorted by count.  A unary
    increment moves an item to the adjacent bucket, so no heap or search is
    needed.  This is the "version optimized for unweighted (unary) updates"
    the paper benchmarks as *Unary HH*.
    """

    _FIELDS = _counter_fields(EXACT)

    def __init__(self, capacity: int):
        super().__init__(capacity)  # sets _counts: _bucket_of and _head

    def update(self, item: Hashable, weight: float = 1.0) -> None:
        if weight != 1.0:
            raise ParameterError(
                "UnarySpaceSaving only accepts unit weights; use "
                "WeightedSpaceSaving for arbitrary weights"
            )
        self._total += 1.0
        if item in self._bucket_of:
            self._increment(item)
        elif len(self._bucket_of) < self.capacity:
            self._insert_new(item, count=1, error=0)
        else:
            self._evict_and_replace(item)

    def update_many(self, first, second=None) -> None:
        """Batch ingest of unit updates: the :meth:`update` loop with the
        bucket-map lookups hoisted.  A non-unit weight raises exactly where
        the per-item loop would."""
        if second is not None and len(second) != len(first):
            raise ParameterError(
                f"column lengths differ: {len(first)} != {len(second)}"
            )
        bucket_of = self._bucket_of
        capacity = self.capacity
        for index, item in enumerate(first):
            if second is not None and second[index] != 1.0:
                raise ParameterError(
                    "UnarySpaceSaving only accepts unit weights; use "
                    "WeightedSpaceSaving for arbitrary weights"
                )
            self._total += 1.0
            if item in bucket_of:
                self._increment(item)
            elif len(bucket_of) < capacity:
                self._insert_new(item, count=1, error=0)
            else:
                self._evict_and_replace(item)

    # -- linked-list plumbing --------------------------------------------------

    def _insert_new(self, item: Hashable, count: int, error: int) -> None:
        bucket = self._find_or_make_bucket(count)
        bucket.items.add(item)
        self._bucket_of[item] = bucket
        self._errors[item] = error

    def _find_or_make_bucket(self, count: int) -> _Bucket:
        """Find the bucket with ``count``, creating it in sorted position."""
        node = self._head
        prev: _Bucket | None = None
        while node is not None and node.count < count:
            prev = node
            node = node.next
        if node is not None and node.count == count:
            return node
        bucket = _Bucket(count)
        bucket.prev = prev
        bucket.next = node
        if prev is None:
            self._head = bucket
        else:
            prev.next = bucket
        if node is not None:
            node.prev = bucket
        return bucket

    def _move_to_next_count(self, item: Hashable, bucket: _Bucket) -> None:
        """Move ``item`` from ``bucket`` to the count+1 bucket in O(1).

        The destination is either the immediate successor (when its count
        matches) or a fresh bucket spliced in right after ``bucket`` —
        never a scan from the head, which is what makes unary updates O(1).
        """
        target_count = bucket.count + 1
        successor = bucket.next
        bucket.items.discard(item)
        if successor is not None and successor.count == target_count:
            destination = successor
        else:
            destination = _Bucket(target_count)
            destination.prev = bucket
            destination.next = successor
            bucket.next = destination
            if successor is not None:
                successor.prev = destination
        destination.items.add(item)
        self._bucket_of[item] = destination
        if not bucket.items:
            self._unlink(bucket)

    def _unlink(self, bucket: _Bucket) -> None:
        if bucket.prev is None:
            self._head = bucket.next
        else:
            bucket.prev.next = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev

    def _increment(self, item: Hashable) -> None:
        self._move_to_next_count(item, self._bucket_of[item])

    def _evict_and_replace(self, item: Hashable) -> None:
        min_bucket = self._head
        assert min_bucket is not None  # capacity >= 1 and summary full
        victim = next(iter(min_bucket.items))
        min_count = min_bucket.count
        del self._bucket_of[victim]
        del self._errors[victim]
        # Stand the new item in the victim's slot, then bump it to count+1;
        # both steps are local to the minimum bucket.
        self._bucket_of[item] = min_bucket
        min_bucket.items.discard(victim)
        min_bucket.items.add(item)
        self._errors[item] = min_count
        self._move_to_next_count(item, min_bucket)

    # -- queries ----------------------------------------------------------------

    def counters(self) -> Iterator[Counter]:
        for item, bucket in self._bucket_of.items():
            yield Counter(item, float(bucket.count), float(self._errors[item]))

    def estimate(self, item: Hashable) -> float:
        bucket = self._bucket_of.get(item)
        return float(bucket.count) if bucket is not None else 0.0

    def guaranteed_weight(self, item: Hashable) -> float:
        bucket = self._bucket_of.get(item)
        if bucket is None:
            return 0.0
        return float(bucket.count - self._errors[item])

    def __len__(self) -> int:
        return len(self._bucket_of)

    def merge(self, other: "UnarySpaceSaving") -> None:
        """Fold ``other`` in (same semantics as the weighted variant)."""
        self._check_merge(other, "capacity")
        counts, errors = self._counts, dict(self._errors)
        for item, count in other._counts.items():
            counts[item] = counts.get(item, 0) + count
            errors[item] = errors.get(item, 0) + other._errors[item]
        survivors = sorted(counts, key=counts.__getitem__, reverse=True)
        survivors = survivors[: self.capacity]
        self._total += other._total
        self._counts = {item: counts[item] for item in survivors}
        self._errors = {item: errors[item] for item in survivors}

    @property
    def _counts(self) -> dict[Hashable, int]:
        """Each monitored item's count; setting it rebuilds the buckets."""
        return {item: bucket.count for item, bucket in self._bucket_of.items()}

    @_counts.setter
    def _counts(self, counts: dict[Hashable, int]) -> None:
        self._bucket_of = {}
        self._head = None
        for item, count in counts.items():
            bucket = self._find_or_make_bucket(count)
            bucket.items.add(item)
            self._bucket_of[item] = bucket


def exact_heavy_hitters(
    items: Iterable[tuple[Hashable, float]], phi: float
) -> list[tuple[Hashable, float]]:
    """Exact weighted heavy hitters, for test oracles.

    ``items`` yields ``(item, weight)`` pairs; returns ``(item, weight)``
    for all items whose total weight is ``>= phi`` times the grand total,
    sorted by descending weight.
    """
    totals: dict[Hashable, float] = {}
    grand = 0.0
    for item, weight in items:
        totals[item] = totals.get(item, 0.0) + weight
        grand += weight
    threshold = phi * grand
    ranked = [(i, w) for i, w in totals.items() if w >= threshold]
    ranked.sort(key=lambda pair: -pair[1])
    return ranked

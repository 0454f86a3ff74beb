"""KMV (k minimum values / bottom-k) distinct-count sketch.

The building block for the decayed count-distinct of Section IV-D: the
dominance-norm estimator decomposes the weighted problem into distinct
counts over weight levels, each tracked by one KMV sketch.

A KMV sketch hashes each item to ``[0, 1)`` and keeps the ``k`` smallest
distinct hash values.  With ``v_k`` the k-th smallest value, the number of
distinct items is estimated as ``(k - 1) / v_k``; the estimate has relative
standard error about ``1 / sqrt(k - 2)``.  When fewer than ``k`` distinct
items were seen the count is exact.

Sketches with the same ``k`` and seed merge by uniting their value sets and
re-trimming to the ``k`` smallest — the result is identical to sketching
the union stream directly, which makes the estimator order-insensitive and
distributable (Section VI-B).
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable

# The built-in BLAKE2 that ``hashlib.blake2b`` is; importing it from here
# keeps ``hashlib`` — and the OpenSSL it maps — out of the process.
from _blake2 import blake2b

from repro.core.errors import ParameterError
from repro.core.groups import group_id
from repro.core.protocol import RAW, Field, ListOf, StreamSummary
from repro.core.registry import register_summary

__all__ = ["KMVSketch", "hash_to_unit", "check_seed"]

_HASH_DENOMINATOR = float(1 << 64)

#: A seed keys BLAKE2 as 8 little-endian bytes: seeds lie in ``[0, 2**64)``.
SEED_LIMIT = 1 << 64


def hash_to_unit(item: Hashable, seed: int = 0) -> float:
    """Deterministically hash ``item`` to a float in ``[0, 1)``.

    Uses blake2b keyed by the seed over the item's
    :func:`~repro.core.groups.group_id` — a tuple's marked, so ``"a"`` is
    not ``("a",)`` — so results are stable across processes and Python
    versions (unlike built-in ``hash``), and items a dict holds as one
    (``1``, ``1.0``, ``True``) hash alike.  So does every NaN, which a dict
    keeps apart by object.  ``seed`` must lie in
    ``[0, 2**64)``; the classes that hash with one check it once, when they
    are built (:func:`check_seed`), not here.
    """
    named = b"(" + group_id(item) if type(item) is tuple else group_id((item,))
    digest = blake2b(named, digest_size=8, key=seed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest, "big") / _HASH_DENOMINATOR


def check_seed(seed) -> int:
    """``seed`` itself when it is an int in ``[0, 2**64)``, else a
    :class:`ParameterError` naming that range — so a seed
    :func:`hash_to_unit` cannot key fails where it is given."""
    if not isinstance(seed, int) or not 0 <= seed < SEED_LIMIT:
        raise ParameterError(f"seed must be an int in [0, 2**64), got {seed!r}")
    return seed


@register_summary(
    "kmv",
    kind="sketch",
    input_kind="item",
    factory=lambda: KMVSketch(k=64, seed=7),
)
class KMVSketch(StreamSummary):
    """Bottom-k distinct counter.

    Parameters
    ----------
    k:
        Number of minimum hash values retained.  Relative standard error of
        the estimate is roughly ``1 / sqrt(k - 2)``.
    seed:
        Hash seed in ``[0, 2**64)``; sketches only merge when seeds match.
    """

    __slots__ = ("k", "seed", "_heap", "_members", "_exact")

    _FIELDS = (
        Field("k", init=True),
        Field("seed", init=True),
        Field("exact", initial=True),  # still below k distinct values?
        # 8 bytes per retained hash value.
        Field("values", ListOf(RAW, kind=set), attr="_members", initial=set,
              entry_bytes=8),
    )

    def __init__(self, k: int = 256, seed: int = 0):
        if k < 2:
            raise ParameterError(f"k must be >= 2, got {k!r}")
        self.k = k
        self.seed = check_seed(seed)
        super().__init__()
        self._reindex()

    def update(self, item: Hashable) -> None:
        """Record one occurrence of ``item`` (duplicates are free)."""
        self._insert_value(hash_to_unit(item, self.seed))

    def _insert_value(self, value: float) -> None:
        if value in self._members:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, -value)
            self._members.add(value)
            return
        self._exact = False
        largest = -self._heap[0]
        if value < largest:
            heapq.heapreplace(self._heap, -value)
            self._members.discard(largest)
            self._members.add(value)

    def estimate(self) -> float:
        """Estimated number of distinct items seen."""
        if self._exact:
            return float(len(self._members))
        kth_smallest = -self._heap[0]
        return (self.k - 1) / kth_smallest

    def __len__(self) -> int:
        """Number of hash values currently retained (``<= k``)."""
        return len(self._members)

    def is_exact(self) -> bool:
        """True while the sketch still holds every distinct item's hash."""
        return self._exact

    def values(self) -> Iterable[float]:
        """The retained hash values (order unspecified)."""
        return iter(self._members)

    def merge(self, other: "KMVSketch") -> None:
        """Fold ``other`` in; equivalent to having sketched the union."""
        self._check_merge(other, "k", "seed")
        if not other._exact:
            self._exact = False
        for value in other._members:
            self._insert_value(value)

    def copy(self) -> "KMVSketch":
        """An independent copy (used by multi-level union queries)."""
        clone = KMVSketch(self.k, self.seed)
        clone._heap = list(self._heap)
        clone._members = set(self._members)
        clone._exact = self._exact
        return clone

    def query(self) -> float:
        """Primary answer (StreamSummary protocol): the distinct count."""
        return self.estimate()

    def _reindex(self) -> None:
        # Max-heap (negated) of the k smallest hash values; the set of them
        # detects duplicates in O(1).
        self._heap = [-value for value in sorted(self._members)]
        heapq.heapify(self._heap)

"""q-digest: a weighted quantile summary (Shrivastava et al., SenSys 2004).

The q-digest summarizes a weighted multiset over an integer domain
``[0, U)`` (``U`` a power of two) using a sparse subset of the nodes of the
complete binary tree over the domain.  It supports weighted updates
natively — which is exactly what Theorem 3 of the forward-decay paper needs:
decayed quantiles reduce to weighted quantiles over the static weights
``g(t_i - L)``.

Guarantees: with compression factor ``k``, the digest keeps ``O(k)`` nodes
and answers rank queries within additive error ``log2(U) * W / k`` where
``W`` is the total weight.  Choosing ``k = ceil(log2(U) / eps)`` yields the
``eps * W`` rank error of the theorem with ``O((1/eps) log U)`` space.

The structure is fully mergeable: summing the node counts of two digests
over the same domain and re-compressing yields a valid digest of the union
(Section VI-B of the forward-decay paper relies on this).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import RAW, WEIGHT, Field, StreamSummary, Table, Value
from repro.core.registry import register_summary

__all__ = ["QDigest"]


@register_summary(
    "qdigest",
    kind="sketch",
    input_kind="value_weight",
    factory=lambda: QDigest.from_epsilon(0.01, universe_bits=10),
)
class QDigest(StreamSummary):
    """A weighted q-digest over the integer domain ``[0, 2**universe_bits)``.

    Parameters
    ----------
    universe_bits:
        ``log2`` of the domain size ``U``.  Values passed to :meth:`update`
        must lie in ``[0, 2**universe_bits)``.
    k:
        Compression factor: larger ``k`` means more nodes kept and smaller
        rank error (``log2(U) * W / k``).

    Notes
    -----
    Node ids use heap numbering over the complete binary tree: the root is
    ``1`` and covers the whole domain; the leaf for value ``x`` is
    ``U + x``.  Only nodes with non-zero count are stored.
    """

    _FIELDS = (
        Field("universe_bits", init=True),
        Field("k", init=True),
        Field("total", Value(WEIGHT, nonneg=True), initial=0.0),
        Field("updates_since_compress", initial=0),
        # One (id, count) pair per stored node.
        Field("nodes", Table(RAW, Value(WEIGHT, nonneg=True), sort=True),
              attr="_counts", initial=dict, entry_bytes=16),
    )

    def __init__(self, universe_bits: int, k: int):
        if universe_bits < 1 or universe_bits > 62:
            raise ParameterError(
                f"universe_bits must be in [1, 62], got {universe_bits!r}"
            )
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k!r}")
        super().__init__()
        self.universe_bits = universe_bits
        self.universe = 1 << universe_bits
        self.k = k

    @classmethod
    def from_epsilon(cls, epsilon: float, universe_bits: int) -> "QDigest":
        """Digest sized so rank queries have additive error ``epsilon * W``."""
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        k = max(1, math.ceil(universe_bits / epsilon))
        return cls(universe_bits, k)

    # -- updates -----------------------------------------------------------------

    @property
    def total_weight(self) -> float:
        """Total weight inserted (the ``W`` of the error bound)."""
        return self._total

    def __len__(self) -> int:
        """Number of stored tree nodes."""
        return len(self._counts)

    def update(self, value: int, weight: float = 1.0) -> None:
        """Add ``weight`` mass at ``value``.

        Amortized cost is O(1) plus periodic compression; compression runs
        every ``k`` updates so its O(k log U) cost amortizes to O(log U).
        """
        if not 0 <= value < self.universe:
            raise ParameterError(
                f"value must be in [0, {self.universe}), got {value!r}"
            )
        if weight < 0 or math.isnan(weight):
            raise ParameterError(f"weight must be >= 0, got {weight!r}")
        if weight == 0.0:
            return
        leaf = self.universe + value
        self._counts[leaf] = self._counts.get(leaf, 0.0) + weight
        self._total += weight
        self._updates_since_compress += 1
        if self._updates_since_compress >= self.k:
            self.compress()

    def update_many(self, first, second=None) -> None:
        """Batch ingest: the :meth:`update` loop with the leaf fold inlined.

        Bit-identical to per-item updates: dict lookups and the running
        total are hoisted into locals, but compression fires at exactly
        the same points with exactly the same totals, so the node layout
        matches the loop's.  A mid-batch validation error leaves the
        prefix before it applied — same as the per-item loop.
        """
        if second is not None and len(first) != len(second):
            raise ParameterError(
                f"column lengths differ: {len(first)} != {len(second)}"
            )
        counts = self._counts
        get = counts.get
        universe = self.universe
        k = self.k
        isnan = math.isnan
        total = self._total
        since = self._updates_since_compress
        try:
            if second is None:
                for value in first:
                    if not 0 <= value < universe:
                        raise ParameterError(
                            f"value must be in [0, {universe}), got {value!r}"
                        )
                    leaf = universe + value
                    counts[leaf] = get(leaf, 0.0) + 1.0
                    total += 1.0
                    since += 1
                    if since >= k:
                        self._total = total
                        self._updates_since_compress = since
                        self.compress()
                        since = 0
            else:
                for value, weight in zip(first, second):
                    if not 0 <= value < universe:
                        raise ParameterError(
                            f"value must be in [0, {universe}), got {value!r}"
                        )
                    if weight < 0 or isnan(weight):
                        raise ParameterError(
                            f"weight must be >= 0, got {weight!r}"
                        )
                    if weight == 0.0:
                        continue
                    leaf = universe + value
                    counts[leaf] = get(leaf, 0.0) + weight
                    total += weight
                    since += 1
                    if since >= k:
                        self._total = total
                        self._updates_since_compress = since
                        self.compress()
                        since = 0
        finally:
            self._total = total
            self._updates_since_compress = since

    # -- structure maintenance ------------------------------------------------------

    def _node_range(self, node: int) -> tuple[int, int]:
        """Return the inclusive ``[lo, hi]`` value range covered by ``node``."""
        level_bits = node.bit_length() - 1
        span = self.universe >> level_bits
        lo = (node - (1 << level_bits)) * span
        return lo, lo + span - 1

    def compress(self) -> None:
        """Restore the q-digest property, pruning light subtrees upward.

        Bottom-up: whenever ``count(v) + count(sibling) + count(parent)``
        falls below ``floor(W / k)``, the children's mass moves into the
        parent.  Mass only moves toward the root, which is what bounds the
        rank error by the tree height times the threshold.
        """
        threshold = math.floor(self._total / self.k)
        self._updates_since_compress = 0
        if threshold <= 0:
            return
        counts = self._counts
        for node in sorted(counts, reverse=True):
            if node <= 1:
                continue
            count = counts.get(node)
            if count is None:  # already absorbed by a sibling's pass
                continue
            parent = node >> 1
            sibling = node ^ 1
            family = count + counts.get(sibling, 0.0) + counts.get(parent, 0.0)
            if family < threshold:
                counts[parent] = family
                counts.pop(node, None)
                counts.pop(sibling, None)

    # -- queries -----------------------------------------------------------------

    def rank(self, value: int) -> float:
        """Approximate weight of items ``<= value``.

        The estimate counts every stored node whose range lies entirely at
        or below ``value``; nodes straddling ``value`` are omitted, so the
        estimate errs low by at most ``log2(U) * W / k``.
        """
        if not 0 <= value < self.universe:
            raise ParameterError(
                f"value must be in [0, {self.universe}), got {value!r}"
            )
        total = 0.0
        for node, count in self._counts.items():
            __, hi = self._node_range(node)
            if hi <= value:
                total += count
        return total

    def quantile(self, phi: float) -> int:
        """The paper's Definition 8: smallest ``v`` with rank ``>= phi * W``.

        Traverses stored nodes in increasing order of their upper range
        bound (ties broken smaller-range first, i.e. post-order), summing
        counts until the target mass is reached.
        """
        if not 0.0 <= phi <= 1.0:
            raise ParameterError(f"phi must be in [0, 1], got {phi!r}")
        if self._total == 0.0:
            raise EmptySummaryError("quantile query on empty q-digest")
        target = phi * self._total
        ordered = sorted(
            self._counts.items(),
            key=lambda kv: (self._node_range(kv[0])[1], -kv[0]),
        )
        running = 0.0
        last_hi = 0
        for node, count in ordered:
            running += count
            __, last_hi = self._node_range(node)
            if running >= target:
                return last_hi
        return last_hi

    def quantiles(self, phis: Iterable[float]) -> list[int]:
        """Batch quantile queries sharing one traversal-ordered pass."""
        requested = list(phis)
        for phi in requested:
            if not 0.0 <= phi <= 1.0:
                raise ParameterError(f"phi must be in [0, 1], got {phi!r}")
        if self._total == 0.0:
            raise EmptySummaryError("quantile query on empty q-digest")
        ordered = sorted(
            self._counts.items(),
            key=lambda kv: (self._node_range(kv[0])[1], -kv[0]),
        )
        # Answer queries in ascending phi while walking the nodes once.
        order = sorted(range(len(requested)), key=lambda i: requested[i])
        answers: list[int] = [0] * len(requested)
        running = 0.0
        position = 0
        last_hi = 0
        for node, count in ordered:
            running += count
            __, last_hi = self._node_range(node)
            while (
                position < len(order)
                and running >= requested[order[position]] * self._total
            ):
                answers[order[position]] = last_hi
                position += 1
        while position < len(order):
            answers[order[position]] = last_hi
            position += 1
        return answers

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "QDigest", factor: float = 1.0) -> None:
        """Fold ``other`` into this digest (union semantics).

        Both digests must share the domain; the compression factor of the
        result is ``self.k``.  Error bounds add: the merged rank error is at
        most the sum of the inputs' errors, which is within
        ``log2(U) * (W1 + W2) / k`` after re-compression.

        ``factor`` pre-scales the peer's counts as they are read — used by
        the forward-decay layer to align summaries renormalized against
        different internal landmarks without mutating ``other``.
        """
        self._check_merge(other, "universe_bits")
        for node, count in other._counts.items():
            self._counts[node] = self._counts.get(node, 0.0) + count * factor
        self._total += other._total * factor
        self.compress()

    def query(self, phi: float = 0.5) -> int:
        """Primary answer (StreamSummary protocol): the ``phi``-quantile."""
        return self.quantile(phi)

    def nodes(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(lo, hi, count)`` for each stored node (for debugging)."""
        for node, count in self._counts.items():
            lo, hi = self._node_range(node)
            yield lo, hi, count

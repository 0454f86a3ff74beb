"""Count-Min sketch with weighted updates.

An alternative substrate for forward-decayed frequency estimation: where
SpaceSaving tracks the top items explicitly, the Count-Min sketch answers
*point queries* for any item with additive error ``eps * W`` (with
probability ``1 - delta``) and is trivially mergeable and scalable — the
two operations the forward-decay layer needs.

Layout: ``depth`` rows of ``width`` float counters, row hashes seeded
independently.  ``width = ceil(e / eps)`` and ``depth = ceil(ln(1/delta))``
give the classic guarantees.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.errors import ParameterError
from repro.core.protocol import WEIGHT, Field, ListOf, StreamSummary, Value
from repro.core.registry import register_summary
from repro.sketches.kmv import SEED_LIMIT, check_seed, hash_to_unit

__all__ = ["CountMinSketch"]


@register_summary(
    "countmin",
    kind="sketch",
    input_kind="item_weight",
    factory=lambda: CountMinSketch(epsilon=0.02, delta=0.01, seed=7),
)
class CountMinSketch(StreamSummary):
    """Weighted Count-Min frequency sketch."""

    # epsilon and delta size the grid: believe them only as far as the
    # payload carries that grid, or a flipped bit asks for gigabytes
    # before anything else is looked at.
    _FIELDS = (
        Field("epsilon", init=True),
        Field("delta", init=True),
        Field("seed", init=True),
        Field("total", Value(WEIGHT, nonneg=True), initial=0.0),
        # ``width x depth`` float counters.
        Field("rows", ListOf(
            ListOf(Value(WEIGHT, nonneg=True),
                   length=lambda p: CountMinSketch._shape(p["epsilon"], p["delta"])[0]),
            length=lambda p: CountMinSketch._shape(p["epsilon"], p["delta"])[1],
        ), entry_bytes=8),
    )

    def __init__(self, epsilon: float = 0.01, delta: float = 0.01, seed: int = 0):
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not 0.0 < delta < 1.0:
            raise ParameterError(f"delta must be in (0, 1), got {delta!r}")
        self.epsilon = epsilon
        self.delta = delta
        self.width, self.depth = self._shape(epsilon, delta)
        self.seed = check_seed(
            seed,
            (SEED_LIMIT - self.depth) // 1_000_003 + 1,
            "seed (row r hashes with seed * 1,000,003 + r)",
        )
        super().__init__()
        self._rows = [[0.0] * self.width for __ in range(self.depth)]

    @staticmethod
    def _shape(epsilon: float, delta: float) -> tuple[int, int]:
        """Counter grid ``(width, depth)`` the error parameters imply."""
        return (
            max(1, math.ceil(math.e / epsilon)),
            max(1, math.ceil(math.log(1.0 / delta))),
        )

    @property
    def total_weight(self) -> float:
        """Total weight of all updates (the ``W`` of the error bound)."""
        return self._total

    def _columns(self, item: Hashable) -> list[int]:
        return [
            int(hash_to_unit(item, seed=self.seed * 1_000_003 + row) * self.width)
            for row in range(self.depth)
        ]

    def update(self, item: Hashable, weight: float = 1.0) -> None:
        """Add ``weight`` to ``item``'s frequency."""
        if weight < 0 or math.isnan(weight):
            raise ParameterError(f"weight must be >= 0, got {weight!r}")
        if weight == 0.0:
            return
        for row, column in enumerate(self._columns(item)):
            self._rows[row][column] += weight
        self._total += weight

    def update_many(self, first, second=None) -> None:
        """Batch ingest: same semantics as the per-item loop, with the
        attribute lookups and row iteration hoisted out of the hot path."""
        if second is not None and len(first) != len(second):
            raise ParameterError(
                f"column lengths differ: {len(first)} != {len(second)}"
            )
        rows = self._rows
        depth = self.depth
        width = self.width
        seed_base = self.seed * 1_000_003
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
                for row in range(depth):
                    column = int(
                        hash_to_unit(item, seed=seed_base + row) * width
                    )
                    rows[row][column] += weight
                total += weight
        finally:
            # Keep the running total consistent even when a bad weight
            # aborts the batch mid-stream, exactly like the update() loop.
            self._total = total

    def estimate(self, item: Hashable) -> float:
        """Point estimate: ``true <= estimate <= true + eps*W`` w.h.p."""
        return min(
            self._rows[row][column]
            for row, column in enumerate(self._columns(item))
        )

    def merge(self, other: "CountMinSketch", factor: float = 1.0) -> None:
        """Cell-wise addition; exact union semantics."""
        self._check_merge(other, "width", "depth", "seed")
        for mine, theirs in zip(self._rows, other._rows):
            for column in range(self.width):
                mine[column] += theirs[column] * factor
        self._total += other._total * factor

    def query(self, item: Hashable | None = None) -> float:
        """Primary answer (StreamSummary protocol): the point estimate of
        ``item``, or the total weight when no item is given."""
        if item is None:
            return self._total
        return self.estimate(item)

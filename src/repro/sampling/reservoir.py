"""Classic (unweighted) reservoir sampling — Vitter, TOMS 1985.

The undecayed sampling baseline of Figure 3: :class:`ReservoirSampler`
keeps a size-``k`` uniform sample *without* replacement (Algorithm R).
The textbook single-draw sampler (retain item ``i`` with probability
``1/i``) is the ``g = 1`` case of
:class:`~repro.sampling.with_replacement.DecayedSamplerWithReplacement`.
"""

from __future__ import annotations

import random
from typing import Generic, TypeVar

from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.keyed_random import KeyedRandom
from repro.core.protocol import GENERATOR, RAW, Field, ListOf, StreamSummary
from repro.core.registry import register_summary

__all__ = ["ReservoirSampler"]

T = TypeVar("T")


@register_summary(
    "reservoir",
    kind="sampler",
    input_kind="item",
    factory=lambda: ReservoirSampler(k=16, rng=random.Random(7)),
    mergeable=False,
    exact_merge=False,
)
class ReservoirSampler(StreamSummary, Generic[T]):
    """Uniform sample of ``k`` items without replacement (Algorithm R).

    Parameters
    ----------
    k:
        Reservoir capacity.
    rng:
        Source of randomness; pass a seeded :class:`random.Random` for
        reproducible samples.
    """

    # The items may not outnumber ``k``: a slot past it is never replaced
    # and never leaves.  Each holds one slot.
    _FIELDS = (
        Field("k", init=True),
        Field("seen", initial=0),
        Field("reservoir", ListOf(RAW, most="k"), initial=list, entry_bytes=8),
        Field("rng", GENERATOR, attr="_rng", init=True),
    )

    def __init__(self, k: int, rng: random.Random | None = None):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k!r}")
        super().__init__()
        self.k = k
        self._rng = KeyedRandom.from_rng(rng)

    @property
    def items_seen(self) -> int:
        """Number of stream items offered to the sampler."""
        return self._seen

    def update(self, item: T) -> None:
        """Offer one stream item to the reservoir."""
        self._seen += 1
        if len(self._reservoir) < self.k:
            self._reservoir.append(item)
            return
        # One float draw, not randrange: the keyed generator counts
        # words in Python, and a slot off by 2**-53 is no bias here.
        slot = int(self._rng.random() * self._seen)
        if slot < self.k:
            self._reservoir[slot] = item

    def sample(self) -> list[T]:
        """The current sample (a copy; at most ``k`` items)."""
        if not self._reservoir:
            raise EmptySummaryError("reservoir has seen no items")
        return list(self._reservoir)

    def __len__(self) -> int:
        """Current number of sampled items."""
        return len(self._reservoir)

    def query(self) -> list[T]:
        """Primary answer (StreamSummary protocol): the current sample."""
        return self.sample()

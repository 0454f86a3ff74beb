"""Aggarwal's biased reservoir sampling (VLDB 2006) — the Fig. 3 baseline.

The prior state of the art for sampling under (backward) *exponential*
decay, which the paper's Corollary 1 strictly improves on.  Aggarwal's
memory-less scheme: with a reservoir of capacity ``k`` holding ``m`` items,
each arrival is always inserted; with probability ``m / k`` it overwrites a
uniformly random occupied slot, otherwise it occupies a new slot.  In
steady state this realizes inclusion probabilities proportional to
``exp(-(n - i) / k)`` — backward exponential decay at rate
``lambda = 1 / k``.

Limitations faithfully reproduced (they are the point of the comparison):

* the decay rate is tied to the reservoir size (``lambda = 1/k``);
* the analysis assumes **sequential integer timestamps** (arrival indices);
  arbitrary or out-of-order timestamps are not supported — the paper notes
  the prior solution is "partial ... for the case when the time stamps are
  sequential integers", whereas forward decay handles arbitrary arrival
  times at the same cost.
"""

from __future__ import annotations

import random
from typing import TypeVar

from repro.core.errors import EmptySummaryError
from repro.core.registry import register_summary
from repro.sampling.reservoir import ReservoirSampler

__all__ = ["AggarwalBiasedReservoir"]

T = TypeVar("T")


@register_summary(
    "aggarwal_reservoir",
    kind="sampler",
    input_kind="item",
    factory=lambda: AggarwalBiasedReservoir(k=16, rng=random.Random(7)),
    mergeable=False,
    exact_merge=False,
)
class AggarwalBiasedReservoir(ReservoirSampler[T]):
    """Biased reservoir realizing backward-exponential inclusion bias.

    A reservoir of ``k`` slots, its state that of
    :class:`~repro.sampling.reservoir.ReservoirSampler`; only the
    replacement rule differs.  The number of items offered is the
    sequential 'timestamp'.

    Parameters
    ----------
    k:
        Reservoir capacity; the realized decay rate is ``lambda = 1 / k``.
    rng:
        Source of randomness (seed it for reproducibility).
    """

    @property
    def decay_rate(self) -> float:
        """The backward-exponential rate this reservoir realizes."""
        return 1.0 / self.k

    def update(self, item: T) -> None:
        """Offer the next stream item (arrival order *is* its timestamp)."""
        self._seen += 1
        # One draw decides both: u * k < fill happens with probability
        # fill / k, and given that, int(u * k) is uniform on the slots.
        fill = len(self._reservoir)
        slot = int(self._rng.random() * self.k) if fill else fill
        if slot < fill:
            self._reservoir[slot] = item
        else:
            self._reservoir.append(item)

    def sample(self) -> list[T]:
        """The current biased sample (a copy; at most ``k`` items)."""
        if not self._reservoir:
            raise EmptySummaryError("biased reservoir has seen no items")
        return list(self._reservoir)

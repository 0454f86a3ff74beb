"""Classic (unweighted) reservoir sampling — Vitter, TOMS 1985.

The undecayed sampling baseline of Figure 3.  Two flavours:

* :class:`ReservoirSampler` — a size-``k`` uniform sample *without*
  replacement (Algorithm R), with optional geometric skipping in the style
  of Vitter's Algorithm X for streams far longer than the reservoir.
* :class:`SingleItemWithReplacementSampler` — the textbook single-sample
  procedure (retain item ``i`` with probability ``1/i``), generalized to
  weights by :mod:`repro.sampling.with_replacement`.
"""

from __future__ import annotations

import random
from typing import Generic, Iterable, TypeVar

from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.keyed_random import KeyedRandom
from repro.core.protocol import (
    StreamSummary,
    dump_rng_state,
    load_rng_state,
    tag_key,
    untag_key,
)
from repro.core.registry import register_summary

__all__ = ["ReservoirSampler", "SingleItemWithReplacementSampler"]

T = TypeVar("T")


def restored_reservoir(k: int, tags: list) -> list:
    """The items of a serialized reservoir, refused if they outnumber
    ``k`` (a slot past it is never replaced and never leaves)."""
    if len(tags) > k:
        raise ParameterError(f"{len(tags)} items in a reservoir of k = {k!r}")
    return [untag_key(tag) for tag in tags]


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
    use_skipping:
        When True, once the reservoir is full the sampler draws how many
        subsequent items to *skip* before the next replacement instead of
        flipping a coin per item — O(k log(n/k)) total work instead of
        O(n).  Statistically identical to plain Algorithm R.
    """

    def __init__(
        self,
        k: int,
        rng: random.Random | None = None,
        use_skipping: bool = False,
    ):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k!r}")
        self.k = k
        self._rng = KeyedRandom.from_rng(rng)
        self._use_skipping = use_skipping
        self._reservoir: list[T] = []
        self._seen = 0
        self._skip = 0  # items still to skip before the next candidate

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
        if self._use_skipping:
            if self._skip > 0:
                self._skip -= 1
                return
            self._reservoir[int(self._rng.random() * self.k)] = item
            self._draw_skip()
        else:
            # One float draw, not randrange: the keyed generator counts
            # words in Python, and a slot off by 2**-53 is no bias here.
            slot = int(self._rng.random() * self._seen)
            if slot < self.k:
                self._reservoir[slot] = item

    def _draw_skip(self) -> None:
        """Draw the gap until the next accepted item.

        Successive acceptance probabilities are ``k/(n+1), k/(n+2), ...``;
        inverting the CDF of the gap via the continuous approximation
        ``n * (u**(-1/k) - 1)`` (Vitter's Algorithm X idea) gives a skip
        with the right distribution to within O(1/n).
        """
        u = self._rng.random()
        self._skip = int(self._seen * (u ** (-1.0 / self.k) - 1.0))

    def extend(self, items: Iterable[T]) -> None:
        """Offer every item of an iterable."""
        for item in items:
            self.update(item)

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

    def state_size_bytes(self) -> int:
        """Approximate footprint: one slot per reservoir entry."""
        return len(self._reservoir) * 8

    # -- serde (StreamSummary protocol) ---------------------------------------

    def _state_payload(self) -> dict:
        return {
            "k": self.k,
            "use_skipping": self._use_skipping,
            "seen": self._seen,
            "skip": self._skip,
            "reservoir": [tag_key(item) for item in self._reservoir],
            "rng": dump_rng_state(self._rng),
        }

    @classmethod
    def _from_payload(cls, payload: dict) -> "ReservoirSampler":
        sampler = cls(
            payload["k"], rng=load_rng_state(payload["rng"]),
            use_skipping=payload["use_skipping"],
        )
        sampler._seen = payload["seen"]
        sampler._skip = payload["skip"]
        sampler._reservoir = restored_reservoir(sampler.k, payload["reservoir"])
        return sampler


@register_summary(
    "single_with_replacement",
    kind="sampler",
    input_kind="item",
    factory=lambda: SingleItemWithReplacementSampler(rng=random.Random(7)),
    mergeable=False,
    exact_merge=False,
)
class SingleItemWithReplacementSampler(StreamSummary, Generic[T]):
    """One uniform draw from the stream: retain item ``i`` w.p. ``1/i``.

    Run ``s`` instances in parallel for a with-replacement sample of size
    ``s`` — the structure the paper's Theorem 5 generalizes to forward
    decay.
    """

    def __init__(self, rng: random.Random | None = None):
        self._rng = KeyedRandom.from_rng(rng)
        self._current: T | None = None
        self._seen = 0

    @property
    def items_seen(self) -> int:
        """Number of stream items offered."""
        return self._seen

    def update(self, item: T) -> None:
        """Offer one stream item."""
        self._seen += 1
        if self._rng.random() < 1.0 / self._seen:
            self._current = item

    def sample(self) -> T:
        """The currently retained item."""
        if self._seen == 0:
            raise EmptySummaryError("sampler has seen no items")
        return self._current  # type: ignore[return-value]

    def query(self) -> T:
        """Primary answer (StreamSummary protocol): the retained item."""
        return self.sample()

    # -- serde (StreamSummary protocol) ---------------------------------------

    def _state_payload(self) -> dict:
        return {
            "seen": self._seen,
            "current": tag_key(self._current),
            "rng": dump_rng_state(self._rng),
        }

    @classmethod
    def _from_payload(cls, payload: dict) -> "SingleItemWithReplacementSampler":
        sampler = cls(rng=load_rng_state(payload["rng"]))
        sampler._seen = payload["seen"]
        sampler._current = untag_key(payload["current"])
        return sampler

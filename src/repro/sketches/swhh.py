"""Sliding-window / backward-decayed heavy hitters — the Figs. 4-5 baseline.

The paper benchmarks forward-decayed heavy hitters against "a method for
answering sliding window heavy hitter queries [12]" whose results for
multiple windows combine into an arbitrary (backward or forward) decayed
heavy-hitter answer.  Reference [12] (Cormode, Korn, Tirthapura, PODS 2008)
maintains frequent-item summaries over a *dyadic hierarchy of time
intervals*: any window decomposes into O(log) nodes, each carrying its own
summary; finer time precision (smaller epsilon) means finer panes and more
levels.

This module reproduces that structure and its measured cost profile:

* **per-update cost**: every arrival updates the summary of one node per
  level — ``O(log(window/pane))`` SpaceSaving operations against forward
  decay's single one.  With ``pane = epsilon * window`` (the precision the
  structure needs to answer decayed queries within epsilon), the level
  count — and hence CPU — grows as epsilon shrinks, which is Figure 4(a);
* **space**: each node's summary has capacity ``ceil(1/epsilon)``, but at
  realistic group cardinalities the per-node distinct counts sit *below*
  capacity, so the structure effectively stores every distinct item in
  every pane regardless of epsilon — the paper's "not much pruning power
  over the number of tuples presented", i.e. the flat, large space line of
  Figure 4(c)/(d).

Queries:

* :meth:`window_counts` — item counts over a trailing window from the
  O(log) dyadic nodes tiling it;
* :class:`BackwardDecayedHHCombiner` — arbitrary backward decay ``f``
  evaluated as a staircase over the finest-level panes (the multiple
  scaled-sliding-window combination the paper describes).
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.functions import FFunction
from repro.core.protocol import ITEMS, MAX_TIME, RAW, Field, ListOf, Nested
from repro.core.protocol import StreamSummary, Table
from repro.core.registry import register_summary
from repro.sketches.spacesaving import UnarySpaceSaving

__all__ = ["SlidingWindowHeavyHitters", "BackwardDecayedHHCombiner"]


@register_summary(
    "sliding_window_heavy_hitters",
    kind="sketch",
    input_kind="item_time",
    factory=lambda: SlidingWindowHeavyHitters(window=100.0, epsilon=0.05),
    mergeable=False,
    exact_merge=False,
    ordered=True,
)
class SlidingWindowHeavyHitters(StreamSummary):
    """Dyadic-interval heavy-hitter structure for sliding windows.

    Parameters
    ----------
    window:
        Maximum window length answerable, in time units.
    pane:
        Width of the finest time pane.  ``None`` (the default) derives it
        from the accuracy target as ``epsilon * window``, the precision the
        decayed combination needs.
    epsilon:
        Accuracy parameter: sizes each node's summary at
        ``ceil(1/epsilon)`` counters and (by default) the pane width.
    """

    _FIELDS = (
        Field("window", init=True),
        Field("pane", init=True),
        Field("epsilon", init=True),
        ITEMS,
        MAX_TIME,
        # Sized as the node summaries' sum: (levels) x (distinct items per
        # pane period) at workload scales, flat in ``epsilon`` (Fig. 4(c)/(d)).
        Field("nodes", ListOf(Table(RAW, Nested(UnarySpaceSaving), sort=True))),
    )

    def __init__(
        self,
        window: float,
        pane: float | None = None,
        epsilon: float = 0.01,
    ):
        if not window > 0:
            raise ParameterError(f"window must be > 0, got {window!r}")
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if pane is None:
            pane = epsilon * window
        if not 0 < pane <= window:
            raise ParameterError(
                f"need 0 < pane <= window, got pane={pane!r}, window={window!r}"
            )
        super().__init__()
        self.window = window
        self.pane = pane
        self.epsilon = epsilon
        self.levels = max(1, math.ceil(math.log2(window / pane)) + 1)
        self._capacity = max(1, math.ceil(1.0 / epsilon))
        # _nodes[level][node_index] -> per-node summary
        self._nodes: list[dict[int, UnarySpaceSaving]] = [
            {} for __ in range(self.levels)
        ]

    @property
    def items_processed(self) -> int:
        """Number of updates folded in."""
        return self._items

    @property
    def last_time(self) -> float:
        """Largest arrival timestamp observed (``-inf`` when empty)."""
        return self._max_time

    def _pane_index(self, timestamp: float) -> int:
        return math.floor(timestamp / self.pane)

    def update(self, item: Hashable, timestamp: float) -> None:
        """Record an occurrence; updates one node summary per dyadic level."""
        pane_index = self._pane_index(timestamp)
        for level, level_nodes in enumerate(self._nodes):
            node_index = pane_index >> level
            summary = level_nodes.get(node_index)
            if summary is None:
                summary = UnarySpaceSaving(self._capacity)
                level_nodes[node_index] = summary
            summary.update(item)
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp
        # Periodic expiry keeps the structure bounded to ~2x the window.
        if self._items % 4096 == 0:
            self.expire(timestamp)

    def expire(self, now: float) -> None:
        """Drop nodes entirely older than the maximum window."""
        horizon_pane = self._pane_index(now - self.window) - 1
        for level, level_nodes in enumerate(self._nodes):
            horizon_node = horizon_pane >> level
            stale = [idx for idx in level_nodes if idx < horizon_node]
            for idx in stale:
                del level_nodes[idx]

    # -- window queries ---------------------------------------------------------

    def window_counts(self, window: float, now: float) -> dict[Hashable, float]:
        """Item counts over ``(now - window, now]`` via dyadic tiling.

        Greedily covers the pane range with the largest dyadic nodes that
        fit, merging O(log) node summaries' counters.
        """
        if window <= 0 or window > self.window:
            raise ParameterError(
                f"window must be in (0, {self.window}], got {window!r}"
            )
        start = self._pane_index(now - window) + 1
        end = self._pane_index(now)
        totals: dict[Hashable, float] = {}
        current = start
        while current <= end:
            level = 0
            # Largest dyadic block aligned at `current` fitting in range.
            while (
                level + 1 < self.levels
                and current % (1 << (level + 1)) == 0
                and current + (1 << (level + 1)) - 1 <= end
            ):
                level += 1
            summary = self._nodes[level].get(current >> level)
            if summary is not None:
                for counter in summary.counters():
                    totals[counter.item] = totals.get(counter.item, 0.0) + counter.count
            current += 1 << level
        return totals

    def heavy_hitters(
        self, phi: float, window: float, now: float
    ) -> list[tuple[Hashable, float]]:
        """``phi``-heavy hitters over the trailing ``window`` at ``now``."""
        if not 0.0 < phi <= 1.0:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        totals = self.window_counts(window, now)
        if not totals:
            raise EmptySummaryError("no items in the queried window")
        grand = sum(totals.values())
        threshold = phi * grand
        ranked = [(item, c) for item, c in totals.items() if c >= threshold]
        ranked.sort(key=lambda pair: -pair[1])
        return ranked

    def pane_counts(self) -> list[tuple[float, dict[Hashable, float]]]:
        """``(pane_end_time, counts)`` for live finest-level panes, oldest first."""
        finest = self._nodes[0]
        return [
            (
                (index + 1) * self.pane,
                {c.item: c.count for c in summary.counters()},
            )
            for index, summary in sorted(finest.items())
        ]

    def query(
        self,
        phi: float = 0.05,
        window: float | None = None,
        now: float | None = None,
    ) -> list[tuple[Hashable, float]]:
        """Primary answer (StreamSummary protocol): windowed heavy hitters."""
        return self.heavy_hitters(
            phi,
            self.window if window is None else window,
            self._max_time if now is None else now,
        )


class BackwardDecayedHHCombiner:
    """Arbitrary backward-decayed heavy hitters from the dyadic structure.

    Implements the combination the paper describes: "the results of
    multiple sliding window queries can be combined to form the answer to
    an arbitrary (forward or backward) decayed heavy hitter query."  The
    decayed count of each item is the staircase
    ``sum_panes count_pane(item) * f(now - pane_end) / f(0)`` over the
    finest-level panes.
    """

    def __init__(self, structure: SlidingWindowHeavyHitters):
        self._structure = structure

    @property
    def structure(self) -> SlidingWindowHeavyHitters:
        """The underlying dyadic-interval structure."""
        return self._structure

    def decayed_counts(self, f: FFunction, now: float) -> dict[Hashable, float]:
        """``f``-decayed count per item at time ``now``."""
        f0 = f(0.0)
        totals: dict[Hashable, float] = {}
        for pane_end, counts in self._structure.pane_counts():
            age = now - pane_end
            if age < 0:
                age = 0.0
            weight = f(age) / f0
            if weight == 0.0:
                continue
            for item, count in counts.items():
                totals[item] = totals.get(item, 0.0) + count * weight
        return totals

    def heavy_hitters(
        self, phi: float, f: FFunction, now: float
    ) -> list[tuple[Hashable, float]]:
        """``phi``-heavy hitters under backward decay ``f`` at ``now``."""
        if not 0.0 < phi <= 1.0:
            raise ParameterError(f"phi must be in (0, 1], got {phi!r}")
        totals = self.decayed_counts(f, now)
        if not totals:
            raise EmptySummaryError("no decayed mass at the query time")
        grand = sum(totals.values())
        threshold = phi * grand
        ranked = [(item, c) for item, c in totals.items() if c >= threshold]
        ranked.sort(key=lambda pair: -pair[1])
        return ranked

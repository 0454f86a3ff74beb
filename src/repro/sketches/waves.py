"""Deterministic Waves: windowed counting (Gibbons & Tirthapura, SPAA 2002).

An alternative to Exponential Histograms for sliding-window counts with
O(1) *worst-case* update time (EH is O(1) only amortized).  The EH vs
Waves ablation (EXPERIMENTS.md) used it to show that the choice of
backward-decay substrate does not change Figure 2's conclusion: any
windowed structure is far more expensive than forward decay's single
counter.

Structure: the wave keeps ``levels`` lists; level ``j`` records the
positions (arrival indices) and timestamps of every ``2**j``-th arrival,
retaining the most recent ``ceil(1/epsilon) + 1`` entries per level.  A
window query finds the finest level whose retained entries still span the
window start, takes the oldest in-window entry, and returns the number of
arrivals since it (relative error at most ``epsilon`` because level ``j``
entries are at most ``2**j <= epsilon * answer`` apart).
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.errors import ParameterError
from repro.core.protocol import StreamSummary, decode_number, encode_number
from repro.core.registry import register_summary

__all__ = ["DeterministicWave"]


@register_summary(
    "deterministic_wave",
    kind="sketch",
    input_kind="time",
    factory=lambda: DeterministicWave(epsilon=0.05, window=100.0),
    mergeable=False,
    exact_merge=False,
    ordered=True,
)
class DeterministicWave(StreamSummary):
    """Sliding-window count with worst-case O(1) updates.

    Parameters
    ----------
    epsilon:
        Relative error bound of window-count queries.
    window:
        Window length in time units.
    max_levels:
        Number of dyadic levels maintained; caps the countable window
        population at ``2 ** max_levels``.
    """

    def __init__(self, epsilon: float, window: float, max_levels: int = 40):
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        if not window > 0:
            raise ParameterError(f"window must be > 0, got {window!r}")
        if max_levels < 1:
            raise ParameterError(f"max_levels must be >= 1, got {max_levels!r}")
        self.epsilon = epsilon
        self.window = window
        self.max_levels = max_levels
        self._per_level = math.ceil(1.0 / epsilon) + 1
        # Level j holds (position, timestamp) of arrivals whose index is a
        # multiple of 2**j, newest at the right.
        self._levels: list[deque[tuple[int, float]]] = [
            deque(maxlen=self._per_level) for __ in range(max_levels)
        ]
        self._count = 0
        self._last_time = -math.inf

    @property
    def arrivals(self) -> int:
        """Total number of arrivals ever recorded."""
        return self._count

    def update(self, timestamp: float) -> None:
        """Record one arrival at ``timestamp`` (non-decreasing order)."""
        if timestamp < self._last_time:
            raise ParameterError(
                f"DeterministicWave requires in-order arrivals "
                f"({timestamp} < {self._last_time})"
            )
        self._last_time = timestamp
        position = self._count
        self._count += 1
        entry = (position, timestamp)
        # position is a multiple of 2**j for j = 0..trailing_zeros(position);
        # position 0 belongs to every level.
        if position == 0:
            for level in self._levels:
                level.append(entry)
            return
        level_index = 0
        p = position
        while True:
            self._levels[level_index].append(entry)
            if p & 1:
                break
            p >>= 1
            level_index += 1
            if level_index >= self.max_levels:
                break

    def count(self, now: float) -> float:
        """Estimated number of arrivals in ``(now - window, now]``.

        Scans from the finest level upward for one whose oldest retained
        entry predates the window start; the first in-window entry at that
        level anchors the estimate.
        """
        horizon = now - self.window
        if self._count == 0:
            return 0.0
        for level in self._levels:
            if not level:
                continue
            oldest_position, oldest_time = level[0]
            if oldest_time <= horizon or oldest_position == 0:
                # This level spans the window start; find the first
                # in-window entry.
                for position, timestamp in level:
                    if timestamp > horizon:
                        return float(self._count - position)
                return 0.0
        # Even the coarsest level starts inside the window: everything
        # retained is in-window, count from the coarsest anchor.
        coarsest = self._levels[-1]
        if coarsest:
            return float(self._count - coarsest[0][0])
        return float(self._count)

    def query(self, now: float | None = None) -> float:
        """Primary answer (StreamSummary protocol): the window count."""
        return self.count(self._last_time if now is None else now)

    def state_size_bytes(self) -> int:
        """Approximate footprint: (position, timestamp) per retained entry."""
        return sum(len(level) for level in self._levels) * 16

    # -- serde (StreamSummary protocol) ---------------------------------------

    def _state_payload(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "window": self.window,
            "max_levels": self.max_levels,
            "count": self._count,
            "last_time": encode_number(self._last_time),
            "levels": [
                [[position, timestamp] for position, timestamp in level]
                for level in self._levels
            ],
        }

    @classmethod
    def _from_payload(cls, payload: dict) -> "DeterministicWave":
        # max_levels sizes the level table: believe it only as far as the
        # payload carries levels, or a flipped bit allocates for minutes.
        if payload["max_levels"] != len(payload["levels"]):
            raise ParameterError(
                f"max_levels is {payload['max_levels']!r} but the payload "
                f"carries {len(payload['levels'])} levels"
            )
        wave = cls(payload["epsilon"], payload["window"], payload["max_levels"])
        wave._count = payload["count"]
        wave._last_time = decode_number(payload["last_time"])
        for level, entries in zip(wave._levels, payload["levels"]):
            level.extend((position, timestamp) for position, timestamp in entries)
        return wave

"""Dominance-norm estimation for decayed count-distinct (Section IV-D).

Definition 9 of the paper defines the decayed distinct count as

    D = sum_v max_{v_i = v} g(t_i - L) / g(t - L)

whose numerator is the *dominance norm* ``sum_v max_i w_i`` of the stream
of (item, static-weight) pairs.  The paper points to Pavan-Tirthapura-style
range-efficient distinct counting; we implement the equivalent level-set
construction, which reduces the dominance norm to distinct counting:

    sum_v max w_v  =  integral_0^inf |{v : max w_v > theta}| d(theta)

Discretizing ``theta`` on a geometric grid ``theta_k = (1 + eps)^k`` and
estimating each level's distinct count ``D_{>=k} = |{v : max w_v >=
theta_k}|`` with a union of KMV sketches gives a ``(1 +- O(eps))``
multiplicative estimate using ``O((1/eps) * log(w_max/w_min))`` sketches of
``O(1/eps^2)`` values each — the paper's ``~O(1/eps^2)`` regime.

Crucially for exponential decay, the estimator works entirely in
**log-weight space**: an update supplies ``log w_i = log g(t_i - L)``
(which for ``g = exp(alpha n)`` is just ``alpha * (t_i - L)``, computable
without overflow), and queries supply ``log g(t - L)`` so every term is
exponentiated only after the normalizer is subtracted.  No Section VI-A
renormalization is ever needed here.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import ITEMS, RAW, Field, Nested, StreamSummary, Table
from repro.core.registry import register_summary
from repro.sketches.kmv import KMVSketch, check_seed

__all__ = ["DominanceNormEstimator"]


@register_summary(
    "dominance_norm",
    kind="sketch",
    input_kind="item_logweight",
    factory=lambda: DominanceNormEstimator(epsilon=0.2, seed=7),
)
class DominanceNormEstimator(StreamSummary):
    """Streaming ``(1 +- eps)`` estimator of ``sum_v max_i w_i``.

    Parameters
    ----------
    epsilon:
        Target relative error.  Controls both the geometric grid spacing
        (``1 + epsilon``) and the per-level KMV size (``~4 / epsilon**2``,
        capped for practicality).
    seed:
        Hash seed shared by all level sketches (must match to merge).

    Updates take ``(item, log_weight)``; an item occurring multiple times
    contributes only through its maximum weight, which the level-set
    construction provides for free (all its occurrences land in levels at
    or below its maximum, and the cumulative union from the top counts it
    exactly once per level it reaches).
    """

    _FIELDS = (
        Field("epsilon", init=True),
        Field("seed", init=True),
        Field("kmv_size", attr="_kmv_size", init=True),
        ITEMS,
        Field("levels", Table(RAW, Nested(KMVSketch), sort=True), initial=dict),
    )

    def __init__(self, epsilon: float = 0.1, seed: int = 0, kmv_size: int | None = None):
        if not 0.0 < epsilon < 1.0:
            raise ParameterError(f"epsilon must be in (0, 1), got {epsilon!r}")
        self.epsilon = epsilon
        self.seed = check_seed(seed)
        self._log_base = math.log1p(epsilon)
        if kmv_size is None:
            # Per-level precision can sit below the overall target: level
            # errors are independent and average out in the telescoped sum.
            kmv_size = min(1024, max(16, math.ceil(0.5 / (epsilon * epsilon))))
        self._kmv_size = kmv_size
        super().__init__()

    @property
    def items_processed(self) -> int:
        """Number of updates folded in (including via merges)."""
        return self._items

    @property
    def num_levels(self) -> int:
        """Number of live weight levels (space ~ levels * kmv_size)."""
        return len(self._levels)

    def _level_of(self, log_weight: float) -> int:
        return math.floor(log_weight / self._log_base)

    def update(self, item: Hashable, log_weight: float) -> None:
        """Record ``item`` with static weight ``exp(log_weight)``."""
        if math.isnan(log_weight) or math.isinf(log_weight):
            raise ParameterError(f"log_weight must be finite, got {log_weight!r}")
        level = self._level_of(log_weight)
        sketch = self._levels.get(level)
        if sketch is None:
            sketch = KMVSketch(self._kmv_size, self.seed)
            self._levels[level] = sketch
        sketch.update(item)
        self._items += 1

    def estimate(self, log_normalizer: float = 0.0) -> float:
        """Estimate ``sum_v max_i w_i / exp(log_normalizer)``.

        Walks the geometric levels top-down, maintaining the running KMV
        union so level ``k`` yields ``D_{>=k}``, the number of distinct
        items whose maximum weight reaches ``theta_k``; the dominance norm
        is the telescoped sum ``sum_k (theta_{k+1} - theta_k) * D_{>=k+? }``
        — implemented as ``sum_k width_k * D_{>= k}`` with
        ``width_k = theta_{k+1} - theta_k`` so each item with maximum level
        ``l`` is credited ``theta_{l+1} - theta_min ~ (1 +- eps) * w``.

        Every term is computed as ``exp(log theta - log_normalizer)``; with
        a normalizer at or above the maximum weight no exponentiation can
        overflow.
        """
        if not self._levels:
            raise EmptySummaryError("dominance-norm estimator has seen no items")
        levels = sorted(self._levels, reverse=True)
        running: KMVSketch | None = None
        total = 0.0
        previous_distinct = 0.0
        for level in levels:
            if running is None:
                running = self._levels[level].copy()
            else:
                running.merge(self._levels[level])
            distinct_at_or_above = running.estimate()
            # Abel summation: the distinct mass first appearing at this
            # level has its maximum weight in [theta_level, theta_{level+1})
            # and is credited theta_{level+1} ~ (1 +- eps) * w.  Unions only
            # grow, so the delta is non-negative up to KMV noise (clamped).
            newly_seen = distinct_at_or_above - previous_distinct
            if newly_seen > 0.0:
                log_theta_next = (level + 1) * self._log_base
                total += newly_seen * math.exp(log_theta_next - log_normalizer)
            previous_distinct = max(previous_distinct, distinct_at_or_above)
        return total

    def merge(self, other: "DominanceNormEstimator") -> None:
        """Fold in an estimator built over a disjoint substream."""
        self._check_merge(other, "epsilon", "seed", "_kmv_size")
        for level, sketch in other._levels.items():
            mine = self._levels.get(level)
            if mine is None:
                self._levels[level] = sketch.copy()
            else:
                mine.merge(sketch)
        self._items += other._items

    def query(self, log_normalizer: float = 0.0) -> float:
        """Primary answer (StreamSummary protocol): the dominance norm."""
        return self.estimate(log_normalizer)

"""Forward-decayed streaming clustering (the Section IV-C pattern).

The paper notes that its reduction — factor out ``g(t - L)`` and track the
input under the static weights ``g(t_i - L)`` — "applies to other holistic
aggregate computations over data streams (e.g. clustering and other
geometric properties)".  This module realizes that remark: a weighted
streaming k-means whose point weights are the forward-decay arrival
weights, so cluster centroids and masses reflect recent data more strongly
under any forward decay function.

Algorithm: sequential (MacQueen-style) weighted k-means.  Each cluster
keeps its weighted centroid and total weight; an arriving point of weight
``w`` joins its nearest centroid, which moves by the weight fraction
``w / (W + w)``.  All state is linear in the weights, so the Section VI-A
exponential renormalization and Section VI-B merging both apply: merging
unions the centroid sets and greedily pairs the closest centroids
(weighted means) until ``k`` remain.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from repro.core.decay import ForwardDecay
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import DECAY, ITEMS, LANDMARK, MAX_TIME, WEIGHT, DeclaredState
from repro.core.protocol import Field, ListOf, Value
from repro.core.weights import ForwardWeighted, ForwardWeightEngine

__all__ = ["DecayedKMeans", "Cluster"]

Point = tuple[float, ...]


class Cluster(NamedTuple):
    """One reported cluster at query time."""

    centroid: Point
    decayed_weight: float
    """Total decayed weight of the points absorbed by this cluster."""


def _squared_distance(a: Sequence[float], b: Sequence[float]) -> float:
    total = 0.0
    for xa, xb in zip(a, b):
        diff = xa - xb
        total += diff * diff
    return total


class DecayedKMeans(ForwardWeighted, DeclaredState):
    """Streaming k-means under any forward decay function.

    Parameters
    ----------
    decay:
        Forward-decay model supplying ``g`` and the landmark.
    k:
        Number of clusters maintained.
    dimensions:
        Dimensionality of the points; every update must match.

    The summary holds exactly ``k`` centroids (O(k·d) state).  Recent
    points carry exponentially/polynomially larger weights, so centroids
    drift toward current data at the rate the decay function dictates —
    the streaming analogue of decayed averages, per cluster.
    """

    # Parallel lists: weighted centroid sums and total weights.  The
    # centroid itself is sums[i] / weights[i]; keeping sums (linear in
    # the arrival weights) makes renormalization a plain rescale.
    _FIELDS = (
        DECAY,
        LANDMARK,
        Field("k", init=True),
        Field("dimensions", init=True),
        Field("sums", ListOf(ListOf(Value(WEIGHT))), initial=list, entry_bytes=8),
        Field("weights", ListOf(Value(WEIGHT, nonneg=True)), initial=list,
              entry_bytes=8),
        ITEMS,
        MAX_TIME,
    )

    def __init__(self, decay: ForwardDecay, k: int, dimensions: int):
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k!r}")
        if dimensions < 1:
            raise ParameterError(f"dimensions must be >= 1, got {dimensions!r}")
        self.k = k
        self.dimensions = dimensions
        super().__init__()
        self._engine = ForwardWeightEngine(decay, self.scale)

    def _centroid(self, index: int) -> Point:
        weight = self._weights[index]
        return tuple(value / weight for value in self._sums[index])

    def _nearest(self, point: Sequence[float]) -> int:
        best_index = 0
        best_distance = math.inf
        for index in range(len(self._sums)):
            distance = _squared_distance(point, self._centroid(index))
            if distance < best_distance:
                best_distance = distance
                best_index = index
        return best_index

    def update(self, point: Sequence[float], timestamp: float) -> None:
        """Absorb one point observed at ``timestamp``."""
        if len(point) != self.dimensions:
            raise ParameterError(
                f"expected {self.dimensions}-dimensional point, got {len(point)}"
            )
        weight = self._engine.arrival_weight(timestamp)
        if len(self._sums) < self.k:
            self._sums.append([weight * x for x in point])
            self._weights.append(weight)
        else:
            index = self._nearest(point)
            sums = self._sums[index]
            for axis, value in enumerate(point):
                sums[axis] += weight * value
            self._weights[index] += weight
        self._items += 1
        if timestamp > self._max_time:
            self._max_time = timestamp

    def assign(self, point: Sequence[float]) -> int:
        """Index of the cluster nearest to ``point`` (no state change)."""
        if not self._sums:
            raise EmptySummaryError("clustering has seen no points")
        return self._nearest(point)

    def clusters(self, query_time: float | None = None) -> list[Cluster]:
        """Current centroids with their decayed weights, heaviest first."""
        if not self._sums:
            raise EmptySummaryError("clustering has seen no points")
        if query_time is None:
            query_time = self._max_time
        normalizer = self._engine.normalizer(query_time)
        reported = [
            Cluster(self._centroid(index), self._weights[index] / normalizer)
            for index in range(len(self._sums))
        ]
        reported.sort(key=lambda c: -c.decayed_weight)
        return reported

    def merge(self, other: "DecayedKMeans") -> None:
        """Fold in a clustering of a disjoint substream (Section VI-B).

        Centroid sets are united and the closest pairs merged (weighted
        means) until ``k`` clusters remain — the standard coreset-style
        reduction for mergeable clustering.
        """
        self._check_merge(other, "k", "dimensions")
        factor = self._engine.align_for_merge(other._engine)
        for sums, weight in zip(other._sums, other._weights):
            self._sums.append([value * factor for value in sums])
            self._weights.append(weight * factor)
        while len(self._sums) > self.k:
            self._merge_closest_pair()
        self._merge_scaled(other, factor)

    def _merge_closest_pair(self) -> None:
        best = (0, 1)
        best_distance = math.inf
        count = len(self._sums)
        for i in range(count):
            centroid_i = self._centroid(i)
            for j in range(i + 1, count):
                distance = _squared_distance(centroid_i, self._centroid(j))
                if distance < best_distance:
                    best_distance = distance
                    best = (i, j)
        i, j = best
        for axis in range(self.dimensions):
            self._sums[i][axis] += self._sums[j][axis]
        self._weights[i] += self._weights[j]
        del self._sums[j]
        del self._weights[j]

"""Sensor-fleet monitoring: decayed clustering + a MapReduce-style fold.

Scenario: a fleet of sensors reports (temperature, vibration) readings.
Operating regimes drift over time; we want the *current* regimes, not an
all-history average.  Forward-decayed k-means keeps centroids that follow
the drift at a rate chosen by the decay function, and the Section IX
MapReduce pattern aggregates per-sensor decayed statistics across shards:
each shard keeps one summary per sensor, and ``merge_all`` folds them.

Run:  python examples/sensor_clustering.py
"""

from __future__ import annotations

import random

from repro import (
    DecayedAverage,
    DecayedKMeans,
    ExponentialG,
    ForwardDecay,
    NoDecayG,
    merge_all,
)


def sensor_readings(n: int, seed: int = 3):
    """(timestamp, sensor_id, (temperature, vibration)) with regime drift.

    For the first half the fleet runs cool/quiet around (40, 1); then the
    regime shifts hot/rough toward (80, 6).
    """
    rng = random.Random(seed)
    readings = []
    for t in range(1, n + 1):
        drift = min(1.0, max(0.0, (t - n // 2) / (n / 4)))
        center = (40.0 + 40.0 * drift, 1.0 + 5.0 * drift)
        point = (
            center[0] + rng.gauss(0.0, 2.0),
            center[1] + rng.gauss(0.0, 0.4),
        )
        readings.append((float(t), f"sensor-{t % 8}", point))
    return readings


def clustering_follows_drift(readings) -> None:
    print("Current operating regime (k = 1 centroid), decayed vs not:\n")
    decayed = DecayedKMeans(
        ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0),
        k=1, dimensions=2,
    )
    undecayed = DecayedKMeans(
        ForwardDecay(NoDecayG(), landmark=0.0), k=1, dimensions=2
    )
    for timestamp, __, point in readings:
        decayed.update(point, timestamp)
        undecayed.update(point, timestamp)
    final_time = readings[-1][0]
    decayed_centroid = decayed.clusters(final_time)[0].centroid
    undecayed_centroid = undecayed.clusters(final_time)[0].centroid
    print(f"  true current regime:  (80.0, 6.0)")
    print(f"  decayed centroid:     ({decayed_centroid[0]:.1f}, "
          f"{decayed_centroid[1]:.1f})   <- tracks the drift")
    print(f"  undecayed centroid:   ({undecayed_centroid[0]:.1f}, "
          f"{undecayed_centroid[1]:.1f})   <- stuck between regimes\n")


def two_regimes_separated(readings) -> None:
    print("With k = 2 the decayed clustering separates old and new regimes,")
    print("weighting the new one more heavily:\n")
    model = DecayedKMeans(
        ForwardDecay(ExponentialG(alpha=0.005), landmark=0.0),
        k=2, dimensions=2,
    )
    for timestamp, __, point in readings:
        model.update(point, timestamp)
    for cluster in model.clusters(readings[-1][0]):
        print(f"  centroid ({cluster.centroid[0]:6.1f}, "
              f"{cluster.centroid[1]:4.1f})  decayed weight "
              f"{cluster.decayed_weight:8.1f}")
    print()


def per_sensor_map_reduce(readings) -> None:
    print("Per-sensor decayed average temperature, MapReduce style")
    print("(4 arbitrary shards map to per-sensor summaries; merge_all reduces):\n")
    decay = ForwardDecay(ExponentialG(alpha=0.01), landmark=0.0)
    shard = len(readings) // 4
    partials: dict[str, list[DecayedAverage]] = {}
    for start in range(0, len(readings), shard):  # map: one dict per shard
        mapped: dict[str, DecayedAverage] = {}
        for timestamp, sensor, (temperature, __) in readings[start:start + shard]:
            if sensor not in mapped:
                mapped[sensor] = DecayedAverage(decay)
            mapped[sensor].update(timestamp, temperature)
        for sensor, summary in mapped.items():  # shuffle by key
            partials.setdefault(sensor, []).append(summary)
    for sensor in sorted(partials):  # reduce
        print(f"  {sensor}: decayed mean temperature "
              f"{merge_all(partials[sensor]).query():.1f} C")
    print("\nAll sensors report ~80 C — the decayed mean reflects the")
    print("current hot regime, not the all-history average of ~60 C.")


def main() -> None:
    readings = sensor_readings(4_000)
    clustering_follows_drift(readings)
    two_regimes_separated(readings)
    per_sensor_map_reduce(readings)


if __name__ == "__main__":
    main()

"""Streaming-summary substrate.

Self-contained implementations of the data structures the paper builds on
or compares against:

* :mod:`repro.sketches.spacesaving` — SpaceSaving frequent items (unary and
  weighted), the engine of forward-decayed heavy hitters and the undecayed
  baseline;
* :mod:`repro.sketches.qdigest` — weighted q-digest quantiles, the engine
  of forward-decayed quantiles; :mod:`repro.sketches.gk` — GK quantiles;
* :mod:`repro.sketches.exponential_histogram` — Exponential Histograms for
  sliding-window count/sum, the paper's backward-decay baseline for Fig. 2;
* :mod:`repro.sketches.swhh` — sliding-window heavy hitters, the backward
  baseline for Figs. 4-5;
* :mod:`repro.sketches.kmv` / :mod:`repro.sketches.dominance` — distinct
  counting and dominance norms for decayed count-distinct.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".spacesaving": (
            "Counter", "SpaceSavingBase", "UnarySpaceSaving", "WeightedSpaceSaving",
            "exact_heavy_hitters",
        ),
        ".qdigest": ("QDigest",),
        ".exponential_histogram": (
            "ExponentialHistogramCount", "ExponentialHistogramSum", "DecayedEHCombiner",
        ),
        ".swhh": ("SlidingWindowHeavyHitters", "BackwardDecayedHHCombiner"),
        ".kmv": ("KMVSketch",),
        ".dominance": ("DominanceNormEstimator",),
        ".gk": ("GKSummary",),
    },
)

"""Forward Decay: a practical time decay model for streaming systems.

A full reproduction of Cormode, Shkapenyuk, Srivastava & Xu (ICDE 2009):

* :mod:`repro.core` — the forward-decay model, decayed aggregates (count,
  sum, average, variance, min/max, arbitrary algebraic), decayed heavy
  hitters, quantiles and count-distinct;
* :mod:`repro.sampling` — decayed sampling with/without replacement,
  weighted reservoirs, priority sampling, and the Aggarwal baseline;
* :mod:`repro.sketches` — the summary substrate (SpaceSaving, q-digest,
  Greenwald-Khanna, Exponential Histograms, sliding-window heavy
  hitters, KMV, dominance norms);
* :mod:`repro.dsms` — a GS-style stream database: GSQL-like queries,
  two-level aggregation, UDAFs, and a load-shedding runtime;
* :mod:`repro.workloads` — synthetic network-traffic and value-stream
  generators standing in for the paper's live packet taps;
* :mod:`repro.bench` — the experiment harness regenerating every figure.

Quickstart::

    from repro import ForwardDecay, PolynomialG, DecayedCount

    decay = ForwardDecay(PolynomialG(beta=2), landmark=100.0)
    count = DecayedCount(decay)
    for t in (105, 107, 103, 108, 104):
        count.update(t)
    print(count.query(query_time=110))   # 1.63, as in Example 2
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".core": (
            "ForwardDecay", "BackwardDecay", "forward_equals_backward_exp", "NoDecayG",
            "PolynomialG", "ExponentialG", "LandmarkWindowG", "NoDecayF",
            "SlidingWindowF", "ExponentialF", "PolynomialF", "DecayedCount",
            "DecayedSum", "DecayedAverage", "DecayedVariance", "DecayedMin",
            "DecayedMax", "DecayedAlgebraic", "DecayedHeavyHitters", "DecayedKMeans",
            "DecayedQuantiles", "DecayedDistinctCount", "ExactDecayedDistinct",
            "merge_all", "StreamSummary", "create_summary", "summary_names",
        ),
    },
)

__version__ = "1.0.0"
__all__.append("__version__")

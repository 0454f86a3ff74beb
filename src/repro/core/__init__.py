"""Core forward-decay model and decayed aggregates (the paper's contribution).

This subpackage implements Sections II-IV and VI of the paper:

* decay functions and weight models (:mod:`repro.core.functions`,
  :mod:`repro.core.decay`);
* the shared forward-weight engine and its one exponential
  renormalization rule (:mod:`repro.core.weights`);
* constant-space decayed aggregates — count, sum, average, variance,
  min/max, arbitrary algebraic summations (:mod:`repro.core.aggregates`);
* holistic decayed aggregates — heavy hitters, quantiles, count-distinct
  (:mod:`repro.core.heavy_hitters`, :mod:`repro.core.quantiles`,
  :mod:`repro.core.distinct`);
* distributed merging (:mod:`repro.core.merge`);
* the :class:`~repro.core.protocol.StreamSummary` protocol and the
  registry of every concrete summary (:mod:`repro.core.protocol`,
  :mod:`repro.core.registry`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".decay": (
            "DecayModel", "ForwardDecay", "BackwardDecay",
            "forward_equals_backward_exp", "validate_decay_axioms",
        ),
        ".functions": (
            "NoDecayG", "PolynomialG", "GeneralPolynomialG", "ExponentialG",
            "LandmarkWindowG", "LogarithmicG", "NoDecayF", "SlidingWindowF",
            "ExponentialF", "PolynomialF", "SuperExponentialF", "SubPolynomialF",
        ),
        ".aggregates": (
            "DecayedAggregate", "DecayedCount", "DecayedSum", "DecayedAverage",
            "DecayedVariance", "DecayedMin", "DecayedMax", "DecayedAlgebraic",
        ),
        ".heavy_hitters": ("DecayedHeavyHitters", "HeavyHitter"),
        ".clustering": ("DecayedKMeans", "Cluster"),
        ".quantiles": ("DecayedQuantiles",),
        ".distinct": ("DecayedDistinctCount", "ExactDecayedDistinct"),
        ".merge": ("Mergeable", "merge_all"),
        ".protocol": ("StreamSummary", "dump_decay", "load_decay"),
        ".registry": (
            "SummaryInfo", "register_summary", "get_summary", "summary_name_of",
            "summary_names", "iter_summaries", "create_summary",
        ),
        ".window": ("TumblingLandmarkWindows", "ClosedWindow"),
        ".errors": (
            "DecayError", "ParameterError", "LandmarkError", "TimestampError",
            "EmptySummaryError", "MergeError", "QueryError", "SchemaError",
        ),
    },
)

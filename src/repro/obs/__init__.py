"""``repro.obs`` — self-instrumented observability for the engine.

The paper's operational argument (Section VIII) is that forward decay
keeps CPU and space tracking the undecayed computation; this package turns
the library on itself: engine, serde, and shuffle hot paths record into
forward-decayed metrics built from the repo's own summaries, and the
``repro stats`` CLI renders the snapshot.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".metrics": (
            "DecayedCounter", "DecayedRateGauge", "HotKeyTracker", "LastValueGauge",
            "LatencyQuantiles",
        ),
        ".registry": (
            "MetricsRegistry", "NullMetric", "NULL_METRIC", "format_snapshot",
            "load_snapshot",
        ),
        ".instrument": ("EngineInstrumentation", "TimedUdaf"),
    },
)

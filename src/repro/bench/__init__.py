"""Benchmark harness: measurement, table rendering, per-figure drivers.

See DESIGN.md's experiment index — each figure of the paper maps to one
``run_fig*`` driver here and one ``benchmarks/bench_fig*.py`` target.
Two suites write gated ``BENCH_<name>.json`` artifacts: the smoke suite
(``run_bench_suite``, ``repro bench smoke``) and the state-tier suite
(``repro.bench.state``).  The serving stack's topologies are measured by
``benchmarks/stack/`` against one shared baseline, not here.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".harness": (
            "MethodResult", "time_query", "time_consumer", "loads_at_rates",
            "achievable_throughput",
        ),
        ".artifacts": (
            "run_bench_suite", "write_artifact", "load_artifact", "compare_artifacts",
            "format_comparison", "environment_stamp",
        ),
        ".tables": ("format_table", "print_table", "format_bytes"),
        ".runners": (
            "FIG2_RATES", "FIG5_RATES", "EPSILON_SWEEP", "build_trace",
            "run_fig1_relative_decay", "run_fig2_count_sum", "run_fig2c_epsilon_sweep",
            "run_fig2d_space", "run_fig3a_sampling_rates", "run_fig3b_sampling_sizes",
            "run_fig5_hh_rates", "run_fig4_hh_epsilon",
        ),
    },
)

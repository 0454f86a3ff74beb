"""The one table builder per paper figure.

``FIGURE_BUILDERS[figure_id](trace)`` runs the figure's ``run_fig*``
function and returns ``(data, table)``: that function's dict and its
formatted table.  The command-line interface (``python -m repro figure
fig2a``) prints the table through :func:`figure_table`; each
``benchmarks/bench_fig*.py`` target records the same table and asserts
the paper's shape claims on ``data``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.bench.runners import (
    EPSILON_SWEEP,
    FIG2_RATES,
    FIG5_RATES,
    build_trace,
    run_fig1_relative_decay,
    run_fig2_count_sum,
    run_fig2c_epsilon_sweep,
    run_fig2d_space,
    run_fig3a_sampling_rates,
    run_fig3b_sampling_sizes,
    run_fig4_hh_epsilon,
    run_fig5_hh_rates,
)
from repro.bench.tables import format_bytes, format_table
from repro.core.errors import ParameterError
from repro.dsms.runtime import cpu_load_percent

__all__ = ["FIGURE_BUILDERS", "FIGURE_IDS", "figure_table"]

#: What every builder returns: the ``run_fig*`` data and the rendered table.
Figure = tuple[dict, str]


def _fig1(trace: Sequence[tuple]) -> Figure:
    gammas = [i / 10 for i in range(11)]
    horizons = (60.0, 120.0, 3600.0)
    data = run_fig1_relative_decay(beta=2.0, horizons=horizons, gammas=gammas)
    rows = [
        [gamma] + [data["series"][h][i] for h in horizons]
        for i, gamma in enumerate(gammas)
    ]
    return data, format_table(
        "Figure 1: weight vs relative age, g(n) = n^2 (columns must match)",
        ["gamma"] + [f"t = {h:g}s" for h in horizons],
        rows,
    )


def _fig2(trace: Sequence[tuple], two_level: bool) -> Figure:
    data = run_fig2_count_sum(trace=trace, rates=FIG2_RATES, two_level=two_level)
    rows = [
        [m.name, f"{m.ns_per_tuple:,.0f}"]
        + [f"{p['load_percent']:.1f}%" for p in data["loads"][m.name]]
        for m in data["methods"]
    ]
    mode = "two-level engine" if two_level else "aggregate splitting disabled"
    label = "a" if two_level else "b"
    return data, format_table(
        f"Figure 2({label}): count/sum CPU load vs stream rate ({mode})",
        ["method", "ns/tuple"] + [f"{int(r/1000)}k pkt/s" for r in FIG2_RATES],
        rows,
    )


def _fig2c(trace: Sequence[tuple]) -> Figure:
    data = run_fig2c_epsilon_sweep(trace=trace, epsilons=EPSILON_SWEEP)
    rows = []
    for m in data["flat_methods"] + data["eh_methods"]:
        load = data["loads"][m.name][0]
        rows.append([
            m.name,
            f"{m.ns_per_tuple:,.0f}",
            f"{data['throughputs'][m.name]:,.0f}",
            f"{load['load_percent']:.1f}%",
            f"{load['drop_fraction'] * 100:.1f}%",
        ])
    return data, format_table(
        "Figure 2(c): throughput vs epsilon at 100k pkt/s offered",
        ["method", "ns/tuple", "tuples/s sustainable", "CPU load", "drops"],
        rows,
    )


def _fig2d(trace: Sequence[tuple]) -> Figure:
    data = run_fig2d_space(epsilons=EPSILON_SWEEP)
    rows = [
        [m.name, m.groups, format_bytes(m.state_bytes_per_group)]
        for m in data["methods"] + data["eh_methods"]
    ]
    return data, format_table(
        "Figure 2(d): aggregate state per group",
        ["method", "groups", "state / group"],
        rows,
    )


def _fig3a(trace: Sequence[tuple]) -> Figure:
    data = run_fig3a_sampling_rates(trace=trace, rates=FIG2_RATES)
    rows = [
        [m.name, f"{m.ns_per_tuple:,.0f}"]
        + [f"{p['load_percent']:.1f}%" for p in data["loads"][m.name]]
        for m in data["methods"]
    ]
    return data, format_table(
        "Figure 3(a): sampling CPU load vs stream rate (k = 100)",
        ["method", "ns/tuple"] + [f"{int(r/1000)}k pkt/s" for r in FIG2_RATES],
        rows,
    )


def _fig3b(trace: Sequence[tuple]) -> Figure:
    sizes = (50, 100, 200, 500, 1000)
    data = run_fig3b_sampling_sizes(trace=trace, sizes=sizes)
    rows = [
        [name] + [f"{r.ns_per_tuple:,.0f}" for r in results]
        for name, results in data["series"].items()
    ]
    return data, format_table(
        "Figure 3(b): sampling cost (ns/tuple) vs sample size",
        ["method"] + [f"k={k}" for k in sizes],
        rows,
    )


def _fig4_cpu(trace: Sequence[tuple], proto: str, rate: float) -> Figure:
    data = run_fig4_hh_epsilon(proto=proto, rate=rate, trace=trace)
    rows = [
        [name] + [
            f"{r.ns_per_tuple:,.0f} ({cpu_load_percent(r.ns_per_tuple, rate):.0f}%)"
            for r in results
        ]
        for name, results in data["series"].items()
    ]
    return data, format_table(
        f"Figure 4 CPU panel ({proto.upper()} @ {int(rate/1000)}k pkt/s): "
        "ns/tuple (CPU load) vs epsilon",
        ["method"] + [f"eps={e:g}" for e in data["epsilons"]],
        rows,
    )


def _fig4_space(trace: Sequence[tuple], proto: str, rate: float) -> Figure:
    data = run_fig4_hh_epsilon(proto=proto, rate=rate, trace=trace)
    rows = [
        [name] + [format_bytes(r.state_bytes_per_group) for r in results]
        for name, results in data["series"].items()
    ]
    return data, format_table(
        f"Figure 4 space panel ({proto.upper()}): state per group vs epsilon",
        ["method"] + [f"eps={e:g}" for e in data["epsilons"]],
        rows,
    )


def _fig5(trace: Sequence[tuple]) -> Figure:
    data = run_fig5_hh_rates(trace=trace, rates=FIG5_RATES, epsilon=0.01)
    rows = [
        [m.name, f"{m.ns_per_tuple:,.0f}"]
        + [f"{p['load_percent']:.1f}%" for p in data["loads"][m.name]]
        for m in data["methods"]
    ]
    return data, format_table(
        "Figure 5: heavy-hitter CPU load vs stream rate (eps = 0.01)",
        ["method", "ns/tuple"] + [f"{int(r/1000)}k pkt/s" for r in FIG5_RATES],
        rows,
    )


#: Figure id -> builder, in paper order.
FIGURE_BUILDERS: dict[str, Callable[[Sequence[tuple]], Figure]] = {
    "fig1": _fig1,
    "fig2a": lambda trace: _fig2(trace, two_level=True),
    "fig2b": lambda trace: _fig2(trace, two_level=False),
    "fig2c": _fig2c,
    "fig2d": _fig2d,
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig4a": lambda trace: _fig4_cpu(trace, "tcp", 200_000.0),
    "fig4b": lambda trace: _fig4_cpu(trace, "udp", 170_000.0),
    "fig4c": lambda trace: _fig4_space(trace, "tcp", 200_000.0),
    "fig4d": lambda trace: _fig4_space(trace, "udp", 170_000.0),
    "fig5": _fig5,
}

#: Valid figure identifiers, in paper order.
FIGURE_IDS: tuple[str, ...] = tuple(FIGURE_BUILDERS)


def figure_table(
    figure_id: str,
    trace: Sequence[tuple] | None = None,
    trace_seconds: float = 4.0,
    trace_rate: float = 5_000.0,
) -> str:
    """Regenerate one paper figure and return its formatted table.

    ``trace`` may be supplied (e.g. loaded from a file); otherwise a
    synthetic one is generated with the given duration/rate.  UDP panels
    automatically switch the generated trace's protocol.
    """
    if figure_id not in FIGURE_BUILDERS:
        raise ParameterError(
            f"unknown figure {figure_id!r}; valid: {', '.join(FIGURE_IDS)}"
        )
    if trace is None:
        proto = "udp" if figure_id in ("fig4b", "fig4d") else "tcp"
        trace = build_trace(
            duration_sec=trace_seconds, rate_per_sec=trace_rate, proto=proto
        )
    return FIGURE_BUILDERS[figure_id](trace)[1]

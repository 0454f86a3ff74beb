"""Experiment drivers: one function per figure of the paper.

Each ``run_fig*`` function builds the workload, the competing methods, and
the measurements behind the corresponding figure, returning a plain dict of
series.  ``repro.bench.figures`` wraps each in the figure's one table
builder, which ``repro figure`` and the ``benchmarks/bench_fig*.py`` shape
checks share; EXPERIMENTS.md records paper-vs-measured.

Method line-up per figure (mirroring Section VIII):

* Figure 2 (count/sum): undecayed builtins; forward quadratic decay and
  forward exponential decay expressed as *plain arithmetic* inside
  ``sum(...)``; backward decay via per-group Exponential Histograms.
* Figure 3 (sampling): undecayed reservoir; priority sampling fed forward
  exponential weights; Aggarwal's biased reservoir.
* Figures 4/5 (heavy hitters): unary SpaceSaving; weighted SpaceSaving
  under quadratic and exponential forward decay; the sliding-window
  dyadic structure for backward decay.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.harness import (
    MethodResult,
    achievable_throughput,
    loads_at_rates,
    time_query,
)
from repro.core.decay import ForwardDecay
from repro.core.functions import PolynomialG
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA, PacketTraceConfig, PacketTraceGenerator

__all__ = [
    "FIG2_RATES",
    "FIG5_RATES",
    "EPSILON_SWEEP",
    "build_trace",
    "run_fig1_relative_decay",
    "run_fig2_count_sum",
    "run_fig2c_epsilon_sweep",
    "run_fig2d_space",
    "run_fig3a_sampling_rates",
    "run_fig3b_sampling_sizes",
    "run_fig5_hh_rates",
    "run_fig4_hh_epsilon",
]

#: Stream rates of Figure 2/3 (packets per second).
FIG2_RATES: tuple[float, ...] = (100_000, 200_000, 300_000, 400_000)
#: Stream rates of Figure 5.
FIG5_RATES: tuple[float, ...] = (50_000, 100_000, 150_000, 200_000)
#: The epsilon sweep of Figures 2(c)/2(d)/4.
EPSILON_SWEEP: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01)

_EXP_RATE = 0.1  # alpha for exp((time % 60) * 0.1): max exponent 6 per minute


def build_trace(
    duration_sec: float = 4.0,
    rate_per_sec: float = 10_000.0,
    proto: str = "tcp",
    num_dest_ips: int = 2_000,
    num_dest_ports: int = 50,
    seed: int = 42,
) -> list[tuple]:
    """A materialized packet trace for one experiment.

    ``proto`` fixes the protocol mix ("tcp" / "udp" traces mirror the
    paper's TCP and UDP runs); benchmarks keep traces short and extrapolate
    load analytically from measured per-tuple cost.
    """
    config = PacketTraceConfig(
        duration_sec=duration_sec,
        rate_per_sec=rate_per_sec,
        tcp_fraction=1.0 if proto == "tcp" else 0.0,
        num_dest_ips=num_dest_ips,
        num_dest_ports=num_dest_ports,
        seed=seed,
    )
    return PacketTraceGenerator(config).materialize()


# ---------------------------------------------------------------------------
# Figure 1 — the relative decay property
# ---------------------------------------------------------------------------


def run_fig1_relative_decay(
    beta: float = 2.0,
    horizons: Sequence[float] = (60.0, 120.0),
    gammas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> dict:
    """Weights vs relative age at several horizons (Lemma 1).

    For monomial ``g(n) = n**beta`` the column for every horizon is
    identical: the weight of the item at relative age ``gamma`` is
    ``gamma**beta`` no matter how much time has passed.
    """
    decay = ForwardDecay(PolynomialG(beta=beta), landmark=0.0)
    series = {
        horizon: [decay.relative_weight(gamma, horizon) for gamma in gammas]
        for horizon in horizons
    }
    return {"beta": beta, "gammas": list(gammas), "series": series}


# ---------------------------------------------------------------------------
# Figure 2 — count and sum under decay
# ---------------------------------------------------------------------------


def _count_sum_queries(eh_epsilon: float) -> list[tuple[str, str]]:
    poly_weight = "(time % 60) * (time % 60)"
    exp_weight = f"exp((time % 60) * {_EXP_RATE})"
    group = "group by time/60 as tb, destIP, destPort"
    return [
        (
            "no decay",
            f"select tb, destIP, destPort, count(*) as c, sum(len) as s "
            f"from TCP {group}",
        ),
        (
            "fwd poly",
            f"select tb, destIP, destPort, "
            f"sum({poly_weight}) / 3600 as c, "
            f"sum(len * {poly_weight}) / 3600 as s from TCP {group}",
        ),
        (
            "fwd exp",
            f"select tb, destIP, destPort, "
            f"sum({exp_weight}) as c, sum(len * {exp_weight}) as s "
            f"from TCP {group}",
        ),
        (
            f"bwd EH (eps={eh_epsilon:g})",
            f"select tb, destIP, destPort, eh_count(ts) as c, "
            f"eh_sum(ts, len) as s from TCP {group}",
        ),
    ]


def run_fig2_count_sum(
    trace: Sequence[tuple] | None = None,
    rates: Sequence[float] = FIG2_RATES,
    eh_epsilon: float = 0.1,
    two_level: bool = True,
) -> dict:
    """Figures 2(a) (two-level) and 2(b) (splitting disabled)."""
    if trace is None:
        trace = build_trace()
    registry = default_registry(eh_epsilon=eh_epsilon)
    methods: list[MethodResult] = []
    for name, sql in _count_sum_queries(eh_epsilon):
        methods.append(
            time_query(name, sql, PACKET_SCHEMA, registry, trace,
                       two_level=two_level)
        )
    loads = {m.name: loads_at_rates(m, rates) for m in methods}
    return {
        "two_level": two_level,
        "rates": list(rates),
        "methods": methods,
        "loads": loads,
    }


def run_fig2c_epsilon_sweep(
    trace: Sequence[tuple] | None = None,
    epsilons: Sequence[float] = EPSILON_SWEEP,
    rate: float = 100_000.0,
) -> dict:
    """Figure 2(c): throughput vs epsilon at a fixed 100k pkt/s offer.

    Undecayed and forward-decayed throughput is epsilon-independent; the
    EH method slows as epsilon shrinks and eventually saturates.
    """
    if trace is None:
        trace = build_trace()
    group = "group by time/60 as tb, destIP, destPort"
    registry = default_registry()
    flat_methods = [
        time_query(
            "no decay",
            f"select tb, destIP, destPort, count(*) as c, sum(len) as s "
            f"from TCP {group}",
            PACKET_SCHEMA, registry, trace,
        ),
        time_query(
            "fwd poly",
            f"select tb, destIP, destPort, "
            f"sum((time % 60)*(time % 60)) / 3600 as c, "
            f"sum(len*(time % 60)*(time % 60)) / 3600 as s from TCP {group}",
            PACKET_SCHEMA, registry, trace,
        ),
    ]
    eh_methods = []
    for epsilon in epsilons:
        registry_eps = default_registry(eh_epsilon=epsilon)
        eh_methods.append(
            time_query(
                f"bwd EH eps={epsilon:g}",
                f"select tb, destIP, destPort, eh_count(ts) as c, "
                f"eh_sum(ts, len) as s from TCP {group}",
                PACKET_SCHEMA, registry_eps, trace,
            )
        )
    return {
        "rate": rate,
        "epsilons": list(epsilons),
        "flat_methods": flat_methods,
        "eh_methods": eh_methods,
        "throughputs": {
            m.name: achievable_throughput(m) for m in flat_methods + eh_methods
        },
        "loads": {
            m.name: loads_at_rates(m, [rate]) for m in flat_methods + eh_methods
        },
    }


def run_fig2d_space(
    epsilons: Sequence[float] = EPSILON_SWEEP,
    duration_sec: float = 30.0,
    rate_per_sec: float = 5_000.0,
) -> dict:
    """Figure 2(d): state per group (log scale in the paper).

    Uses a lower-cardinality trace so groups accumulate enough packets for
    the EH bucket structure to grow toward its sublinear bound; undecayed
    state stays 4 bytes and forward-decayed state 8 bytes per aggregate.
    """
    trace = build_trace(
        duration_sec=duration_sec,
        rate_per_sec=rate_per_sec,
        num_dest_ips=20,
        num_dest_ports=4,
    )
    group = "group by time/60 as tb, destIP, destPort"
    registry = default_registry()
    methods = [
        time_query(
            "no decay",
            f"select tb, destIP, destPort, count(*) as c from TCP {group}",
            PACKET_SCHEMA, registry, trace,
        ),
        time_query(
            "fwd poly",
            f"select tb, destIP, destPort, "
            f"sum((time % 60)*(time % 60)) / 3600 as c from TCP {group}",
            PACKET_SCHEMA, registry, trace,
        ),
    ]
    eh_methods = []
    for epsilon in epsilons:
        registry_eps = default_registry(eh_epsilon=epsilon)
        eh_methods.append(
            time_query(
                f"bwd EH eps={epsilon:g}",
                f"select tb, destIP, destPort, eh_count(ts) as c from TCP {group}",
                PACKET_SCHEMA, registry_eps, trace,
            )
        )
    return {"epsilons": list(epsilons), "methods": methods, "eh_methods": eh_methods}


# ---------------------------------------------------------------------------
# Figure 3 — sampling
# ---------------------------------------------------------------------------


def _sampling_queries() -> list[tuple[str, str]]:
    exp_weight = f"exp((time % 60) * {_EXP_RATE})"
    group = "group by time/60 as tb"
    return [
        ("reservoir (no decay)",
         f"select tb, reservoir(srcIP) as samp from TCP {group}"),
        ("priority (fwd exp)",
         f"select tb, prisamp(srcIP, {exp_weight}) as samp from TCP {group}"),
        ("Aggarwal (bwd exp)",
         f"select tb, aggsamp(srcIP) as samp from TCP {group}"),
    ]


def run_fig3a_sampling_rates(
    trace: Sequence[tuple] | None = None,
    rates: Sequence[float] = FIG2_RATES,
    sample_size: int = 100,
) -> dict:
    """Figure 3(a): sampling CPU load vs stream rate."""
    if trace is None:
        trace = build_trace()
    registry = default_registry(sample_size=sample_size)
    methods = [
        time_query(name, sql, PACKET_SCHEMA, registry, trace)
        for name, sql in _sampling_queries()
    ]
    return {
        "rates": list(rates),
        "sample_size": sample_size,
        "methods": methods,
        "loads": {m.name: loads_at_rates(m, rates) for m in methods},
    }


def run_fig3b_sampling_sizes(
    trace: Sequence[tuple] | None = None,
    sizes: Sequence[int] = (50, 100, 200, 500, 1000),
) -> dict:
    """Figure 3(b): sampling cost vs sample size (flat in the paper)."""
    if trace is None:
        trace = build_trace()
    series: dict[str, list[MethodResult]] = {}
    for size in sizes:
        registry = default_registry(sample_size=size)
        for name, sql in _sampling_queries():
            result = time_query(name, sql, PACKET_SCHEMA, registry, trace)
            series.setdefault(name, []).append(result)
    return {"sizes": list(sizes), "series": series}


# ---------------------------------------------------------------------------
# Figures 4 and 5 — heavy hitters
# ---------------------------------------------------------------------------


def _hh_queries(include_backward: bool = True) -> list[tuple[str, str]]:
    poly_weight = "(time % 60) * (time % 60)"
    exp_weight = f"exp((time % 60) * {_EXP_RATE})"
    group = "group by time/60 as tb"
    queries = [
        ("unary HH (no decay)",
         f"select tb, unary_hh(destIP) as hh from TCP {group}"),
        ("fwd poly HH",
         f"select tb, fwd_hh(destIP, {poly_weight}) as hh from TCP {group}"),
        ("fwd exp HH",
         f"select tb, fwd_hh(destIP, {exp_weight}) as hh from TCP {group}"),
    ]
    if include_backward:
        queries.append(
            ("bwd sliding-window HH",
             f"select tb, sw_hh(destIP, ts) as hh from TCP {group}")
        )
    return queries


def run_fig5_hh_rates(
    trace: Sequence[tuple] | None = None,
    rates: Sequence[float] = FIG5_RATES,
    epsilon: float = 0.01,
) -> dict:
    """Figure 5: heavy-hitter CPU load vs stream rate."""
    if trace is None:
        trace = build_trace()
    registry = default_registry(hh_epsilon=epsilon)
    methods = [
        time_query(name, sql, PACKET_SCHEMA, registry, trace)
        for name, sql in _hh_queries()
    ]
    return {
        "rates": list(rates),
        "epsilon": epsilon,
        "methods": methods,
        "loads": {m.name: loads_at_rates(m, rates) for m in methods},
    }


def run_fig4_hh_epsilon(
    proto: str = "tcp",
    epsilons: Sequence[float] = EPSILON_SWEEP,
    rate: float = 200_000.0,
    trace: Sequence[tuple] | None = None,
) -> dict:
    """Figures 4(a)-(d): heavy-hitter CPU and space vs epsilon.

    ``proto="udp"`` with ``rate=170_000`` reproduces the 4(b)/4(d)
    variants.  Forward space scales with ``1/epsilon``; the backward
    structure's space is epsilon-independent (it keeps per-pane exact
    counts), and its CPU is the highest throughout.
    """
    if trace is None:
        trace = build_trace(proto=proto)
    series: dict[str, list[MethodResult]] = {}
    for epsilon in epsilons:
        registry = default_registry(hh_epsilon=epsilon)
        for name, sql in _hh_queries():
            result = time_query(name, sql, PACKET_SCHEMA, registry, trace)
            series.setdefault(name, []).append(result)
    return {
        "proto": proto,
        "rate": rate,
        "epsilons": list(epsilons),
        "series": series,
    }

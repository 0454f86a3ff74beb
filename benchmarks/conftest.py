"""Shared fixtures for the figure benchmarks.

Each ``bench_fig*.py`` regenerates one figure of the paper: it takes the
figure's data and table from its builder in ``repro.bench.figures`` (the
table ``python -m repro figure <id>`` prints), records and prints the
table under ``benchmarks/_results/`` for EXPERIMENTS.md, and asserts the
shape criteria from DESIGN.md on the data.  Its pytest-benchmark tests
time single methods through ``repro.bench.harness.time_query``, or a bare
summary where the figure is about the structure, not the engine.

Traces are deliberately small (tens of thousands of packets): per-tuple
cost stabilizes quickly, and CPU load at the paper's rates is derived
analytically from measured cost (see ``repro.bench.harness``).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.runners import build_trace

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


@pytest.fixture(scope="session")
def tcp_trace() -> list[tuple]:
    """A TCP-only packet trace shared by the count/sampling/HH figures."""
    return build_trace(duration_sec=4.0, rate_per_sec=5_000, proto="tcp")


@pytest.fixture(scope="session")
def udp_trace() -> list[tuple]:
    """A UDP-only trace for the Figure 4(b)/(d) variants."""
    return build_trace(duration_sec=4.0, rate_per_sec=5_000, proto="udp", seed=7)


@pytest.fixture(scope="session")
def record_figure():
    """Persist a rendered figure table under ``benchmarks/_results``."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _record

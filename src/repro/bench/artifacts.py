"""Machine-readable benchmark artifacts and the regression gate.

``run_bench_suite`` runs downscaled versions of the Figure 2(a) (count/sum)
and Figure 4(a) (heavy hitters) benchmarks and emits a ``BENCH_<name>.json``
artifact: per-method median per-tuple cost, achievable throughput, state
bytes, an environment stamp, and the run configuration.  Timing passes run
with metrics *disabled*, so artifact numbers never include instrumentation
overhead.

Artifacts are designed to be diffed across commits by
``benchmarks/compare.py``.  Absolute ns/tuple numbers are host-dependent,
so they are recorded but **not gated**; what the gate watches is

* **relative cost** — each method's median ns/tuple divided by the
  undecayed baseline's, which cancels host speed (the paper's own framing:
  forward decay tracks the undecayed computation); and
* **state bytes** — deterministic for a fixed trace and configuration.

``compare_artifacts`` flags a gated entry when it worsens by more than the
configured threshold factor.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from repro.bench.harness import time_query
from repro.bench.runners import _count_sum_queries, _hh_queries, build_trace
from repro.core.errors import ParameterError
from repro.dsms.udaf import default_registry
from repro.workloads.netflow import PACKET_SCHEMA

__all__ = [
    "ARTIFACT_VERSION",
    "environment_stamp",
    "write_artifact",
    "load_artifact",
    "run_bench_suite",
    "collect_stats",
    "compare_artifacts",
    "format_comparison",
]

ARTIFACT_VERSION = 1

#: Downscaled smoke workload: small enough for CI, large enough that
#: relative costs are stable (medians over repeats absorb the rest).
_SMOKE_DURATION_SEC = 2.0
_SMOKE_RATE_PER_SEC = 2_500.0


def environment_stamp() -> dict:
    """Host/toolchain facts stamped into every artifact (informational)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_rev": rev,
    }


def _slug(name: str) -> str:
    out = []
    for ch in name.lower():
        out.append(ch if ch.isalnum() else "_")
    slug = "".join(out)
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")


def _entry(
    value: float,
    unit: str,
    gate: bool,
    higher_is_better: bool = False,
    exact: bool = False,
    limit: float | None = None,
) -> dict:
    entry = {
        "value": value,
        "unit": unit,
        "gate": gate,
        "higher_is_better": higher_is_better,
    }
    if exact:
        # Exact entries tolerate no drift at all: correctness booleans and
        # other quantities where "within 2x" would be meaningless.
        entry["exact"] = True
    if limit is not None:
        # Absolute worst acceptable value, direction-aware: a ceiling for
        # lower-is-better entries, a floor for higher-is-better ones.  The
        # gate fails when the *current* value crosses it, regardless of
        # how the baseline compares — used for contractual bounds like
        # "columnar wire overhead stays under 2x in-process".
        entry["limit"] = limit
    return entry


def _measure_suite(
    label: str,
    queries: list[tuple[str, str]],
    baseline_name: str,
    registry,
    trace,
    repeats: int,
    entries: dict,
) -> None:
    medians: dict[str, float] = {}
    state: dict[str, int] = {}
    for name, sql in queries:
        runs = [
            time_query(name, sql, PACKET_SCHEMA, registry, trace)
            for _ in range(max(1, repeats))
        ]
        medians[name] = statistics.median(r.ns_per_tuple for r in runs)
        state[name] = runs[0].state_bytes_total
    baseline_cost = medians[baseline_name]
    for name in medians:
        slug = _slug(name)
        entries[f"{label}.{slug}.ns_per_tuple"] = _entry(
            medians[name], "ns", gate=False
        )
        entries[f"{label}.{slug}.tuples_per_sec"] = _entry(
            1e9 / medians[name], "tuples/s", gate=False, higher_is_better=True
        )
        entries[f"{label}.{slug}.state_bytes"] = _entry(
            float(state[name]), "bytes", gate=True
        )
        if name != baseline_name:
            entries[f"{label}.{slug}.relative_cost"] = _entry(
                medians[name] / baseline_cost, "x baseline", gate=True
            )


def _source_lines(entries: dict) -> None:
    """Report-only codebase size: non-blank lines of ``*.py`` under the
    checkout's ``src/`` and ``tests/`` (lower is better; skipped when the
    package runs from somewhere that has neither)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.normpath(os.path.join(here, "..", "..", ".."))
    for label in ("src", "tests"):
        top = os.path.join(root, label)
        if not os.path.isdir(top):
            continue
        count = 0
        for folder, _dirs, files in os.walk(top):
            for filename in files:
                if filename.endswith(".py"):
                    path = os.path.join(folder, filename)
                    with open(path, encoding="utf-8") as handle:
                        count += sum(1 for line in handle if line.strip())
        entries[f"loc.{label}"] = _entry(float(count), "lines", gate=False)


def run_bench_suite(
    name: str = "smoke",
    scale: float = 1.0,
    repeats: int = 3,
    eh_epsilon: float = 0.1,
    hh_epsilon: float = 0.02,
) -> dict:
    """Run the downscaled fig2a + fig4a suite, returning a BENCH artifact."""
    if scale <= 0:
        raise ParameterError(f"scale must be positive, got {scale!r}")
    if repeats < 1:
        raise ParameterError(f"repeats must be >= 1, got {repeats!r}")
    trace = build_trace(
        duration_sec=_SMOKE_DURATION_SEC,
        rate_per_sec=_SMOKE_RATE_PER_SEC * scale,
    )
    entries: dict[str, dict] = {}
    _measure_suite(
        "fig2a",
        _count_sum_queries(eh_epsilon),
        "no decay",
        default_registry(eh_epsilon=eh_epsilon),
        trace,
        repeats,
        entries,
    )
    _measure_suite(
        "fig4a",
        _hh_queries(),
        "unary HH (no decay)",
        default_registry(hh_epsilon=hh_epsilon),
        trace,
        repeats,
        entries,
    )
    _source_lines(entries)
    return {
        "name": name,
        "version": ARTIFACT_VERSION,
        "created": time.time(),
        "environment": environment_stamp(),
        "config": {
            "trace_tuples": len(trace),
            "scale": scale,
            "repeats": repeats,
            "eh_epsilon": eh_epsilon,
            "hh_epsilon": hh_epsilon,
        },
        "entries": entries,
    }


def collect_stats(
    scale: float = 1.0, eh_epsilon: float = 0.1, hh_epsilon: float = 0.02
):
    """One fully instrumented pass over the suite; returns the registry.

    Separate from the timing passes by design: instrumented numbers feed
    ``repro stats``, never BENCH artifacts.
    """
    from repro.obs.registry import MetricsRegistry

    metrics = MetricsRegistry(enabled=True)
    trace = build_trace(
        duration_sec=_SMOKE_DURATION_SEC,
        rate_per_sec=_SMOKE_RATE_PER_SEC * scale,
    )
    registry = default_registry(eh_epsilon=eh_epsilon)
    for name, sql in _count_sum_queries(eh_epsilon):
        time_query(_slug(name), sql, PACKET_SCHEMA, registry, trace, metrics=metrics)
    hh_registry = default_registry(hh_epsilon=hh_epsilon)
    for name, sql in _hh_queries():
        time_query(
            _slug(name), sql, PACKET_SCHEMA, hh_registry, trace, metrics=metrics
        )
    return metrics


def write_artifact(artifact: dict, path: str) -> None:
    """Serialize an artifact to ``path`` as stable, diff-friendly JSON."""
    with open(path, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> dict:
    """Read an artifact written by :func:`write_artifact`."""
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ParameterError(
            f"unsupported bench artifact version {artifact.get('version')!r}"
        )
    if not isinstance(artifact.get("entries"), dict):
        raise ParameterError(f"artifact {path!r} has no entries")
    return artifact


def compare_artifacts(baseline: dict, current: dict, threshold: float = 2.0) -> dict:
    """Diff two artifacts; flag gated entries that worsened past ``threshold``.

    ``threshold`` is a worsening *factor*: a gated lower-is-better entry
    regresses when ``current > baseline * threshold``; higher-is-better when
    ``current < baseline / threshold``.  Entries marked ``exact`` (merge
    correctness and other booleans) regress on *any* difference from the
    baseline value — the threshold does not apply to them.  Entries carrying
    a ``limit`` additionally regress when the current value crosses that
    absolute bound (above it for lower-is-better, below it for higher-is-
    better) even if the relative drift stays inside the threshold.  Ungated
    entries are reported for context only.  Gated entries missing from
    ``current`` count as regressions (a silently dropped benchmark must not
    pass the gate).
    """
    if threshold < 1.0:
        raise ParameterError(f"threshold must be >= 1.0, got {threshold!r}")
    rows = []
    regressions = []
    base_entries = baseline["entries"]
    cur_entries = current["entries"]
    for name in sorted(base_entries):
        base = base_entries[name]
        cur = cur_entries.get(name)
        if cur is None:
            if base["gate"]:
                regressions.append(name)
                rows.append({"name": name, "status": "missing", "gate": True})
            continue
        base_value = base["value"]
        cur_value = cur["value"]
        if base_value > 0:
            ratio = cur_value / base_value
        else:
            ratio = float("inf") if cur_value > 0 else 1.0
        if base.get("exact"):
            regressed = base["gate"] and cur_value != base_value
        elif base.get("higher_is_better"):
            regressed = base["gate"] and ratio < 1.0 / threshold
        else:
            regressed = base["gate"] and ratio > threshold
        limit = cur.get("limit", base.get("limit"))
        if (
            not regressed
            and base["gate"]
            and not base.get("exact")
            and limit is not None
        ):
            if base.get("higher_is_better"):
                regressed = cur_value < limit
            else:
                regressed = cur_value > limit
        if regressed:
            regressions.append(name)
        row = {
            "name": name,
            "status": "regressed" if regressed else "ok",
            "gate": base["gate"],
            "exact": bool(base.get("exact")),
            "baseline": base_value,
            "current": cur_value,
            "ratio": ratio,
            "unit": base.get("unit", ""),
        }
        if limit is not None:
            row["limit"] = limit
        rows.append(row)
    return {
        "threshold": threshold,
        "baseline_name": baseline.get("name"),
        "current_name": current.get("name"),
        "rows": rows,
        "regressions": regressions,
    }


def format_comparison(report: dict) -> str:
    """Render a :func:`compare_artifacts` report as a text table."""
    lines = [
        f"bench comparison: {report['baseline_name']!r} -> "
        f"{report['current_name']!r} (threshold {report['threshold']:g}x)",
        f"{'entry':<44} {'base':>12} {'current':>12} {'ratio':>7}  gate status",
    ]
    for row in report["rows"]:
        if row["status"] == "missing":
            lines.append(
                f"{row['name']:<44} {'-':>12} {'-':>12} {'-':>7}  "
                f"{'yes' if row['gate'] else 'no':<5} MISSING"
            )
            continue
        if row.get("exact") and row["gate"]:
            gate_label = "exact"
        else:
            gate_label = "yes" if row["gate"] else "no"
        lines.append(
            f"{row['name']:<44} {row['baseline']:>12,.1f} "
            f"{row['current']:>12,.1f} {row['ratio']:>6.2f}x  "
            f"{gate_label:<5} "
            f"{'REGRESSED' if row['status'] == 'regressed' else 'ok'}"
        )
    count = len(report["regressions"])
    lines.append(
        f"{count} regression(s)" if count else "no regressions past threshold"
    )
    return "\n".join(lines)

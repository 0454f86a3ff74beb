#!/usr/bin/env python3
"""Compare two sets of stack-benchmark runs against the benchmark's bounds.

    python3 benchmarks/stack/compare.py A.json [B.json]

``A.json`` / ``B.json`` are files written by ``run.py --out`` (one set of
runs each: the same commit twice for the repeatability check, or parent
and change run in alternating order, at least ten pairs).  For every
workload × metric of the untraced runs — the end-to-end metrics, and the
timing medians that were demoted to the layer table because this host
cannot hold them (they keep the issue's bound, 0.10) — it prints both medians, how much worse B is
than A as a share of A's median, each set's own spread (distance between
the first and third quartile as a share of the median) and a verdict
against the bound fixed in ``BENCHMARK.json``:

* ``ok``          B is not worse than A by more than the bound;
* ``WORSE``       it is;
* ``unresolved``  one set's own spread exceeds the bound, so the
                  difference cannot be told from noise.

A failed call leaves no latency sample, so failures are compared before
any median: each workload's ``failed / attempted`` and wrong answers are
printed for both sets, and the workload is ``WORSE`` when B failed more
calls than A or gave a wrong answer, whatever its medians say.

With one file it prints that set's spreads against a third of each bound
(the steadiness the benchmark's contract asks for).  Count metrics of
traced runs with the same seed must agree exactly.  Smoke records are
never compared.  Exits 1 when anything is ``WORSE`` or any count differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Bound of a timing metric that an untraced run reports but that is not
#: end-to-end: the one the issue fixed.  It was demoted, not widened.
DEMOTED_BOUND = 0.10


def untraced_metrics(benchmark: dict, runs: list[dict]) -> list[dict]:
    """End-to-end specs, then the layer-table metrics untraced runs report."""
    reported = {
        name for run in runs if not run["trace"] for name in run["metrics"]
    }
    return benchmark["end_to_end"] + [
        dict(spec, bound=DEMOTED_BOUND)
        for spec in benchmark["per_layer"] if spec["name"] in reported
    ]


def load_runs(path: str) -> list[dict]:
    with open(path) as handle:
        document = json.load(handle)
    return [run for run in document["runs"] if not run.get("smoke")]


def by_workload(runs: list[dict], traced: bool) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for run in runs:
        if bool(run["trace"]) == traced:
            grouped[run["workload"]].append(run)
    return grouped


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def spread(numbers: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(numbers) < 2:
        return None
    first, _, third = statistics.quantiles(numbers, n=4)
    middle = statistics.median(numbers)
    return (third - first) / abs(middle) if middle else None


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def percent(share: float | None) -> str:
    return "   n/a" if share is None else f"{share * 100:+6.1f}%"


def failures(runs: list[dict]) -> tuple[int, int, int]:
    """``(failed, attempted, runs with a wrong answer)`` over a set."""
    return (
        sum(run["failed"] for run in runs),
        sum(run["attempted"] for run in runs),
        sum(not run["correct"] for run in runs),
    )


def compare_sets(a_runs, b_runs, metrics) -> tuple[list[str], bool]:
    lines, bad = [], False
    a_by, b_by = by_workload(a_runs, False), by_workload(b_runs, False)
    summary = []
    for workload in sorted(set(a_by) & set(b_by)):
        a_set, b_set = a_by[workload], b_by[workload]
        lines.append(f"{workload}  (A: {len(a_set)} runs, B: {len(b_set)} runs)")
        (a_failed, a_tried, a_wrong), (b_failed, b_tried, b_wrong) = (
            failures(a_set), failures(b_set)
        )
        # Shares, not counts: the sets need not have made the same number
        # of calls.  Nothing is allowed here, so there is no bound.
        failing = b_wrong > 0 or b_failed / b_tried > a_failed / a_tried
        bad = bad or failing
        lines.append(
            f"  failed calls  A {a_failed}/{a_tried}  B {b_failed}/{b_tried};  "
            f"runs with a wrong answer  A {a_wrong}  B {b_wrong}  "
            f"{'WORSE' if failing else 'ok'}"
        )
        lines.append(
            f"  {'metric':<24}{'A median':>14}{'B median':>14}  unit    "
            f"{'B worse by':>10} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict"
        )
        cells = []
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            a_mid = statistics.median(values(a_set, name))
            b_mid = statistics.median(values(b_set, name))
            delta = worse_by(a_mid, b_mid, spec["better"])
            spreads = [spread(values(a_set, name)), spread(values(b_set, name))]
            known = [s for s in spreads if s is not None]
            if known and max(known) > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict, bad = "WORSE", True
            else:
                verdict = "ok"
            lines.append(
                f"  {name:<24}{a_mid:>14.6g}{b_mid:>14.6g}  {spec['unit']:<7} "
                f"{percent(delta):>10} {bound:>6.2f} {percent(spreads[0]):>9} "
                f"{percent(spreads[1]):>9}  {verdict}"
            )
            cells.append(f"{name}={percent(delta).strip()} {verdict}")
        if failing:
            cells.insert(0, f"failed {b_failed}/{b_tried} wrong {b_wrong} WORSE")
        summary.append(f"{workload}: " + "; ".join(cells))
        lines.append("")
    lines.append("one row per workload (B worse than A by, base = A median):")
    lines.extend(summary)
    return lines, bad


def steadiness(runs, metrics) -> list[str]:
    lines = []
    for workload, group in sorted(by_workload(runs, False).items()):
        failed, tried, wrong = failures(group)
        lines.append(
            f"{workload}  ({len(group)} runs; failed calls {failed}/{tried}, "
            f"runs with a wrong answer {wrong})"
        )
        lines.append(
            f"  {'metric':<24}{'median':>14}  unit    {'spread':>8} "
            f"{'bound/3':>8}  verdict"
        )
        for spec in metrics:
            numbers = values(group, spec["name"])
            own = spread(numbers)
            if own is None:
                verdict = "too few runs"
            elif spec["name"] == "setup_s":
                verdict = "not gated on spread"
            else:
                verdict = "steady" if own < spec["bound"] / 3 else "NOISY"
            lines.append(
                f"  {spec['name']:<24}{statistics.median(numbers):>14.6g}  "
                f"{spec['unit']:<7} {percent(own):>8} "
                f"{percent(spec['bound'] / 3):>8}  {verdict}"
            )
        lines.append("")
    return lines


def count_differences(a_runs, b_runs) -> list[str]:
    """Count metrics of traced runs sharing (workload, seed) must be equal."""
    lines = []
    index = {
        (run["workload"], run["seed"]): run
        for run in b_runs if run["trace"]
    }
    for run in a_runs:
        other = index.get((run["workload"], run["seed"])) if run["trace"] else None
        if other is None:
            continue
        for name in run.get("count_metrics", []):
            a, b = run["metrics"][name]["value"], other["metrics"][name]["value"]
            if a != b:
                lines.append(
                    f"count differs: {run['workload']} seed {run['seed']} "
                    f"{name}: A={a!r} B={b!r}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="run.py --out file (the base)")
    parser.add_argument("b", nargs="?", help="second set, compared with the first")
    args = parser.parse_args(argv)
    a_runs = load_runs(args.a)
    with open(BENCHMARK) as handle:
        metrics = untraced_metrics(json.load(handle), a_runs)
    if args.b is None:
        print("\n".join(steadiness(a_runs, metrics)))
        return 0
    b_runs = load_runs(args.b)
    lines, bad = compare_sets(a_runs, b_runs, metrics)
    differing = count_differences(a_runs, b_runs)
    print("\n".join(lines + differing))
    return 1 if bad or differing else 0


if __name__ == "__main__":
    sys.exit(main())

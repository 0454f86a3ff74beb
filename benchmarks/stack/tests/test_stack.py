"""Self-tests of the stack benchmark harness (smoke size, never compared).

    PYTHONPATH=src python -m pytest benchmarks/stack/tests

They check the harness, not the library: that what it prints is what
``BENCHMARK.json`` promises, that counts repeat, that the span tree is
well formed, and that nothing is left behind — also when a workload
raises.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

STACK = pathlib.Path(__file__).resolve().parents[1]
REPO = STACK.parents[1]
sys.path[:0] = [str(STACK), str(REPO / "src")]

import ledger  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import topologies  # noqa: E402
import workloads  # noqa: E402
from repro.core.errors import ProtocolError  # noqa: E402
from repro.dsms.engine import run_query  # noqa: E402
from repro.workloads.netflow import PACKET_SCHEMA  # noqa: E402
from spans import NULL_RECORDER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(REPO / "BENCHMARK.json") as _handle:
    BENCHMARK = json.load(_handle)

#: The issue's end-to-end timing medians, demoted to the layer table.
TIMINGS = ("ingest_rows_per_s", "cpu_us_per_row", "ack_ms_p50", "query_ms_p50",
           "checkpoint_ms_p50")


def invoke(*args: str) -> tuple[int, dict, str]:
    """``run.main`` in this process → (exit code, last-line JSON, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--smoke", *args])
    text = stdout.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def socket_fds() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor
    return count


def child_pids() -> list[int]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as handle:
            pids += [int(pid) for pid in handle.read().split()]
    return pids


def assert_nothing_left(sockets_before: int) -> None:
    assert child_pids() == []
    assert socket_fds() == sockets_before
    assert not (STACK / ".work").exists()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """All four workloads under the ledger, once, with their records."""
    out = tmp_path_factory.mktemp("stack") / "traced.json"
    code, last, _ = invoke("--trace", "1", "--out", str(out))
    with open(out) as handle:
        document = json.load(handle)
    shutil.copy(STACK / "trace.jsonl", out.with_name("trace.jsonl"))
    return code, last, document, out.with_name("trace.jsonl")


def test_benchmark_json_names_and_units():
    names = (
        [w["name"] for w in BENCHMARK["workloads"]]
        + [m["name"] for m in BENCHMARK["end_to_end"]]
        + [m["name"] for m in BENCHMARK["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(m["unit"])
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert ledger.COUNT_METRICS <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_output_is_the_end_to_end_contract(workload):
    sockets = socket_fds()
    code, last, text = invoke("--workload", workload, "--trace", "0")
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: e["unit"] for n, e in last["metrics"].items()} == expected
    assert all(
        set(entry) == {"value", "unit"} and entry["value"] > 0
        for entry in last["metrics"].values()
    )
    assert "SMOKE (never compare)" in text
    # Printed by name, but not in the result line: they are layer-table metrics.
    assert all(name in text and name not in last["metrics"] for name in TIMINGS)
    assert_nothing_left(sockets)


def test_traced_output_is_the_per_layer_contract(traced):
    code, last, document, _ = traced
    assert code == 0 and last["correct"] is True and last["failed"] == 0
    assert document["host"]["nproc"] == os.cpu_count()
    assert "python" in document["host"] and "git_rev" in document["host"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert len(document["runs"]) == len(workloads.WORKLOADS)
    for record in document["runs"]:
        assert record["smoke"] is True and record["trace"] is True
        got = {n: e["unit"] for n, e in record["metrics"].items()}
        assert got == expected, record["workload"]
        assert record["metrics"]["result_mismatch_rows"]["value"] == 0
        assert record["metrics"]["ops_failed_share"]["value"] == 0
        assert record["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert all(record["metrics"][name]["value"] > 0 for name in TIMINGS)


def test_span_tree_is_well_formed(traced):
    *_, trace_path = traced
    trees: dict[tuple, list[dict]] = {}
    with open(trace_path) as handle:
        for line in handle:
            span = json.loads(line)
            trees.setdefault((span["workload"], span["round"]), []).append(span)
    assert len(trees) >= len(workloads.WORKLOADS)
    for spans in trees.values():
        assert [span["id"] for span in spans] == list(range(len(spans)))
        covered = [0] * len(spans)
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            parent = span["parent"]
            if parent is None:
                continue
            assert 0 <= parent < span["id"]
            outer = spans[parent]
            assert outer["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= outer["end_ns"]
            covered[parent] += span["end_ns"] - span["start_ns"]
        for span, inner in zip(spans, covered):
            assert span["end_ns"] - span["start_ns"] - inner >= 0  # self time
        batches = [s for s in spans if s["name"] == "pipe.batch"]
        assert [s["seq"] for s in batches] == list(range(len(batches)))


def test_counts_and_digest_repeat_per_seed(traced, tmp_path):
    *_, document, _ = traced
    first = next(r for r in document["runs"] if r["workload"] == "spill_store")
    out = tmp_path / "again.json"
    for seed in ("1", "2"):
        invoke("--workload", "spill_store", "--trace", "1", "--seed", seed,
               "--out", str(out))
    with open(out) as handle:
        same, other = json.load(handle)["runs"]
    exact = set(first["count_metrics"])
    assert {"store.tiered.fault_ins", "dsms.engine.groups"} <= exact
    assert exact <= ledger.COUNT_METRICS
    assert not exact & set(first["samples"]["off_path"])

    def counts(record):
        return {name: record["metrics"][name]["value"] for name in exact}

    assert same["trace_digest"] == first["trace_digest"]
    assert counts(same) == counts(first)
    assert other["trace_digest"] != first["trace_digest"]
    assert counts(other) != counts(first)


def test_reference_agrees_with_run_query_where_buckets_close_in_order():
    workload = workloads.WORKLOADS["countsum_served"].scaled(run.SMOKE_SCALE)
    inputs = workloads.build_inputs(workload, 1, NULL_RECORDER)
    workloads.reference(workload, inputs)
    emitted = run_query(workloads.parse(workload.sql), PACKET_SCHEMA, inputs.rows)
    assert workloads.canonical(emitted) == inputs.expected


def test_failed_ops_are_counted_and_fail_the_run(monkeypatch):
    def refuse(self):
        raise ProtocolError("refused by the test")

    monkeypatch.setattr(topologies.InprocTopology, "checkpoint", refuse)
    code, last, text = invoke("--workload", "sketch_inproc")
    assert last["failed"] >= 1 and last["failed"] < last["attempted"]
    assert "refused by the test" in text
    # The answers were right, but a failed call has no latency sample.
    assert code == 2 and last["correct"] is True


def test_peak_rss_mark_can_be_reset():
    block = bytearray(64 << 20)
    block[::4096] = bytes(len(block) // 4096)  # touch every page
    high = topologies.peak_rss_kib()
    del block
    assert topologies.peak_rss_kib(reset=True) < high - (32 << 10)


def test_mismatch_exits_non_zero(monkeypatch):
    monkeypatch.setattr(measure, "mismatch_rows", lambda got, expected: 3)
    code, last, _ = invoke("--workload", "sketch_inproc")
    assert code != 0 and last["correct"] is False


@pytest.mark.parametrize(
    "workload,topology",
    [("countsum_served", "ServedTopology"), ("spill_store", "StoreTopology"),
     ("readmix_cluster", "ClusterTopology")],
)
def test_nothing_left_behind_when_a_workload_raises(monkeypatch, workload, topology):
    def explode(self):
        raise RuntimeError("the test broke this workload")

    sockets = socket_fds()
    monkeypatch.setattr(getattr(topologies, topology), "query", explode)
    with pytest.raises(RuntimeError, match="the test broke"):
        invoke("--workload", workload)
    assert_nothing_left(sockets)


def test_oversized_inputs_are_refused_before_timing():
    workload = workloads.WORKLOADS["countsum_served"].scaled(run.SMOKE_SCALE)
    inputs = workloads.build_inputs(workload, 1, NULL_RECORDER)
    sizes = workloads.reference(workload, inputs)
    workloads.guard_sizes(inputs, sizes)
    with pytest.raises(ValueError, match="RESULT frame"):
        workloads.guard_sizes(inputs, {**sizes, "result_bytes": 5 << 20})


def _runs(workload: str, failed: int = 0, correct: bool = True,
          **metric_lists) -> list[dict]:
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    units["ingest_rows_per_s"] = "rows/s"  # in the layer table, bound 0.10
    count = len(next(iter(metric_lists.values())))
    return [
        {
            "workload": workload, "seed": index, "trace": False, "smoke": False,
            "attempted": 50, "failed": failed, "correct": correct,
            "metrics": {
                name: {"value": metric_lists.get(name, [100.0] * count)[index],
                       "unit": unit}
                for name, unit in units.items()
            },
        }
        for index in range(count)
    ]


def test_compare_verdicts(tmp_path):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    cases = {
        "base": _runs("countsum_served", ingest_rows_per_s=steady),
        "slower": _runs("countsum_served",
                        ingest_rows_per_s=[v * 0.6 for v in steady]),
        "noisy": _runs("countsum_served",
                       ingest_rows_per_s=[v * (1 + 0.3 * (i % 3))
                                          for i, v in enumerate(steady)]),
        # Faster medians do not count when calls failed or answers differ.
        "failing": _runs("countsum_served", failed=1,
                         ingest_rows_per_s=[v * 2 for v in steady]),
        "wrong": _runs("countsum_served", correct=False,
                       ingest_rows_per_s=[v * 2 for v in steady]),
        "smoke": [
            dict(r, smoke=True)
            for r in _runs("countsum_served", ingest_rows_per_s=steady)
        ],
    }
    for name, runs in cases.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": runs}))

    def compare(*names):
        done = subprocess.run(
            [sys.executable, str(STACK / "compare.py"),
             *(str(tmp_path / f"{n}.json") for n in names)],
            capture_output=True, text=True,
        )
        return done.returncode, done.stdout

    code, text = compare("base", "base")
    assert code == 0 and "WORSE" not in text and "unresolved" not in text
    code, text = compare("base", "slower")
    row = next(l for l in text.splitlines() if l.startswith("  ingest_rows_per_s"))
    assert code == 1 and row.endswith("WORSE") and "+40.0%" in row
    code, text = compare("base", "noisy")
    row = next(l for l in text.splitlines() if l.startswith("  ingest_rows_per_s"))
    assert code == 0 and row.endswith("unresolved")
    code, text = compare("base", "failing")
    assert code == 1 and "failed calls  A 0/500  B 10/500" in text
    assert compare("failing", "failing")[0] == 0  # no more than the base
    code, text = compare("base", "wrong")
    assert code == 1 and "wrong answer  A 0  B 10  WORSE" in text
    code, text = compare("base", "smoke")
    assert code == 0 and "countsum_served" not in text  # smoke is never compared
    code, text = compare("base")
    assert code == 0 and "steady" in text


def test_compare_wants_counts_of_traced_runs_to_agree_exactly(tmp_path):
    def traced_run(evictions: float) -> dict:
        return {
            "workload": "spill_store", "seed": 7, "trace": True, "smoke": False,
            "count_metrics": ["store.tiered.evictions"],
            "metrics": {
                "store.tiered.evictions": {"value": evictions, "unit": "count"},
                "store.tiered.fault_in_us_p50": {"value": evictions, "unit": "us"},
            },
        }

    for name, evictions in (("a", 11.0), ("same", 11.0), ("other", 12.0)):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"runs": [traced_run(evictions)]})
        )

    def compare(b: str):
        return subprocess.run(
            [sys.executable, str(STACK / "compare.py"),
             str(tmp_path / "a.json"), str(tmp_path / f"{b}.json")],
            capture_output=True, text=True,
        )

    assert compare("same").returncode == 0
    differing = compare("other")
    assert differing.returncode == 1
    assert "count differs: spill_store seed 7 store.tiered.evictions" in differing.stdout


def test_a_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        STACK, tmp_path / "benchmarks" / "stack",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "trace.jsonl"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload", "sketch_inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

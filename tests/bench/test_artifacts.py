"""Tests for BENCH artifacts and the regression gate."""

from __future__ import annotations

import copy
import pathlib

import pytest

from repro.bench.artifacts import (
    ARTIFACT_VERSION,
    collect_stats,
    compare_artifacts,
    environment_stamp,
    format_comparison,
    load_artifact,
    run_bench_suite,
    write_artifact,
)
from repro.core.errors import ParameterError


@pytest.fixture(scope="module")
def artifact():
    """One tiny suite run shared by every test in this module."""
    return run_bench_suite(name="test", scale=0.05, repeats=1)


class TestArtifactShape:
    def test_envelope_fields(self, artifact):
        assert artifact["name"] == "test"
        assert artifact["version"] == ARTIFACT_VERSION
        assert artifact["config"]["repeats"] == 1
        assert artifact["config"]["trace_tuples"] > 0
        env = artifact["environment"]
        assert env["python"] and env["platform"]

    def test_entries_cover_both_figures(self, artifact):
        names = artifact["entries"]
        assert any(name.startswith("fig2a.") for name in names)
        assert any(name.startswith("fig4a.") for name in names)
        entry = names["fig2a.no_decay.ns_per_tuple"]
        assert entry["value"] > 0 and entry["unit"] == "ns"

    def test_source_line_counts_are_report_only(self, artifact):
        for name in ("loc.src", "loc.tests"):
            entry = artifact["entries"][name]
            assert entry["value"] > 1000 and entry["unit"] == "lines"
            assert not entry["gate"] and not entry["higher_is_better"]

    def test_absolute_timings_ungated_relative_costs_gated(self, artifact):
        for name, entry in artifact["entries"].items():
            if name.endswith(".ns_per_tuple") or name.endswith(".tuples_per_sec"):
                assert not entry["gate"], name
            if name.endswith(".relative_cost") or name.endswith(".state_bytes"):
                assert entry["gate"], name
        # The baselines themselves carry no relative-cost entry.
        assert "fig2a.no_decay.relative_cost" not in artifact["entries"]
        assert "fig4a.unary_hh_no_decay.relative_cost" not in artifact["entries"]

    def test_write_load_round_trip(self, artifact, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_artifact(artifact, str(path))
        assert load_artifact(str(path)) == artifact

    def test_load_rejects_bad_artifacts(self, tmp_path):
        bad_version = tmp_path / "v.json"
        bad_version.write_text('{"version": 99, "entries": {}}')
        with pytest.raises(ParameterError):
            load_artifact(str(bad_version))
        no_entries = tmp_path / "e.json"
        no_entries.write_text('{"version": 1}')
        with pytest.raises(ParameterError):
            load_artifact(str(no_entries))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            run_bench_suite(scale=0.0)
        with pytest.raises(ParameterError):
            run_bench_suite(repeats=0)

    def test_environment_stamp_shape(self):
        stamp = environment_stamp()
        assert set(stamp) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "cpu_count",
            "git_rev",
        }


class TestCompare:
    def test_identical_artifacts_pass(self, artifact):
        report = compare_artifacts(artifact, artifact, threshold=2.0)
        assert report["regressions"] == []
        assert all(row["status"] == "ok" for row in report["rows"])

    def test_gated_regression_flagged(self, artifact):
        worse = copy.deepcopy(artifact)
        name = "fig2a.fwd_exp.relative_cost"
        worse["entries"][name]["value"] *= 3.0
        report = compare_artifacts(artifact, worse, threshold=2.0)
        assert report["regressions"] == [name]
        assert "REGRESSED" in format_comparison(report)

    def test_ungated_change_never_fails(self, artifact):
        worse = copy.deepcopy(artifact)
        worse["entries"]["fig2a.no_decay.ns_per_tuple"]["value"] *= 100.0
        report = compare_artifacts(artifact, worse, threshold=2.0)
        assert report["regressions"] == []

    def test_higher_is_better_direction(self, artifact):
        entry = {
            "value": 100.0,
            "unit": "x",
            "gate": True,
            "higher_is_better": True,
        }
        base = {"name": "b", "entries": {"m": dict(entry)}}
        ok = {"name": "c", "entries": {"m": dict(entry, value=60.0)}}
        bad = {"name": "c", "entries": {"m": dict(entry, value=40.0)}}
        assert compare_artifacts(base, ok, threshold=2.0)["regressions"] == []
        assert compare_artifacts(base, bad, threshold=2.0)["regressions"] == ["m"]

    def test_missing_gated_entry_is_a_regression(self, artifact):
        partial = copy.deepcopy(artifact)
        del partial["entries"]["fig2a.fwd_exp.relative_cost"]
        report = compare_artifacts(artifact, partial, threshold=2.0)
        assert "fig2a.fwd_exp.relative_cost" in report["regressions"]
        assert "MISSING" in format_comparison(report)

    def test_improvements_pass(self, artifact):
        better = copy.deepcopy(artifact)
        for entry in better["entries"].values():
            if not entry["higher_is_better"]:
                entry["value"] *= 0.5
        report = compare_artifacts(artifact, better, threshold=2.0)
        assert report["regressions"] == []

    def test_rejects_threshold_below_one(self, artifact):
        with pytest.raises(ParameterError):
            compare_artifacts(artifact, artifact, threshold=0.5)

    def test_zero_baseline_handled(self):
        entry = {
            "value": 0.0,
            "unit": "x",
            "gate": True,
            "higher_is_better": False,
        }
        base = {"name": "b", "entries": {"m": entry}}
        grown = {"name": "c", "entries": {"m": dict(entry, value=1.0)}}
        report = compare_artifacts(base, grown, threshold=2.0)
        assert report["regressions"] == ["m"]


class TestCollectStats:
    def test_instrumented_pass_populates_registry(self):
        metrics = collect_stats(scale=0.05)
        names = metrics.names()
        assert "engine.no_decay.ingest.tuples" in names
        assert "engine.unary_hh_no_decay.ingest.tuples" in names
        snap = metrics.snapshot()
        assert snap["metrics"]["engine.no_decay.ingest.rate"]["per_sec"] > 0

    def test_the_pass_records_nine_metrics_per_query(self):
        # process and flush are all the pass runs, so nothing else is
        # registered: a name no pass fills would render as an empty line.
        names = collect_stats(scale=0.05).names()
        queries = {name.split(".")[1] for name in names}
        assert len(queries) == 8
        assert {name.split(".", 2)[2] for name in names} == {
            "ingest.tuples",
            "ingest.selected",
            "ingest.rate",
            "ingest.latency_us",
            "low_table.evictions",
            "rows.emitted",
            "hot_keys",
            "state_bytes",
            "flush_us",
        }
        assert len(names) == 9 * len(queries)


class TestExactEntries:
    def _exact(self, value: float) -> dict:
        return {
            "value": value,
            "unit": "bool",
            "gate": True,
            "higher_is_better": True,
            "exact": True,
        }

    def test_exact_entry_regresses_on_any_difference(self):
        base = {"name": "b", "entries": {"m.merge_exact": self._exact(1.0)}}
        same = {"name": "c", "entries": {"m.merge_exact": self._exact(1.0)}}
        flipped = {"name": "c", "entries": {"m.merge_exact": self._exact(0.0)}}
        assert compare_artifacts(base, same)["regressions"] == []
        report = compare_artifacts(base, flipped)
        assert report["regressions"] == ["m.merge_exact"]
        # Even a generous threshold does not excuse an exact mismatch.
        lenient = compare_artifacts(base, flipped, threshold=100.0)
        assert lenient["regressions"] == ["m.merge_exact"]

    def test_exact_entry_ignores_threshold_direction(self):
        # "Improvements" on an exact entry are still differences.
        base = {"name": "b", "entries": {"m": self._exact(0.0)}}
        grown = {"name": "c", "entries": {"m": self._exact(1.0)}}
        assert compare_artifacts(base, grown)["regressions"] == ["m"]

    def test_exact_gate_label_in_report(self):
        base = {"name": "b", "entries": {"m": self._exact(1.0)}}
        report = compare_artifacts(base, base)
        assert "exact" in format_comparison(report)


class TestLimitEntries:
    def _limited(self, value: float, limit: float, **extra) -> dict:
        entry = {
            "value": value,
            "unit": "x",
            "gate": True,
            "higher_is_better": False,
            "limit": limit,
        }
        entry.update(extra)
        return entry

    def test_ceiling_crossed_regresses_inside_threshold(self):
        # 1.5 -> 2.2 is well inside a 2x relative threshold, but crosses
        # the absolute 2.0 ceiling — the contractual bound wins.
        base = {"name": "b", "entries": {"m": self._limited(1.5, 2.0)}}
        over = {"name": "c", "entries": {"m": self._limited(2.2, 2.0)}}
        report = compare_artifacts(base, over, threshold=2.0)
        assert report["regressions"] == ["m"]
        assert "REGRESSED" in format_comparison(report)

    def test_under_the_ceiling_passes(self):
        base = {"name": "b", "entries": {"m": self._limited(1.5, 2.0)}}
        near = {"name": "c", "entries": {"m": self._limited(1.9, 2.0)}}
        assert compare_artifacts(base, near, threshold=2.0)["regressions"] == []

    def test_floor_for_higher_is_better(self):
        base = {
            "name": "b",
            "entries": {
                "m": self._limited(1.4, 1.0, higher_is_better=True)
            },
        }
        above = {
            "name": "c",
            "entries": {
                "m": self._limited(1.1, 1.0, higher_is_better=True)
            },
        }
        below = {
            "name": "c",
            "entries": {
                "m": self._limited(0.9, 1.0, higher_is_better=True)
            },
        }
        assert compare_artifacts(base, above, threshold=2.0)["regressions"] == []
        assert compare_artifacts(base, below, threshold=2.0)["regressions"] == [
            "m"
        ]

    def test_relative_threshold_still_applies_inside_the_limit(self):
        # A 3x blowup regresses on the relative rule even though the
        # current value stays under a (loose) ceiling.
        base = {"name": "b", "entries": {"m": self._limited(1.0, 100.0)}}
        blown = {"name": "c", "entries": {"m": self._limited(3.0, 100.0)}}
        assert compare_artifacts(base, blown, threshold=2.0)["regressions"] == [
            "m"
        ]

    def test_ungated_entry_ignores_its_limit(self):
        entry = self._limited(5.0, 2.0, gate=False)
        base = {"name": "b", "entries": {"m": dict(entry)}}
        cur = {"name": "c", "entries": {"m": dict(entry, value=9.0)}}
        assert compare_artifacts(base, cur, threshold=2.0)["regressions"] == []

    def test_limit_survives_the_report_row(self):
        base = {"name": "b", "entries": {"m": self._limited(1.5, 2.0)}}
        report = compare_artifacts(base, base, threshold=2.0)
        (row,) = report["rows"]
        assert row["limit"] == 2.0


class TestCommittedBaselines:
    """The baselines CI gates against: smoke and state, nothing else."""

    BASELINES = (
        pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
    )

    def test_only_smoke_and_state_baselines_are_committed(self):
        assert sorted(p.name for p in self.BASELINES.glob("BENCH_*.json")) == [
            "BENCH_smoke.json",
            "BENCH_state.json",
        ]

    @pytest.mark.parametrize("name", ["smoke", "state"])
    def test_baseline_passes_its_own_gate(self, name):
        baseline = load_artifact(str(self.BASELINES / f"BENCH_{name}.json"))
        assert baseline["name"] == name
        assert compare_artifacts(baseline, baseline)["regressions"] == []

    def test_smoke_baseline_carries_the_source_line_ceiling(self):
        baseline = load_artifact(str(self.BASELINES / "BENCH_smoke.json"))
        entry = baseline["entries"]["loc.src"]
        assert entry["gate"] is True
        assert entry["higher_is_better"] is False
        assert entry["value"] <= entry["limit"]


class TestStateSuite:
    @pytest.fixture(scope="class")
    def state_artifact(self):
        from repro.bench.state import run_state_suite

        # Inline (no subprocesses) and tiny: enough groups that the 5%
        # hot tier forces spilling and fault-ins under pytest.
        return run_state_suite(
            name="test-state",
            groups=1_500,
            batch_size=500,
            inline=True,
        )

    def test_envelope_and_entries(self, state_artifact):
        assert state_artifact["version"] == ARTIFACT_VERSION
        entries = state_artifact["entries"]
        assert entries["state.groups"]["value"] == 1_500.0
        assert entries["state.cold.groups"]["value"] > 0
        assert entries["state.store.fault_ins"]["value"] > 0
        assert entries["state.ingest.store_rows_per_sec"]["value"] > 0
        assert entries["state.ingest.overhead"]["value"] > 0

    def test_store_flush_matches_ram_exactly(self, state_artifact):
        assert state_artifact["entries"]["state.match_ram"] == {
            "value": 1.0,
            "unit": "bool",
            "gate": True,
            "higher_is_better": True,
            "exact": True,
        }

    def test_hot_fraction_carries_the_ceiling(self, state_artifact):
        hot = state_artifact["entries"]["state.hot.fraction"]
        assert hot["gate"]
        assert hot["limit"] == 0.10
        assert hot["value"] <= 0.10

    def test_rss_ratio_report_only_below_contractual_scale(
        self, state_artifact
    ):
        assert not state_artifact["entries"]["state.rss.ratio"]["gate"]

    def test_directory_and_format_entries(self, state_artifact):
        entries = state_artifact["entries"]
        assert entries["state.store.directory_bytes"]["value"] > 0
        assert entries["state.store.directory_bytes"]["gate"]
        assert 0.0 <= entries["state.store.pressure"]["value"] <= 1.0
        assert not entries["state.store.pressure"]["gate"]
        bpg = entries["state.store.bytes_per_group"]
        assert bpg["value"] > 0
        # Below contractual scale segments never rotate, so the absolute
        # B/group ceiling is report-only (mirrors the RSS ratio).
        assert not bpg["gate"]

    def test_timing_entries_ungated(self, state_artifact):
        for name, entry in state_artifact["entries"].items():
            if name.endswith("rows_per_sec") or name.endswith("_ms"):
                assert not entry["gate"], name

    def test_self_comparison_passes_gate(self, state_artifact):
        report = compare_artifacts(state_artifact, state_artifact)
        assert report["regressions"] == []

    def test_rejects_bad_parameters(self):
        from repro.bench.state import run_state_suite

        with pytest.raises(ParameterError):
            run_state_suite(scale=0.0)
        with pytest.raises(ParameterError):
            run_state_suite(groups=100, hot_fraction=0.0)
        with pytest.raises(ParameterError):
            run_state_suite(groups=100, rows_per_group=0)

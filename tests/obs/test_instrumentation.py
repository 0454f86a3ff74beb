"""Conformance tests for hot-path instrumentation.

The non-negotiable property: attaching metrics NEVER changes results.
Instrumented, disabled-registry, and uninstrumented engines must emit
bit-identical rows over the same stream.
"""

from __future__ import annotations

import pytest

from repro.dsms.engine import QueryEngine, describe_partial_state
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry
from repro.obs.instrument import TimedUdaf
from repro.obs.registry import MetricsRegistry

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("srcIP", FieldType.STR),
        Field("destIP", FieldType.STR),
        Field("destPort", FieldType.INT),
        Field("len", FieldType.INT),
        Field("proto", FieldType.STR),
    ]
)

SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s from TCP "
    "where proto = 'tcp' group by time/60 as tb, destIP"
)


def make_rows(n: int = 500) -> list[tuple]:
    rows = []
    for i in range(n):
        rows.append(
            (
                i // 4,
                f"10.0.0.{i % 7}",
                f"192.168.0.{i % 5}",
                80 if i % 3 else 443,
                40 + (i * 13) % 1400,
                "tcp" if i % 10 else "udp",
            )
        )
    return rows


def run_engine(
    metrics=None, rows=None, batch: int | None = None, columnar: bool = False
):
    rows = make_rows() if rows is None else rows
    engine = QueryEngine(
        parse_query(SQL, default_registry()), SCHEMA, metrics=metrics
    )
    if batch is None:
        for row in rows:
            engine.process(row)
    else:
        for begin in range(0, len(rows), batch):
            chunk = rows[begin:begin + batch]
            if columnar:
                engine.insert_cols([list(col) for col in zip(*chunk)])
            else:
                engine.insert_many(chunk)
    return engine.flush()


class TestResultsUnchanged:
    def test_instrumented_results_bit_identical(self):
        metrics = MetricsRegistry(enabled=True)
        assert run_engine(metrics=metrics) == run_engine(metrics=None)

    def test_disabled_registry_results_bit_identical(self):
        disabled = MetricsRegistry(enabled=False)
        assert run_engine(metrics=disabled) == run_engine(metrics=None)

    def test_disabled_registry_leaves_engine_untouched(self):
        engine = QueryEngine(
            parse_query(SQL, default_registry()),
            SCHEMA,
            metrics=MetricsRegistry(enabled=False),
        )
        # No instance-level method shadowing, no UDAF wrapping.
        assert "process" not in engine.__dict__
        assert engine._obs is None
        plans = engine._agg_plans
        assert not any(isinstance(plan.udaf, TimedUdaf) for plan in plans)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_batched_instrumented_results_bit_identical(self, columnar):
        metrics = MetricsRegistry(enabled=True)
        observed = run_engine(metrics=metrics, batch=64, columnar=columnar)
        assert observed == run_engine(batch=64)

    def test_partial_state_codec_is_recorded_per_snapshot(self):
        metrics = MetricsRegistry(enabled=True)
        engine = QueryEngine(
            parse_query(SQL, default_registry()), SCHEMA, metrics=metrics
        )
        engine.insert_many(make_rows())
        blob = engine.partial_state_bytes()
        engine.merge_partial(blob)
        snap = metrics.snapshot()["metrics"]
        assert snap["engine.query.partial.encode_us"]["count"] == 1
        assert snap["engine.query.partial.decode_us"]["count"] == 1
        assert snap["engine.query.partial.bytes"]["value"] == len(blob)
        assert snap["engine.query.partial.groups"]["value"] == engine.group_count
        assert snap["engine.query.partial.summary_bytes"]["value"] == 0
        # Disabled registry: the snapshot path never looks at a clock.
        plain = QueryEngine(parse_query(SQL, default_registry()), SCHEMA)
        plain.insert_many(make_rows())
        assert plain.partial_state_bytes() == blob

    def test_partial_state_resume_instrumented(self):
        # An instrumented engine's snapshot resumes in an instrumented
        # fresh engine exactly like an uninterrupted plain run.
        rows = make_rows()
        donor = QueryEngine(
            parse_query(SQL, default_registry()), SCHEMA,
            metrics=MetricsRegistry(enabled=True),
        )
        for row in rows[:250]:
            donor.process(row)
        metrics = MetricsRegistry(enabled=True)
        resumed = QueryEngine(
            parse_query(SQL, default_registry()), SCHEMA, metrics=metrics
        )
        resumed.merge_partial(donor.partial_state_bytes())
        for row in rows[250:]:
            resumed.process(row)
        assert resumed.flush() == run_engine(rows=rows)
        snap = metrics.snapshot()["metrics"]
        assert snap["engine.query.partial.decode_us"]["count"] == 1

    def test_partial_state_reports_how_much_of_it_is_summary_buffers(self):
        metrics = MetricsRegistry(enabled=True)
        sql = (
            "select destIP, count(*) as c, unary_hh(len) as hh from TCP "
            "group by destIP"
        )
        engine = QueryEngine(
            parse_query(sql, default_registry()), SCHEMA, metrics=metrics
        )
        engine.insert_many(make_rows())
        blob = engine.partial_state_bytes()
        buffers = describe_partial_state(blob)["summaries"]
        snap = metrics.snapshot()["metrics"]
        sketch_bytes = snap["engine.query.partial.summary_bytes"]["value"]
        assert sketch_bytes == sum(slot["bytes"] for slot in buffers)
        assert 0.5 * len(blob) < sketch_bytes < len(blob)


class TestRecordedMetrics:
    def test_expected_metric_names_appear(self):
        metrics = MetricsRegistry(enabled=True)
        run_engine(metrics=metrics)
        names = metrics.names()
        for suffix in (
            "ingest.tuples",
            "ingest.selected",
            "ingest.rate",
            "ingest.latency_us",
            "rows.emitted",
            "hot_keys",
            "state_bytes",
            "flush_us",
        ):
            assert f"engine.query.{suffix}" in names

    def test_counts_match_engine_statistics(self):
        rows = make_rows()
        metrics = MetricsRegistry(enabled=True)
        run_engine(metrics=metrics, rows=rows)
        snap = metrics.snapshot()["metrics"]
        assert snap["engine.query.ingest.tuples"]["raw_total"] == len(rows)
        tcp = sum(1 for row in rows if row[5] == "tcp")
        assert snap["engine.query.ingest.selected"]["raw_total"] == tcp
        assert snap["engine.query.ingest.latency_us"]["count"] == len(rows)

    def test_emitted_counts_the_rows_each_flush_returns(self):
        metrics = MetricsRegistry(enabled=True)
        engine = QueryEngine(
            parse_query(SQL, default_registry()), SCHEMA, metrics=metrics
        )
        rows = make_rows()
        engine.insert_many(rows[:200])
        first = engine.flush()
        engine.insert_many(rows[200:])
        second = engine.flush()
        assert engine.flush() == []
        emitted = metrics.snapshot()["metrics"]["engine.query.rows.emitted"]
        assert emitted["raw_total"] == len(first) + len(second) > 0

    def test_hot_keys_track_group_keys_not_time_buckets(self):
        metrics = MetricsRegistry(enabled=True)
        run_engine(metrics=metrics)
        top = metrics.get("engine.query.hot_keys").top(5)
        keys = [key for key, _, _ in top]
        # Group is (tb, destIP); the tracker should surface destIPs.
        assert all(isinstance(key, str) and key.startswith("192.") for key in keys)

    @pytest.mark.parametrize("columnar", [False, True])
    def test_batch_entry_points_count_every_tuple_once(self, columnar):
        # insert_many reaches the insert_cols wrapper through the
        # transpose: both entry points are visible, neither counts twice.
        rows = make_rows()
        metrics = MetricsRegistry(enabled=True)
        run_engine(metrics=metrics, rows=rows, batch=64, columnar=columnar)
        snap = metrics.snapshot()["metrics"]
        assert snap["engine.query.ingest.tuples"]["raw_total"] == len(rows)
        tcp = sum(1 for row in rows if row[5] == "tcp")
        assert snap["engine.query.ingest.selected"]["raw_total"] == tcp
        batches = -(-len(rows) // 64)
        assert snap["engine.query.ingest.latency_us"]["count"] == batches
        top = metrics.get("engine.query.hot_keys").top(5)
        assert sum(weight for _, weight, _ in top) == pytest.approx(tcp)
        assert all(key.startswith("192.") for key, _, _ in top)

    def test_hot_keys_come_from_the_kernels_one_evaluation(self, monkeypatch):
        # The tracker is handed the keys insert_cols already made: the
        # batch plan runs once per batch, and an expression that raises
        # raises once.
        evaluations = []
        evaluate = QueryEngine._select_and_eval

        def counted(engine, cols, count):
            evaluations.append(count)
            return evaluate(engine, cols, count)

        monkeypatch.setattr(QueryEngine, "_select_and_eval", counted)
        rows = make_rows()
        metrics = MetricsRegistry(enabled=True)
        engine = QueryEngine(
            parse_query(SQL, default_registry()), SCHEMA, metrics=metrics
        )
        engine.insert_cols([list(col) for col in zip(*rows)])
        assert evaluations == [len(rows)]
        tcp = sum(1 for row in rows if row[5] == "tcp")
        top = metrics.get("engine.query.hot_keys").top(5)
        assert sum(weight for _, weight, _ in top) == pytest.approx(tcp)
        bad = [list(col) for col in zip(*rows[:8])]
        bad[0][3] = None  # time/60 on None raises inside the evaluation
        with pytest.raises(TypeError):
            engine.insert_cols(bad)
        assert evaluations == [len(rows), 8]

    @pytest.mark.parametrize("columnar", [False, True])
    def test_batched_path_records_batch_sizes_and_udaf_timings(self, columnar):
        metrics = MetricsRegistry(enabled=True)
        run_engine(metrics=metrics, batch=64, columnar=columnar)
        snap = metrics.snapshot()["metrics"]
        assert snap["engine.query.ingest.batch_size"]["p50"] == pytest.approx(
            64.0, rel=0.1
        )
        assert snap["engine.query.udaf.sum.update_many_us"]["count"] > 0
        assert snap["engine.query.udaf.sum.batched_items"]["raw_total"] > 0

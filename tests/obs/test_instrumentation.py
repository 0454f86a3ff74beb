"""Conformance tests for engine instrumentation.

The non-negotiable property: attaching metrics NEVER changes results.
Instrumented and uninstrumented engines must emit bit-identical rows over
the same stream, and ``time_query`` — the one place that instruments an
engine — attaches nothing for a disabled registry.
"""

from __future__ import annotations

from repro.bench.harness import time_query
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry
from repro.obs.instrument import EngineInstrumentation
from repro.obs.registry import MetricsRegistry
from repro.store.tiered import TieredStore

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


def build_engine(metrics=None, **options) -> QueryEngine:
    engine = QueryEngine(parse_query(SQL, default_registry()), SCHEMA, **options)
    if metrics is not None:
        EngineInstrumentation(engine, metrics, "query")
    return engine


def run_engine(metrics=None, rows=None):
    engine = build_engine(metrics)
    for row in make_rows() if rows is None else rows:
        engine.process(row)
    return engine.flush()


def run_time_query(metrics=None, rows=None):
    rows = make_rows() if rows is None else rows
    result = time_query("query", SQL, SCHEMA, default_registry(), rows, metrics=metrics)
    return result.results


class TestResultsUnchanged:
    def test_instrumented_results_bit_identical(self):
        metrics = MetricsRegistry(enabled=True)
        assert run_time_query(metrics=metrics) == run_time_query()
        assert "engine.query.ingest.tuples" in metrics

    def test_disabled_registry_results_bit_identical(self):
        disabled = MetricsRegistry(enabled=False)
        assert run_time_query(metrics=disabled) == run_time_query()
        assert len(disabled) == 0

    def test_disabled_registry_leaves_engine_untouched(self, monkeypatch):
        # time_query is the one place an engine is instrumented, and a
        # disabled registry does not reach it.
        def refuse(*_args):
            raise AssertionError("a disabled registry instrumented an engine")

        monkeypatch.setattr("repro.obs.instrument.EngineInstrumentation", refuse)
        run_time_query(metrics=MetricsRegistry(enabled=False))
        # No instance-level method shadowing on an engine nobody instruments.
        assert "process" not in build_engine().__dict__

    def test_partial_state_resume_instrumented(self):
        # An instrumented engine's snapshot resumes in an instrumented
        # fresh engine exactly like an uninterrupted plain run.
        rows = make_rows()
        donor = build_engine(MetricsRegistry(enabled=True))
        for row in rows[:250]:
            donor.process(row)
        resumed = build_engine(MetricsRegistry(enabled=True))
        resumed.merge_partial(donor.partial_state_bytes())
        for row in rows[250:]:
            resumed.process(row)
        assert resumed.flush() == run_engine(rows=rows)

    def test_a_store_backed_engine_is_wrapped_like_a_plain_one(self, tmp_path):
        # The store is a collaborator the engine calls: it replaces
        # neither the table nor process, so the wrappers wrap the class
        # method and count each selected tuple once.
        rows = make_rows(2_000)
        store = TieredStore(str(tmp_path / "s"), hot_groups=4)
        engine = build_engine(store=store)
        assert type(engine._high) is dict
        assert "process" not in vars(engine)
        metrics = MetricsRegistry(enabled=True)
        EngineInstrumentation(engine, metrics, "query")
        for row in rows:
            engine.process(row)
        stats = store.stats()
        assert stats["evictions"] > 0 and stats["fault_ins"] > 0
        assert engine.flush() == run_engine(rows=rows)
        selected = metrics.snapshot()["metrics"]["engine.query.ingest.selected"]
        assert selected["raw_total"] == sum(1 for row in rows if row[5] == "tcp")
        store.close()


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
        engine = build_engine(metrics)
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

    def test_every_metric_the_instrumented_pass_holds_is_recorded(self, low_table):
        # A metric no pass records is a name in `repro stats` that reads
        # nothing; the evictions counter needs a low table that fills.
        low_table(2)
        metrics = MetricsRegistry(enabled=True)
        run_time_query(metrics=metrics, rows=make_rows(2_000))
        snap = metrics.snapshot()["metrics"]
        empty = [
            name
            for name, entry in snap.items()
            if entry.get("count") == 0
            or entry.get("raw_total") == 0
            or ("value" in entry and entry["value"] is None)
            or entry.get("top") == []
        ]
        assert empty == []
        assert len(snap) == 9

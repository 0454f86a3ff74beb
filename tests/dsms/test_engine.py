"""Unit and integration tests for the two-level query engine."""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError
from repro.dsms.engine import QueryEngine, run_query
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry

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

ROWS = [
    (0, "s1", "h1", 80, 100, "tcp"),
    (10, "s2", "h1", 80, 150, "tcp"),
    (20, "s1", "h2", 443, 200, "udp"),
    (30, "s3", "h1", 80, 50, "tcp"),
    (70, "s1", "h1", 80, 300, "tcp"),  # second minute
]


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def results_by_key(query_text, rows=ROWS, registry=None, **engine_kwargs):
    registry = registry or default_registry()
    query = parse_query(query_text, registry)
    output = list(run_query(query, SCHEMA, rows, **engine_kwargs))
    return output


class TestGroupingAndAggregation:
    def test_count_per_group(self, registry):
        rows = results_by_key(
            "select tb, destIP, count(*) as c from TCP "
            "group by time/60 as tb, destIP"
        )
        table = {(r["tb"], r["destIP"]): r["c"] for r in rows}
        assert table == {(0, "h1"): 3, (0, "h2"): 1, (1, "h1"): 1}

    def test_multiple_aggregates_one_query(self, registry):
        rows = results_by_key(
            "select tb, count(*) as c, sum(len) as s, min(len) as lo, "
            "max(len) as hi, avg(len) as mean from TCP group by time/60 as tb"
        )
        first_minute = next(r for r in rows if r["tb"] == 0)
        assert first_minute["c"] == 4
        assert first_minute["s"] == 500
        assert first_minute["lo"] == 50
        assert first_minute["hi"] == 200
        assert first_minute["mean"] == pytest.approx(125.0)

    def test_where_filter(self, registry):
        rows = results_by_key(
            "select tb, count(*) as c from TCP where proto = 'tcp' "
            "group by time/60 as tb"
        )
        assert {r["tb"]: r["c"] for r in rows} == {0: 3, 1: 1}

    def test_no_group_by_single_group(self, registry):
        rows = results_by_key("select count(*) as c from TCP")
        assert rows == [{"c": 5}]

    def test_post_arithmetic_applied(self, registry):
        rows = results_by_key(
            "select tb, sum(len*(time % 60)*(time % 60))/3600 as s from TCP "
            "group by time/60 as tb"
        )
        by_bucket = {r["tb"]: r["s"] for r in rows}
        expected_0 = (
            100 * 0 + 150 * 100 + 200 * 400 + 50 * 900
        ) / 3600
        assert by_bucket[0] == pytest.approx(expected_0)
        assert by_bucket[1] == pytest.approx(300 * 100 / 3600)

    def test_select_group_expression_of_alias(self, registry):
        rows = results_by_key(
            "select tb * 60 as start, count(*) as c from TCP "
            "group by time/60 as tb"
        )
        assert {r["start"] for r in rows} == {0, 60}

    def test_select_non_grouped_column_rejected(self, registry):
        query = parse_query(
            "select len, count(*) from TCP group by time/60 as tb",
            registry,
        )
        engine = QueryEngine(query, SCHEMA)
        engine.process(ROWS[0])
        with pytest.raises(QueryError):
            engine.flush()


class TestTwoLevel:
    def test_two_level_equals_single_level(self, registry, low_table):
        low_table(2)
        text = (
            "select tb, destIP, count(*) as c, sum(len) as s from TCP "
            "group by time/60 as tb, destIP"
        )
        split = results_by_key(text, two_level=True)
        flat = results_by_key(text, two_level=False)
        key = lambda r: (r["tb"], r["destIP"])
        assert sorted(split, key=key) == sorted(flat, key=key)

    def test_eviction_counter_increments_on_tiny_table(self, registry, low_table):
        low_table(1)
        query = parse_query(
            "select destIP, count(*) as c from TCP group by destIP", registry
        )
        engine = QueryEngine(query, SCHEMA, two_level=True)
        for row in ROWS:
            engine.process(row)
        assert engine.low_evictions > 0
        results = {r["destIP"]: r["c"] for r in engine.flush()}
        assert results == {"h1": 4, "h2": 1}

    def test_non_mergeable_udaf_disables_split(self, registry):
        query = parse_query(
            "select tb, prisamp(srcIP, 1 + time) as samp from TCP "
            "group by time/60 as tb",
            registry,
        )
        engine = QueryEngine(query, SCHEMA, two_level=True)
        assert not engine.two_level  # UDAF runs at the high level only

    def test_mergeable_query_enables_split(self, registry):
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, two_level=True)
        assert engine.two_level


class TestBucketEmission:
    def test_buckets_emit_on_change(self, registry):
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, emit_on_bucket_change=True)
        for row in ROWS[:4]:  # all in minute 0
            engine.process(row)
        assert engine.drain() == []
        engine.process(ROWS[4])  # minute 1 arrives -> minute 0 closes
        emitted = engine.drain()
        assert emitted == [{"tb": 0, "c": 4}]
        assert engine.flush() == [{"tb": 1, "c": 1}]

    def test_heartbeat_closes_quiet_buckets(self, registry):
        """A heartbeat advances event time without contributing data."""
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, emit_on_bucket_change=True)
        for row in ROWS[:4]:  # minute 0 data, then the stream goes quiet
            engine.process(row)
        assert engine.drain() == []
        heartbeat_row = (65, "", "", 0, 0, "")  # minute 1, no payload
        engine.heartbeat(heartbeat_row)
        assert engine.drain() == [{"tb": 0, "c": 4}]
        # The heartbeat itself contributed nothing.
        assert engine.tuples_processed == 4
        assert engine.flush() == []

    def test_heartbeat_noop_without_bucket_emission(self, registry):
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, emit_on_bucket_change=False)
        engine.process(ROWS[0])
        engine.heartbeat((999, "", "", 0, 0, ""))
        assert engine.drain() == []

    def test_late_heartbeat_is_noop(self, registry):
        """A heartbeat lagging the current bucket must not split emission.

        Regression test: ``heartbeat`` used to flush on *any* bucket
        change, so a late heartbeat stamped in an already-closed bucket
        prematurely flushed the live bucket and its rows came out split.
        """
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, emit_on_bucket_change=True)
        engine.process((65, "s1", "h1", 80, 100, "tcp"))  # minute 1 opens
        engine.heartbeat((30, "", "", 0, 0, ""))  # late marker in minute 0
        assert engine.drain() == []  # minute 1 stays open
        engine.process((70, "s2", "h1", 80, 100, "tcp"))  # more minute-1 data
        assert engine.flush() == [{"tb": 1, "c": 2}]  # one row, not split

    def test_heartbeat_matches_heartbeat_free_run(self, registry):
        """Interleaving heartbeats never changes the emitted rows."""
        sql = "select tb, count(*) as c from TCP group by time/60 as tb"
        data = [
            (0, "s1", "h1", 80, 100, "tcp"),
            (65, "s2", "h1", 80, 100, "tcp"),
            (70, "s1", "h2", 443, 100, "tcp"),
            (130, "s3", "h1", 80, 100, "tcp"),
        ]
        plain = QueryEngine(
            parse_query(sql, registry), SCHEMA, emit_on_bucket_change=True
        )
        noisy = QueryEngine(
            parse_query(sql, registry), SCHEMA, emit_on_bucket_change=True
        )
        for row in data:
            plain.process(row)
            noisy.process(row)
            # Duplicate, equal, and *late* heartbeats after every tuple.
            noisy.heartbeat((row[0], "", "", 0, 0, ""))
            noisy.heartbeat((max(0, row[0] - 120), "", "", 0, 0, ""))
        assert plain.drain() + plain.flush() == noisy.drain() + noisy.flush()

    def test_heartbeat_same_bucket_is_noop(self, registry):
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, emit_on_bucket_change=True)
        engine.process(ROWS[0])
        engine.heartbeat((ROWS[0][0] + 1, "", "", 0, 0, ""))  # same minute
        assert engine.drain() == []

    def test_heartbeat_before_any_data(self, registry):
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        engine = QueryEngine(query, SCHEMA, emit_on_bucket_change=True)
        engine.heartbeat((5, "", "", 0, 0, ""))
        engine.process(ROWS[0])
        engine.process(ROWS[4])
        assert engine.drain() == [{"tb": 0, "c": 1}]

    def test_run_query_streams_buckets(self, registry):
        query = parse_query(
            "select tb, count(*) as c from TCP group by time/60 as tb", registry
        )
        output = list(run_query(query, SCHEMA, ROWS))
        assert output == [{"tb": 0, "c": 4}, {"tb": 1, "c": 1}]


class TestStatistics:
    def test_tuple_counters(self, registry):
        query = parse_query(
            "select count(*) as c from TCP where proto = 'tcp'", registry
        )
        engine = QueryEngine(query, SCHEMA)
        for row in ROWS:
            engine.process(row)
        assert engine.tuples_processed == 5
        assert engine.tuples_selected == 4

    def test_state_size_accounting(self, registry):
        query = parse_query(
            "select destIP, count(*) as c from TCP group by destIP", registry
        )
        engine = QueryEngine(query, SCHEMA, two_level=False)
        for row in ROWS:
            engine.process(row)
        assert engine.group_count == 2
        assert engine.state_size_bytes() == 2 * 4  # 4-byte count per group
        assert engine.state_size_per_group() == pytest.approx(4.0)

    def test_empty_select_rejected(self, registry):
        from repro.dsms.parser import Query

        with pytest.raises(QueryError):
            QueryEngine(Query(select=(), stream="S"), SCHEMA)


class TestOutOfOrderIntegration:
    """Section VI-B at system level: forward-decayed GSQL results are
    independent of arrival order within a bucket."""

    def test_decayed_sum_invariant_to_arrival_order(self):
        import random as random_module

        registry = default_registry()
        sql = (
            "select tb, destIP, sum(len*(time % 60)*(time % 60))/3600 as s "
            "from TCP group by time/60 as tb, destIP"
        )
        query = parse_query(sql, registry)
        rows = [
            (t % 60, "s", f"h{t % 7}", 80, 100 + t, "tcp") for t in range(200)
        ]
        shuffled = list(rows)
        random_module.Random(3).shuffle(shuffled)

        def run(batch):
            engine = QueryEngine(query, SCHEMA)
            for row in batch:
                engine.process(row)
            return {
                (r["tb"], r["destIP"]): pytest.approx(r["s"])
                for r in engine.flush()
            }

        assert run(rows) == run(shuffled)

    def test_backward_eh_rejects_out_of_order(self):
        """The baseline's limitation, reproduced: EH needs ordered input."""
        from repro.core.errors import ParameterError

        registry = default_registry()
        query = parse_query(
            "select tb, eh_count(time) as c from TCP group by time/60 as tb",
            registry,
        )
        engine = QueryEngine(query, SCHEMA)
        engine.process((10, "s", "h", 80, 1, "tcp"))
        with pytest.raises(ParameterError):
            engine.process((5, "s", "h", 80, 1, "tcp"))


class TestUdafIntegration:
    def test_forward_hh_through_engine(self):
        registry = default_registry(hh_epsilon=0.1, hh_phi=0.2)
        rows = [(t, "s", "hot" if t % 2 else f"cold{t}", 80, 10, "tcp")
                for t in range(1, 41)]
        output = results_by_key(
            "select tb, fwd_hh(destIP, (time % 60)*(time % 60)) as hh from TCP "
            "group by time/60 as tb",
            rows=rows,
            registry=registry,
        )
        hitters = output[0]["hh"]
        assert hitters[0][0] == "hot"

    def test_eh_count_through_engine(self):
        registry = default_registry(eh_epsilon=0.2)
        rows = [(t, "s", "h", 80, 10, "tcp") for t in range(50)]
        output = results_by_key(
            "select tb, eh_count(time) as c from TCP group by time/60 as tb",
            rows=rows,
            registry=registry,
        )
        assert output[0]["c"] == pytest.approx(50, rel=0.3)


class TestInsertMany:
    """Batched ingestion must reproduce per-tuple processing exactly."""

    QUERY = (
        "select tb, destIP, destPort, count(*) as c, "
        "sum(len * (time % 60) * (time % 60)) as s "
        "from TCP group by time/60 as tb, destIP, destPort"
    )

    @staticmethod
    def make_rows(n=3000, seed=5):
        import random

        rng = random.Random(seed)
        return [
            (
                t // 10,
                f"s{rng.randrange(4)}",
                f"h{rng.randrange(40)}",
                rng.choice((80, 443, 8080)),
                rng.randrange(40, 1500),
                rng.choice(("tcp", "tcp", "udp")),
            )
            for t in range(n)
        ]

    def engines(self, registry, **kwargs):
        query = parse_query(self.QUERY, registry)
        return (
            QueryEngine(query, SCHEMA, **kwargs),
            QueryEngine(query, SCHEMA, **kwargs),
        )

    @pytest.mark.parametrize("batch_size", [1, 7, 256, 10_000])
    def test_identical_to_process(self, registry, batch_size):
        rows = self.make_rows()
        per_tuple, batched = self.engines(registry)
        for row in rows:
            per_tuple.process(row)
        for begin in range(0, len(rows), batch_size):
            batched.insert_many(rows[begin : begin + batch_size])
        assert batched.tuples_processed == per_tuple.tuples_processed
        assert batched.tuples_selected == per_tuple.tuples_selected
        assert batched.flush() == per_tuple.flush()

    def test_identical_under_eviction_pressure(self, registry, low_table):
        # A tiny low-level table forces constant evictions; results (and
        # every float in them) must still match bit for bit.
        low_table(8)
        rows = self.make_rows()
        per_tuple, batched = self.engines(registry)
        for row in rows:
            per_tuple.process(row)
        for begin in range(0, len(rows), 64):
            batched.insert_many(rows[begin : begin + 64])
        assert batched.low_evictions == per_tuple.low_evictions
        assert batched.flush() == per_tuple.flush()

    def test_identical_with_bucket_emission(self, registry):
        rows = self.make_rows()
        per_tuple, batched = self.engines(registry, emit_on_bucket_change=True)
        drained_tuple, drained_batch = [], []
        for row in rows:
            per_tuple.process(row)
            drained_tuple.extend(per_tuple.drain())
        # Batch boundaries deliberately misaligned with bucket boundaries.
        for begin in range(0, len(rows), 97):
            batched.insert_many(rows[begin : begin + 97])
            drained_batch.extend(batched.drain())
        drained_tuple.extend(per_tuple.flush())
        drained_batch.extend(batched.flush())
        assert drained_batch == drained_tuple

    def test_identical_single_level(self, registry):
        rows = self.make_rows(n=800)
        per_tuple, batched = self.engines(registry, two_level=False)
        for row in rows:
            per_tuple.process(row)
        batched.insert_many(rows)
        assert batched.flush() == per_tuple.flush()

    def test_accepts_generators(self, registry):
        rows = self.make_rows(n=200)
        per_tuple, batched = self.engines(registry)
        for row in rows:
            per_tuple.process(row)
        batched.insert_many(iter(rows))
        assert batched.flush() == per_tuple.flush()

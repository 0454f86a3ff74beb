"""Engine partial-state snapshots: the shard-merge half of Section VI-B.

``QueryEngine.partial_state_bytes()`` / ``merge_partial()`` are what
``repro.parallel`` ships between shard workers and the merge site, so
these tests pin down the contract: a snapshot restored into a fresh
engine and merged with the other substreams' snapshots must equal
direct single-engine ingestion.
"""

from __future__ import annotations

import pytest

from repro.core.errors import MergeError
from repro.core.merge import merge_all
from repro.core.serde import PARTIAL_STATE, head
from repro.dsms.engine import PARTIAL_STATE_VERSION, QueryEngine
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

COUNT_SUM_SQL = (
    "select tb, destIP, count(*) as c, sum(len) as s, min(len) as lo, "
    "max(len) as hi, avg(len) as mean from TCP "
    "group by time/60 as tb, destIP"
)


def make_rows(n: int = 200) -> list[tuple]:
    rows = []
    for i in range(n):
        rows.append(
            (
                i,
                f"s{i % 7}",
                f"h{i % 13}",
                80 if i % 3 else 443,
                50 + (i * 37) % 400,
                "tcp",
            )
        )
    return rows


def build_engine(sql: str = COUNT_SUM_SQL, **kwargs) -> QueryEngine:
    query = parse_query(sql, default_registry())
    return QueryEngine(query, SCHEMA, **kwargs)


def ingest_all(engine: QueryEngine, rows) -> QueryEngine:
    engine.insert_many(rows)
    return engine


class TestRoundTrip:
    def test_snapshot_restore_equals_direct(self):
        rows = make_rows()
        direct = ingest_all(build_engine(), rows)

        snapshot = ingest_all(build_engine(), rows).partial_state_bytes()
        restored = build_engine()
        restored.merge_partial(memoryview(bytearray(snapshot)))

        assert restored.flush() == direct.flush()

    def test_bytes_round_trip_equals_direct(self):
        rows = make_rows()
        direct = ingest_all(build_engine(), rows)

        blob = ingest_all(build_engine(), rows).partial_state_bytes()
        assert blob[:5] == head(PARTIAL_STATE)
        assert blob[4] == PARTIAL_STATE_VERSION
        restored = build_engine()
        restored.merge_partial(blob)

        assert restored.flush() == direct.flush()
        assert restored.tuples_processed == direct.tuples_processed

    def test_split_streams_merge_equals_union(self):
        rows = make_rows()
        whole = ingest_all(build_engine(), rows)

        shards = [build_engine() for __ in range(3)]
        for index, row in enumerate(rows):
            shards[index % 3].process(row)
        collector = build_engine()
        for shard in shards:
            collector.merge_partial(shard.partial_state_bytes())

        # count/sum/min/max/avg over integer values: exact, any partition.
        assert collector.flush() == whole.flush()

    def test_snapshot_is_non_destructive(self):
        rows = make_rows()
        engine = ingest_all(build_engine(), rows[:100])
        engine.partial_state_bytes()  # mid-stream snapshot
        engine.insert_many(rows[100:])
        assert engine.flush() == ingest_all(build_engine(), rows).flush()


class TestTwoLevel:
    def test_two_level_with_forced_evictions(self, low_table):
        low_table(2)
        rows = make_rows(300)
        direct = ingest_all(build_engine(), rows)

        donor = ingest_all(build_engine(two_level=True), rows)
        assert donor.low_evictions > 0  # the snapshot drains a hot low table
        restored = build_engine()
        restored.merge_partial(donor.partial_state_bytes())

        assert restored.flush() == direct.flush()
        assert restored.low_evictions == donor.low_evictions

    def test_one_level_snapshot_matches_two_level(self):
        rows = make_rows()
        one = ingest_all(build_engine(), rows)
        two = ingest_all(build_engine(two_level=True), rows)
        assert two.two_level and two.low_evictions == 0
        assert one.partial_state_bytes() == two.partial_state_bytes()


class TestSketchStates:
    def test_sketch_backed_aggregate_round_trip(self):
        sql = (
            "select destPort, fwd_hh(destIP, len) as hh from TCP "
            "group by destPort"
        )
        rows = make_rows(400)
        direct = ingest_all(build_engine(sql), rows)

        blob = ingest_all(build_engine(sql), rows).partial_state_bytes()
        restored = build_engine(sql)
        restored.merge_partial(blob)

        assert restored.flush() == direct.flush()

    @pytest.mark.parametrize(
        "sql, table_size",
        [
            ("select proto, prisamp(destIP, 1 + time) as samp from TCP "
             "group by proto", None),
            (COUNT_SUM_SQL, None),
            (COUNT_SUM_SQL, 2),
            ("select destPort, fwd_hh(destIP, len) as hh from TCP "
             "group by destPort", None),
            pytest.param(
                "select tb, prisamp(destIP, 1 + time) as samp from TCP "
                "group by time/100 as tb", None,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="a group first seen after the split keys its "
                    "generator from a per-UDAF creation counter the "
                    "partial-state blob does not carry",
                ),
            ),
        ],
        ids=["sampler", "count-sum", "count-sum-two-level", "sketch",
             "sampler-group-after-split"],
    )
    def test_sampler_query_resumes_exactly(self, sql, table_size, low_table):
        # RNG state rides in the summary payload: a fresh engine resumed
        # from a mid-stream snapshot draws the same sample.
        options = {}
        if table_size is not None:
            low_table(table_size)
            options["two_level"] = True
        rows = make_rows(300)
        uninterrupted = ingest_all(build_engine(sql, **options), rows)
        first_half = ingest_all(build_engine(sql, **options), rows[:150])
        resumed = build_engine(sql, **options)
        resumed.merge_partial(first_half.partial_state_bytes())
        assert ingest_all(resumed, rows[150:]).flush() == uninterrupted.flush()
        if table_size is not None:
            assert uninterrupted.low_evictions > 0

    def test_sketch_shard_merge_within_error(self):
        # SpaceSaving merge is approximate in general; on a stream small
        # enough to fit every item in the counters it is exact.
        sql = "select proto, unary_hh(destIP) as hh from TCP group by proto"
        rows = make_rows(300)
        whole = ingest_all(build_engine(sql), rows)

        shards = [build_engine(sql) for __ in range(2)]
        for index, row in enumerate(rows):
            shards[index % 2].process(row)
        collector = build_engine(sql)
        for shard in shards:
            collector.merge_partial(shard.partial_state_bytes())

        # Counts are exact; ties within equal counts may order differently
        # after a merge (heavy_hitters sorts by count only).
        merged = {r["proto"]: sorted(r["hh"]) for r in collector.flush()}
        single = {r["proto"]: sorted(r["hh"]) for r in whole.flush()}
        assert merged == single


class TestEnginesAreMergeable:
    def test_merge_all_over_engines(self):
        rows = make_rows()
        whole = ingest_all(build_engine(), rows)

        shards = [build_engine() for __ in range(4)]
        for index, row in enumerate(rows):
            shards[index % 4].process(row)
        combined = merge_all(shards)

        assert combined is shards[0]
        assert combined.flush() == whole.flush()

    def test_merge_rejects_non_engine(self):
        with pytest.raises(MergeError, match="cannot merge"):
            build_engine().merge(object())


class TestRejection:
    def test_rejects_other_query(self):
        donor = build_engine("select destIP, count(*) as c from TCP "
                             "group by destIP")
        donor.process(make_rows(1)[0])
        with pytest.raises(MergeError, match="different query"):
            build_engine().merge_partial(donor.partial_state_bytes())

    def test_rejects_other_schema(self):
        wider = Schema([*SCHEMA.fields, Field("flags", FieldType.INT)])
        query = parse_query(COUNT_SUM_SQL, default_registry())
        donor = QueryEngine(query, wider)
        with pytest.raises(MergeError, match="different schema"):
            build_engine().merge_partial(donor.partial_state_bytes())

    def test_rejects_empty_buffer(self):
        with pytest.raises(MergeError, match="truncated at offset 0"):
            build_engine().merge_partial(b"")

    def test_rejects_malformed_body(self):
        with pytest.raises(MergeError, match="truncated"):
            build_engine().merge_partial(
                head(PARTIAL_STATE) + b"{not json"
            )

    def test_incompatible_sketch_parameters_raise(self):
        sql = "select proto, fwd_hh(destIP, len) as hh from TCP group by proto"
        query_a = parse_query(sql, default_registry(hh_epsilon=0.01))
        query_b = parse_query(sql, default_registry(hh_epsilon=0.1))
        left = QueryEngine(query_a, SCHEMA)
        right = QueryEngine(query_b, SCHEMA)
        for row in make_rows(50):
            left.process(row)
            right.process(row)
        # Same query text, different sketch capacity: the summary-level
        # compatibility check must catch it at merge time.
        with pytest.raises(MergeError, match="capacity mismatch"):
            left.merge_partial(right.partial_state_bytes())


class TestCounters:
    @pytest.mark.parametrize(
        "split", [80, 0, 200], ids=["merge", "fresh-resume", "empty-donor"]
    )
    def test_counters_accumulate(self, split):
        rows = make_rows()
        left = ingest_all(build_engine(), rows[:split])
        right = ingest_all(build_engine(), rows[split:])
        left.merge_partial(right.partial_state_bytes())
        assert left.tuples_processed == len(rows)
        assert left.tuples_selected == len(rows)

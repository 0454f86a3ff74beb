"""Unit and integration tests for the two-level query engine."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
        with pytest.raises(QueryError, match="non-grouped columns"):
            QueryEngine(query, SCHEMA)

    def test_a_non_grouped_select_item_fails_before_any_row(self, registry):
        query = parse_query(
            "select destIP, len*2 as x, count(*) as c from TCP "
            "group by destIP",
            registry,
        )
        with pytest.raises(
            QueryError, match=r"select item 'x' references non-grouped columns \['len'\]"
        ):
            list(run_query(query, SCHEMA, []))


class TestPlainSelectItems:
    """A select item that is neither an aggregate nor a GROUP BY alias is
    a function of the group key: compiled over the aliases when the engine
    is built, evaluated once per finished group."""

    @pytest.mark.parametrize(
        "sql, refusal",
        [
            pytest.param(
                "select destIP, len as l, count(*) as c from TCP group by destIP",
                r"select item 'l' references non-grouped columns \['len'\]",
                id="bare-column",
            ),
            pytest.param(
                "select tb, time % 60 as sec, count(*) as c from TCP "
                "group by time/60 as tb",
                r"select item 'sec' references non-grouped columns \['time'\]",
                id="input-of-a-group-expression",
            ),
            pytest.param(
                "select destIP, len + destPort as x, count(*) as c from TCP "
                "group by destIP",
                r"select item 'x' references non-grouped columns "
                r"\['destPort', 'len'\]",
                id="two-columns-sorted",
            ),
            pytest.param(
                "select tb, tb + len as x, count(*) as c from TCP "
                "group by time/60 as tb",
                r"select item 'x' references non-grouped columns \['len'\]",
                id="alias-and-column",
            ),
        ],
    )
    def test_a_non_grouped_column_is_refused_when_built(
        self, registry, sql, refusal
    ):
        query = parse_query(sql, registry)
        with pytest.raises(QueryError, match=refusal):
            QueryEngine(query, SCHEMA)

    def test_an_aggregate_alias_is_not_a_group_alias(self, registry):
        query = parse_query(
            "select destIP, count(*) as c, c * 2 as d from TCP group by destIP",
            registry,
        )
        with pytest.raises(
            QueryError, match="'c' is neither a stream field nor a GROUP BY alias"
        ):
            QueryEngine(query, SCHEMA)

    def test_the_first_offending_item_is_named(self, registry):
        query = parse_query(
            "select destIP, srcIP as a, len as b, count(*) as c from TCP "
            "group by destIP",
            registry,
        )
        with pytest.raises(QueryError, match=r"select item 'a' .*\['srcIP'\]"):
            QueryEngine(query, SCHEMA)

    def test_a_constant_item_is_the_same_in_every_group(self, registry):
        rows = results_by_key(
            "select destIP, 3 + 4 as seven, count(*) as c from TCP "
            "group by destIP"
        )
        assert len(rows) == 3  # h1 / h2 / h1 runs of the first key
        assert {r["seven"] for r in rows} == {7}

    def test_an_item_over_two_group_aliases(self, registry):
        rows = results_by_key(
            "select tb, destPort, tb * 1000 + destPort as k, count(*) as c "
            "from TCP group by time/60 as tb, destPort"
        )
        assert sorted(r["k"] for r in rows) == [80, 443, 1080]
        for r in rows:
            assert r["k"] == r["tb"] * 1000 + r["destPort"]

    def test_having_filters_on_a_plain_item(self, registry):
        rows = results_by_key(
            "select tb * 60 as start, count(*) as c from TCP "
            "group by time/60 as tb having start > 0"
        )
        assert [(r["start"], r["c"]) for r in rows] == [(60, 1)]

    def test_order_by_sorts_on_a_plain_item(self, registry):
        query = parse_query(
            "select tb * 60 as start, count(*) as c from TCP "
            "group by time/60 as tb order by start desc",
            registry,
        )
        engine = QueryEngine(query, SCHEMA)
        engine.insert_many(ROWS)
        assert [r["start"] for r in engine.flush()] == [60, 0]

    def test_a_sharded_engine_refuses_it_when_built(self):
        from repro.parallel.sharded import ShardedEngine

        with pytest.raises(
            QueryError, match=r"select item 'x' references non-grouped"
        ):
            ShardedEngine(
                "select destIP, len*2 as x, count(*) as c from TCP "
                "group by destIP",
                SCHEMA, shards=2, processes=0,
            )

    def test_plain_items_are_evaluated_after_a_partial_merge(self, registry):
        query = parse_query(
            "select tb, destIP, tb * 60 as start, sum(len) as s from TCP "
            "group by time/60 as tb, destIP",
            registry,
        )
        donor = QueryEngine(query, SCHEMA)
        donor.insert_many(ROWS)
        collector = QueryEngine(query, SCHEMA)
        collector.merge_partial(donor.partial_state_bytes())
        rows = sorted(collector.flush(), key=lambda r: (r["tb"], r["destIP"]))
        assert [(r["start"], r["destIP"], r["s"]) for r in rows] == [
            (0, "h1", 300), (0, "h2", 200), (60, "h1", 300),
        ]


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
    """``run_query`` closes a bucket whenever the first GROUP BY key of a
    row that passes WHERE differs from the last one's."""

    BUCKET_SQL = "select tb, count(*) as c from TCP group by time/60 as tb"

    def test_buckets_emit_on_change(self, registry):
        query = parse_query(self.BUCKET_SQL, registry)
        fed = []

        def stream():
            for row in ROWS:
                fed.append(row)
                yield row

        output = run_query(query, SCHEMA, stream())
        # Minute 0 closes when minute 1's tuple arrives, not before.
        assert next(output) == {"tb": 0, "c": 4}
        assert fed == ROWS
        assert list(output) == [{"tb": 1, "c": 1}]

    def test_run_query_streams_buckets(self, registry):
        query = parse_query(self.BUCKET_SQL, registry)
        output = list(run_query(query, SCHEMA, ROWS))
        assert output == [{"tb": 0, "c": 4}, {"tb": 1, "c": 1}]

    def test_nan_buckets_close_in_stream_order(self, registry):
        """A first key that is not equal to itself is its own bucket
        unless it is the very same object, as a dict key is."""
        schema = Schema([Field("ts", FieldType.FLOAT), Field("v", FieldType.INT)])
        query = parse_query(
            "select tb, count(*) as c from S group by ts as tb", registry
        )
        nan = float("nan")
        rows = [(1.0, 1), (nan, 2), (nan, 3), (2.0, 4), (float("nan"), 5)]
        output = [(row["tb"], row["c"]) for row in run_query(query, schema, rows)]
        assert repr(output) == repr([(1.0, 1), (nan, 2), (2.0, 1), (nan, 1)])

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 3), st.sampled_from("abc"), st.integers(0, 9)
            ),
            max_size=40,
        ),
        where=st.sampled_from([None, 3]),
        tail=st.sampled_from(["", " having c > 1", " limit 2",
                              " having s > 4 order by s desc limit 1"]),
        two_level=st.booleans(),
    )
    def test_equals_one_flush_per_run_of_a_first_key(
        self, registry, low_table, rows, where, tail, two_level
    ):
        low_table(3)
        schema = Schema([
            Field("tb", FieldType.INT), Field("k", FieldType.STR),
            Field("v", FieldType.INT),
        ])
        query = parse_query(
            "select tb, k, count(*) as c, sum(v) as s from S"
            + (f" where v > {where}" if where is not None else "")
            + " group by tb, k" + tail,
            registry,
        )
        passing = [row for row in rows if where is None or row[2] > where]
        expected = []
        for _tb, run in itertools.groupby(passing, key=lambda row: row[0]):
            engine = QueryEngine(query, schema, two_level=two_level)
            for row in run:
                engine.process(row)
            expected.extend(engine.flush())
        assert list(run_query(query, schema, rows, two_level)) == expected


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

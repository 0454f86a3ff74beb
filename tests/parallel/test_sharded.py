"""Sharded multi-core ingestion: correctness, lifecycle, and the worker
protocol.

The load-bearing property (the paper's Section VI-B): the sharded result
must equal the single-engine result — exactly for commutative exact
aggregates, regardless of how tuples were partitioned.  Inline mode
(``processes=0``) runs the full routing/batching/serde-merge pipeline in
one process, so that equality is pinned deterministically; a couple of
small real-process tests cover the IPC layer itself.
"""

from __future__ import annotations

import queue

import pytest

from repro.core.cols import pack_cols, rows_to_cols
from repro.core.errors import ParameterError, QueryError
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry
from repro.parallel import (
    ShardedEngine,
    ShardPlan,
    pipe,
    shard_worker_main,
    stable_route,
)

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
    "select tb, destIP, count(*) as c, sum(len) as s from TCP "
    "group by time/60 as tb, destIP"
)


def make_rows(n: int = 600) -> list[tuple]:
    rows = []
    for i in range(n):
        rows.append(
            (
                i % 180,
                f"s{i % 5}",
                f"h{i % 17}",
                80 if i % 4 else 443,
                40 + (i * 31) % 500,
                "tcp" if i % 6 else "udp",
            )
        )
    return rows


def unsharded(sql: str, rows) -> list:
    engine = QueryEngine(parse_query(sql, default_registry()), SCHEMA)
    engine.insert_many(rows)
    return engine.flush()


class TestInlineEquivalence:
    def test_count_sum_exact_match(self):
        rows = make_rows()
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=4, processes=0
        ) as engine:
            for start in range(0, len(rows), 64):
                engine.insert_many(rows[start:start + 64])
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)

    def test_single_shard_matches(self):
        rows = make_rows(100)
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=1, processes=0
        ) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)

    def test_min_max_avg_where_clause(self):
        sql = (
            "select destPort, min(len) as lo, max(len) as hi, "
            "avg(len) as mean from TCP where proto = 'tcp' "
            "group by destPort"
        )
        rows = make_rows()
        with ShardedEngine(sql, SCHEMA, shards=3, processes=0) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(sql, rows)

    def test_sketch_backed_aggregate_matches(self):
        # Small key population: SpaceSaving never evicts, so the shard
        # merge is exact and must equal the single-engine run.
        sql = (
            "select proto, fwd_hh(destIP, len) as hh from TCP "
            "group by proto"
        )
        rows = make_rows(400)
        with ShardedEngine(sql, SCHEMA, shards=4, processes=0) as engine:
            engine.insert_many(rows)
            merged = {r["proto"]: sorted(r["hh"]) for r in engine.query()}
        single = {r["proto"]: sorted(r["hh"]) for r in unsharded(sql, rows)}
        assert merged == single

    def test_merge_at_query_reflects_later_ingest(self):
        rows = make_rows()
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            engine.insert_many(rows[:300])
            early = engine.query()
            assert early == unsharded(COUNT_SUM_SQL, rows[:300])
            engine.insert_many(rows[300:])
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)
            # Querying is repeatable: workers keep state.
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)


class TestRouting:
    def test_an_unkeyed_query_is_one_group_on_one_shard(self):
        # No GROUP BY: every row carries the one key (), placed like any
        # other, so the group is never split and its float sums are the
        # single engine's to the bit.
        sql = "select count(*) as c, sum(len * 0.1) as s, avg(len * 0.1) as a from TCP"
        rows = make_rows(101)
        with ShardedEngine(sql, SCHEMA, shards=4, processes=0) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(sql, rows)
            blobs = engine.partial_states()
            counts = engine.close()["tuples_per_shard"]
        assert sorted(counts) == [0, 0, 0, len(rows)]
        build = ShardPlan(sql=sql, schema=SCHEMA).build_engine
        whole, collector = build(), build()
        whole.insert_many(rows)
        for blob in blobs:
            collector.merge_partial(blob)
        assert collector.partial_state_bytes() == whole.partial_state_bytes()

    def test_every_spelling_of_a_group_has_one_shard(self):
        # The engine's table holds each list as one group, so the router
        # must place its spellings together: by group_id, not by repr.
        for shards in (2, 3, 7):
            for spellings in ([(0.0, "h"), (-0.0, "h"), (0, "h")],
                              [(1,), (1.0,), (True,)]):
                assert len({stable_route(k, shards) for k in spellings}) == 1

    def test_stable_route_is_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for key in [("a", 1), ("host-7",), (42,), (0, "h", 443)]:
                shard = stable_route(key, shards)
                assert 0 <= shard < shards
                assert shard == stable_route(key, shards)


class TestValidation:
    def test_rejects_bad_shards(self):
        with pytest.raises(ParameterError, match="shards"):
            ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=0)

    def test_rejects_partial_process_counts(self):
        with pytest.raises(ParameterError, match="processes"):
            ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=4, processes=2)

    def test_rejects_sampler_queries(self):
        with pytest.raises(QueryError, match="unmergeable"):
            ShardedEngine(
                "select tb, reservoir(srcIP) as sample from TCP "
                "group by time/60 as tb",
                SCHEMA,
                processes=0,
            )

    def test_rejects_invalid_query_up_front(self):
        with pytest.raises(QueryError):
            ShardedEngine(
                "select nosuchcol, count(*) as c from TCP group by nosuchcol",
                SCHEMA,
                processes=0,
            )


class TestLifecycle:
    def test_close_accounts_every_routed_tuple(self):
        rows = make_rows(250)
        engine = ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=3, processes=0)
        engine.insert_many(rows)
        assert engine.rows_routed == len(rows)
        counts = engine.close()["tuples_per_shard"]
        assert sum(counts) == len(rows)

    def test_close_is_idempotent(self):
        # Regression: a second close() used to drop the counts and return
        # an empty list; now it returns the first call's cached result.
        engine = ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=2, processes=0)
        engine.insert_many(make_rows(40))
        first = engine.close()
        assert sum(first["tuples_per_shard"]) == 40
        assert engine.close() == first

    def test_exit_after_explicit_close_is_noop(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            engine.insert_many(make_rows(25))
            stats = engine.close()
        # __exit__ ran close() again: no raise, cached counts intact.
        assert engine.close() == stats
        assert sum(stats["tuples_per_shard"]) == 25

    def test_operations_after_close_raise(self):
        engine = ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=2, processes=0)
        engine.close()
        with pytest.raises(QueryError, match="closed"):
            engine.insert_many(make_rows(1))
        with pytest.raises(QueryError, match="closed"):
            engine.query()

    def test_stats_count_the_rows_routed(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0
        ) as engine:
            engine.insert_many(make_rows(10))
            stats = engine.stats()
            assert stats["rows_routed"] == 10
            assert stats["inline"] is True
            engine.insert_many(make_rows(5))
            stats = engine.stats()
            assert stats["rows_routed"] == 15
            assert sum(
                owner["rows_sent"] for owner in stats["owners"].values()
            ) == 15


class _RecordingConn:
    """Worker-side pipe stand-in for driving shard_worker_main in-process."""

    def __init__(self):
        self.sent: list[tuple] = []
        self.closed = False

    def send(self, message) -> None:
        self.sent.append(message)

    def close(self) -> None:
        self.closed = True


class TestWorkerProtocol:
    def test_worker_ingests_snapshots_and_stops(self):
        plan = ShardPlan(sql=COUNT_SUM_SQL, schema=SCHEMA)
        rows = make_rows(120)
        in_queue: queue.Queue = queue.Queue()
        in_queue.put(("colb", pack_cols(rows_to_cols(rows[:60]))))
        in_queue.put(("colb", pack_cols(rows_to_cols(rows[60:]))))
        in_queue.put(("state",))
        in_queue.put(("stop",))
        conn = _RecordingConn()

        shard_worker_main(plan, 0, in_queue, conn)

        (state_tag, blob), (stop_tag, count) = conn.sent
        assert (state_tag, stop_tag) == ("state", "stopped")
        assert count == len(rows)
        assert conn.closed
        collector = plan.build_engine()
        collector.merge_partial(blob)
        assert collector.flush() == unsharded(COUNT_SUM_SQL, rows)

    def test_worker_reports_unknown_message_as_error(self):
        plan = ShardPlan(sql=COUNT_SUM_SQL, schema=SCHEMA)
        in_queue: queue.Queue = queue.Queue()
        in_queue.put(("bogus",))
        conn = _RecordingConn()

        shard_worker_main(plan, 3, in_queue, conn)

        tag, message = conn.sent[0]
        assert tag == "error"
        assert "shard 3" in message and "bogus" in message
        assert conn.closed

    def test_worker_survives_broken_reply_pipe(self):
        class _BrokenConn(_RecordingConn):
            def send(self, message) -> None:
                raise OSError("peer went away")

        plan = ShardPlan(sql=COUNT_SUM_SQL, schema=SCHEMA)
        in_queue: queue.Queue = queue.Queue()
        in_queue.put(("state",))
        conn = _BrokenConn()
        shard_worker_main(plan, 0, in_queue, conn)  # must not raise
        assert conn.closed


@pytest.mark.slow
class TestRealProcesses:
    def test_process_mode_matches_unsharded(self):
        rows = make_rows(400)
        with ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=2) as engine:
            engine.insert_many(rows)
            mid = engine.query()
            assert mid == unsharded(COUNT_SUM_SQL, rows)
            engine.insert_many(rows)  # keep ingesting after a query
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows + rows)
            counts = engine.close()["tuples_per_shard"]
        assert sum(counts) == 2 * len(rows)

    def test_backpressure_bounded_queue_completes(self, monkeypatch):
        # A one-batch queue with tiny batches forces the router to block
        # on full worker queues; the run must still drain and merge exactly.
        monkeypatch.setattr(pipe, "_QUEUE_DEPTH", 1)
        rows = make_rows(300)
        with ShardedEngine(COUNT_SUM_SQL, SCHEMA, shards=2) as engine:
            for start in range(0, len(rows), 8):
                engine.insert_many(rows[start:start + 8])
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)

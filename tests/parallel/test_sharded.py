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
from repro.obs.registry import MetricsRegistry
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
            COUNT_SUM_SQL, SCHEMA, shards=4, processes=0, batch_size=64
        ) as engine:
            engine.insert_many(rows)
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

    def test_stable_route_matches_default_hash(self):
        # Routing must not affect the merged result — same rows, two
        # different placements, identical output.
        rows = make_rows()
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=4, processes=0, router=stable_route
        ) as stable, ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=4, processes=0
        ) as hashed:
            stable.insert_many(rows)
            hashed.insert_many(rows)
            assert stable.query() == hashed.query()

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
    def test_no_group_by_round_robins(self):
        sql = "select count(*) as c, sum(len) as s from TCP"
        rows = make_rows(101)
        with ShardedEngine(sql, SCHEMA, shards=4, processes=0) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(sql, rows)
            counts = engine.close()["tuples_per_shard"]
        # Round-robin placement: shard loads differ by at most one tuple.
        assert max(counts) - min(counts) <= 1

    def test_a_router_on_one_key_part_places_each_value_on_one_shard(self):
        # Routing on the destIP part of the (tb, destIP) key sends every
        # row of one host to the shard stable_route names for it.
        rows = make_rows()
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=4, processes=0,
            router=lambda key, n: stable_route(key[1], n),
        ) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)
            counts = engine.close()["tuples_per_shard"]
        expected = [0] * 4
        for row in rows:
            expected[stable_route(row[2], 4)] += 1
        assert counts == expected

    def test_stable_route_is_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 8):
            for key in [("a", 1), "host-7", 42, (0, "h", 443)]:
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

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ParameterError, match="batch_size"):
            ShardedEngine(COUNT_SUM_SQL, SCHEMA, processes=0, batch_size=0)

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
        engine = ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=3, processes=0, batch_size=64
        )
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
            engine.process(make_rows(1)[0])
        with pytest.raises(QueryError, match="closed"):
            engine.query()

    def test_stats_reports_buffered_rows(self):
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0, batch_size=1000
        ) as engine:
            for row in make_rows(10):
                engine.process(row)
            stats = engine.stats()
            assert stats["rows_routed"] == 10
            assert stats["buffered"] == 10
            assert stats["inline"] is True
            engine.insert_many(make_rows(5))  # ships the edge buffer first
            stats = engine.stats()
            assert stats["rows_routed"] == 15
            assert stats["buffered"] == 0


class TestMetrics:
    def test_inline_metrics_recorded(self):
        metrics = MetricsRegistry(enabled=True)
        rows = make_rows(200)
        with ShardedEngine(
            COUNT_SUM_SQL,
            SCHEMA,
            shards=2,
            processes=0,
            batch_size=32,
            metrics=metrics,
        ) as engine:
            engine.insert_many(rows)
            engine.query()
        snap = metrics.snapshot()["metrics"]
        shard_rows = (
            snap["parallel.shard0.rows"]["raw_total"]
            + snap["parallel.shard1.rows"]["raw_total"]
        )
        assert shard_rows == len(rows)
        assert snap["parallel.batches"]["raw_total"] >= 2
        assert snap["parallel.query.merge_us"]["count"] == 1
        assert snap["parallel.query.state_bytes"]["raw_total"] > 0

    def test_disabled_metrics_do_not_record(self):
        metrics = MetricsRegistry(enabled=False)
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, processes=0, metrics=metrics
        ) as engine:
            engine.insert_many(make_rows(50))
            engine.query()
        assert "parallel.batches" not in metrics


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
        with ShardedEngine(
            COUNT_SUM_SQL, SCHEMA, shards=2, batch_size=64
        ) as engine:
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
        with ShardedEngine(
            COUNT_SUM_SQL,
            SCHEMA,
            shards=2,
            batch_size=8,
        ) as engine:
            engine.insert_many(rows)
            assert engine.query() == unsharded(COUNT_SUM_SQL, rows)


BUCKET_SQL = "select tb, destIP, count(*) as c from TCP group by time/60 as tb, destIP"


def hb(time: int, dest: str = "") -> tuple:
    """A tuple-shaped punctuation marker carrying only a timestamp."""
    return (time, "", dest, 0, 0, "")


class TestShardedHeartbeat:
    """Punctuation reaches the shards behind the rows routed before it
    and never counts as data."""

    def make(self, **kwargs) -> ShardedEngine:
        return ShardedEngine(BUCKET_SQL, SCHEMA, shards=2, processes=0, **kwargs)

    def test_broadcast_adds_no_data(self):
        rows = [(i, "s", f"h{i % 3}", 80, 100, "tcp") for i in range(4)]
        with self.make() as engine:
            engine.insert_many(rows)
            engine.heartbeat_all(hb(65))
            engine.heartbeat(hb(65, dest="h1"))
            assert engine.rows_routed == 4
            assert engine.query() == unsharded(BUCKET_SQL, rows)

    def test_routed_heartbeat_reaches_owning_shard_only(self):
        # Deterministic placement: destIP h1 -> shard 0, everything else
        # -> shard 1.  A routed marker goes to its key's shard alone, a
        # broadcast to every shard.
        router = lambda key, n: 0 if key[1] == "h1" else 1  # noqa: E731
        with self.make(router=router) as engine:
            seen = []
            for name, owner in engine._owners.items():
                owner.heartbeat = lambda row, name=name: seen.append((name, row[2]))
            engine.heartbeat(hb(65, dest="h2"))
            engine.heartbeat(hb(65, dest="h1"))
            engine.heartbeat_all(hb(70))
            assert seen == [(1, "h2"), (0, "h1"), (0, ""), (1, "")]

    def test_heartbeats_match_heartbeat_free_run(self):
        data = [(t, "s", f"h{t % 2}", 80, 100, "tcp")
                for t in (0, 65, 70, 130)]
        with self.make(router=stable_route) as noisy, \
                self.make(router=stable_route) as plain:
            for row in data:
                plain.process(row)
                noisy.process(row)
                noisy.heartbeat_all(hb(row[0]))               # equal
                noisy.heartbeat_all(hb(max(0, row[0] - 120)))  # late
            assert noisy.query() == plain.query()

    def test_heartbeat_flushes_buffered_rows_first(self):
        # A marker must never overtake data routed before it: buffered
        # rows ship before the heartbeat is delivered.
        with self.make(batch_size=512) as engine:
            engine.process((0, "s", "h1", 80, 100, "tcp"))  # still buffered
            assert engine.stats()["buffered"] == 1
            engine.heartbeat_all(hb(65))
            assert engine.stats()["buffered"] == 0
            assert engine.rows_routed == 1

    def test_heartbeat_after_close_raises(self):
        engine = self.make()
        engine.close()
        with pytest.raises(QueryError, match="closed"):
            engine.heartbeat(hb(65))

    @pytest.mark.slow
    def test_process_mode_heartbeat(self):
        rows = [(i, "s", f"h{i % 3}", 80, 100, "tcp") for i in range(6)]
        with ShardedEngine(BUCKET_SQL, SCHEMA, shards=2, batch_size=8) as engine:
            engine.insert_many(rows)
            engine.heartbeat_all(hb(65))
            assert engine.query() == unsharded(BUCKET_SQL, rows)

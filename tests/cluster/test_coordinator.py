"""Coordinator correctness: exact fan-out queries, rebalance, accounting.

Everything gates on byte-identical equality with a single in-process
engine over the same stream — the cluster's core contract.
"""

from __future__ import annotations

import pytest

from repro.cluster import Coordinator, LocalNode
from repro.core.errors import ParameterError
from repro.serve import ServeClient, protocol
from repro.serve.protocol import MAX_FRAME_BYTES, FrameTooLarge, rows_to_cols
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows

UNKEYED_SQL = (
    "select count(*) as c, sum(len * 0.1) as s, avg(len * 0.1) as a from TCP"
)


def local_cluster(tmp_path, n=3, sql=SQL, **kwargs):
    kwargs.setdefault("batch_size", 64)
    return Coordinator.local(
        sql, PACKET_SCHEMA, str(tmp_path), node_count=n, **kwargs
    )


class TestExactFanOut:
    def test_three_nodes_match_single_engine(self, tmp_path):
        rows = make_rows(400)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows)
            got = cluster.query()
        assert canon(got) == canon(expected_rows(SQL, rows))

    def test_whole_trace_insert_ships_bounded_frames(self, tmp_path, monkeypatch):
        # One insert() of a whole trace used to leave each node's buffer
        # as a single multi-megabyte INSERT frame; deliveries are sliced
        # to batch_size rows, so frame size no longer grows with input.
        rows = make_rows(200_000)
        sent: list[int] = []
        perform = ServeClient._perform

        def spy(client, op, arg=None):
            if op == "send":
                sent.append(len(arg))
            return perform(client, op, arg)

        monkeypatch.setattr(ServeClient, "_perform", spy)
        with Coordinator.local(
            SQL, PACKET_SCHEMA, str(tmp_path), node_count=3
        ) as cluster:
            cluster.insert(rows)
            got = cluster.query()
            per_node = cluster.stats()["per_node"]
            assert sum(n["rows_sent"] for n in per_node.values()) == len(rows)
        assert max(sent) < MAX_FRAME_BYTES // 2
        assert len(sent) >= len(rows) // cluster._frame_rows
        assert canon(got) == canon(expected_rows(SQL, rows))

    def test_refused_slice_is_never_counted_as_sent(self, tmp_path, monkeypatch):
        # Regression: a slice the client refused outright (FrameTooLarge)
        # was already added to the node's rows_sent, skewing the loss
        # accounting, and had wedged the client's credit window.
        # The node's server was built with the default limit; the client
        # reads the constant on every frame it packs.
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2048)
        rows = make_rows(20)
        with local_cluster(tmp_path, n=1, batch_size=4096) as cluster:
            with pytest.raises(FrameTooLarge):
                cluster.insert_cols(rows_to_cols(make_rows(2000)))
            assert cluster.stats()["per_node"]["node0"]["rows_sent"] == 0
            cluster.insert(rows)
            cluster.flush()
            got = cluster.query()
            assert cluster.stats()["per_node"]["node0"]["rows_sent"] == len(rows)
            assert cluster.rows_lost == 0
        assert canon(got) == canon(expected_rows(SQL, rows))

    def test_query_is_nondestructive_and_incremental(self, tmp_path):
        rows = make_rows(200)
        with local_cluster(tmp_path, n=2) as cluster:
            cluster.insert(rows[:100])
            first = cluster.query()
            assert canon(cluster.query()) == canon(first)
            cluster.insert(rows[100:])
            final = cluster.query()
        assert canon(first) == canon(expected_rows(SQL, rows[:100]))
        assert canon(final) == canon(expected_rows(SQL, rows))

    def test_unkeyed_query_reaches_one_node_exactly(self, tmp_path):
        # The one group of an un-keyed query has the key (): one node
        # owns it, so the answer is one engine's, float sums included.
        rows = make_rows(150)
        with local_cluster(tmp_path, sql=UNKEYED_SQL) as cluster:
            cluster.insert(rows)
            got = cluster.query()
            stats = cluster.stats()
        assert canon(got) == canon(expected_rows(UNKEYED_SQL, rows))
        sent = sorted(info["rows_sent"] for info in stats["per_node"].values())
        assert sent == [0, 0, len(rows)]

    def test_single_node_cluster_degenerates_cleanly(self, tmp_path):
        rows = make_rows(120)
        with local_cluster(tmp_path, n=1) as cluster:
            cluster.insert(rows)
            got = cluster.query()
        assert canon(got) == canon(expected_rows(SQL, rows))


class TestStatsAggregation:
    def test_tuples_in_sums_across_nodes(self, tmp_path):
        rows = make_rows(256)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows)
            cluster.flush()
            stats = cluster.stats()
        assert stats["nodes"] == 3
        assert stats["rows_routed"] == len(rows)
        assert stats["tuples_in"] == len(rows)
        assert stats["rows_lost"] == 0
        sent = sum(info["rows_sent"] for info in stats["per_node"].values())
        assert sent == len(rows)
        for info in stats["per_node"].values():
            assert info["server"]["backend"]["backend"] == "single"

    def test_close_reports_per_node_counts(self, tmp_path):
        rows = make_rows(90)
        cluster = local_cluster(tmp_path, n=2)
        cluster.insert(rows)
        report = cluster.close()
        assert sum(report["tuples_per_node"].values()) == len(rows)
        # idempotent
        assert cluster.close() == report


class TestRebalance:
    def test_add_node_moves_no_state_and_stays_exact(self, tmp_path):
        rows = make_rows(300)
        with local_cluster(tmp_path, n=2) as cluster:
            cluster.insert(rows[:150])
            node = LocalNode(
                "node9", SQL, PACKET_SCHEMA, str(tmp_path / "node9")
            )
            summary = cluster.add_node(node)
            assert summary == {"node": "node9", "nodes": 3}
            cluster.insert(rows[150:])
            got = cluster.query()
            stats = cluster.stats()
        assert canon(got) == canon(expected_rows(SQL, rows))
        # the new node only ever saw post-join rows
        assert stats["per_node"]["node9"]["rows_sent"] <= 150

    def test_decommission_ships_state_to_heir(self, tmp_path):
        rows = make_rows(300)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows)
            victim = cluster.nodes[0]
            summary = cluster.decommission(victim)
            assert summary["node"] == victim
            assert summary["heir"] in cluster.nodes
            assert summary["nodes"] == 2
            assert victim not in cluster.nodes
            got = cluster.query()
            # keep ingesting after the membership change
            cluster.insert(make_rows(50, start=900))
            more = cluster.query()
        assert canon(got) == canon(expected_rows(SQL, rows))
        assert canon(more) == canon(
            expected_rows(SQL, rows + make_rows(50, start=900))
        )

    def test_decommission_with_explicit_heir(self, tmp_path):
        rows = make_rows(200)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows)
            a, b, _ = cluster.nodes
            summary = cluster.decommission(a, heir=b)
            assert summary["heir"] == b
            assert canon(cluster.query()) == canon(expected_rows(SQL, rows))

    def test_decommission_guards(self, tmp_path):
        with local_cluster(tmp_path, n=2) as cluster:
            with pytest.raises(ParameterError):
                cluster.decommission("nope")
            with pytest.raises(ParameterError):
                cluster.decommission(cluster.nodes[0], heir=cluster.nodes[0])
            cluster.decommission(cluster.nodes[0])
            with pytest.raises(ParameterError):
                cluster.decommission(cluster.nodes[0])  # last node

    def test_add_duplicate_name_rejected(self, tmp_path):
        with local_cluster(tmp_path, n=2) as cluster:
            node = LocalNode(
                cluster.nodes[0], SQL, PACKET_SCHEMA, str(tmp_path / "dup")
            )
            with pytest.raises(ParameterError):
                cluster.add_node(node)


class TestConstruction:
    def test_duplicate_node_names_rejected(self, tmp_path):
        nodes = [
            LocalNode("same", SQL, PACKET_SCHEMA, str(tmp_path / "a")),
            LocalNode("same", SQL, PACKET_SCHEMA, str(tmp_path / "b")),
        ]
        with pytest.raises(ParameterError):
            Coordinator(SQL, PACKET_SCHEMA, nodes)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ParameterError):
            Coordinator(SQL, PACKET_SCHEMA, [])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_frame_size_below_one_rejected(self, tmp_path, batch_size):
        # 0 would ship whole slices (no frame limit) and -1 none at all,
        # counting them as sent: refused before any node starts.
        node = LocalNode("n0", SQL, PACKET_SCHEMA, str(tmp_path / "n0"))
        with pytest.raises(ParameterError, match="batch_size must be >= 1"):
            Coordinator(SQL, PACKET_SCHEMA, [node], batch_size=batch_size)
        assert not node.alive()

    def test_unmergeable_query_rejected_at_plan_time(self, tmp_path):
        from repro.core.errors import QueryError

        sql = "select destIP, reservoir(len) as r from TCP group by destIP"
        with pytest.raises(QueryError):
            Coordinator.local(sql, PACKET_SCHEMA, str(tmp_path))

    def test_checkpoint_reports_and_marks(self, tmp_path):
        rows = make_rows(128)
        with local_cluster(tmp_path, n=2) as cluster:
            cluster.insert(rows)
            reports = cluster.checkpoint()
            assert set(reports) == set(cluster.nodes)
            stats = cluster.stats()
            for info in stats["per_node"].values():
                assert info["checkpoint_mark"] == info["rows_sent"]

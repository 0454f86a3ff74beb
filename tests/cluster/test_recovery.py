"""Node-loss recovery: respawn from checkpoint, replay, exact accounting.

The fast tests crash in-process nodes (the threaded server's ``kill()``
is the SIGKILL analogue); the ``chaos``-marked ones SIGKILL real
``repro serve`` OS processes through the chaos harness — the scenario
the CI cluster job exists to gate: a 3-node cluster stays byte-identical
to a single engine through a kill-and-respawn, and every lost row is
accounted for exactly.
"""

from __future__ import annotations

import pytest

from repro.cluster import Coordinator, ProcessNode, coordinator
from repro.core.errors import QueryError
from repro.parallel import router
from repro.testing.chaos import kill_node
from repro.workloads.netflow import PACKET_SCHEMA
from tests.serve.util import SQL, canon, expected_rows, make_rows


def local_cluster(tmp_path, n=3, **kwargs):
    kwargs.setdefault("batch_size", 50)
    return Coordinator.local(
        SQL, PACKET_SCHEMA, str(tmp_path), node_count=n, **kwargs
    )


class TestLocalNodeRecovery:
    @pytest.fixture(autouse=True)
    def two_reconnects(self, monkeypatch):
        monkeypatch.setattr(coordinator, "_RETRIES", 2)

    def test_kill_after_checkpoint_loses_nothing(self, tmp_path):
        rows = make_rows(600)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows[:300])
            cluster.checkpoint()
            cluster._owners[cluster.nodes[1]].node.kill()
            cluster.insert(rows[300:])
            got = cluster.query()
            assert cluster.rows_lost == 0
            failure = cluster.failures[0]
            assert failure.respawned
            assert failure.rows_lost == 0
        assert canon(got) == canon(expected_rows(SQL, rows))

    def test_uncheckpointed_acked_rows_are_lost_exactly(self, tmp_path):
        rows = make_rows(600)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows[:300])
            cluster.checkpoint()
            cluster.insert(rows[300:])
            cluster.flush()  # acked everywhere, checkpointed nowhere
            victim = cluster.nodes[2]
            sent = cluster._rows_sent[victim]
            mark = cluster._ckpt_mark[victim]
            cluster._owners[victim].node.kill()
            cluster.query()  # discovers the corpse, recovers
            failure = cluster.failures[0]
            assert failure.owner == victim
            assert failure.rows_lost == sent - mark > 0
            # exact: the surviving tuple count reflects precisely the loss
            stats = cluster.stats()
            assert stats["tuples_in"] == len(rows) - failure.rows_lost

    def test_query_fans_out_with_one_node_mid_respawn(self, tmp_path):
        rows = make_rows(400)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows)
            cluster.checkpoint()
            # the node is dead right now; query must recover it in-line
            cluster._owners[cluster.nodes[0]].node.kill()
            got = cluster.query()
            assert cluster.rows_lost == 0
        assert canon(got) == canon(expected_rows(SQL, rows))

    def test_seq_replay_across_router_mediated_reconnect(self, tmp_path):
        rows = make_rows(500)
        with local_cluster(tmp_path) as cluster:
            cluster.insert(rows[:250])
            cluster.checkpoint()
            victim = cluster.nodes[1]
            cluster._owners[victim].node.kill()
            cluster.insert(rows[250:])
            reports = cluster.flush()
            # the recovered node's client replayed its unacked batches
            # by seq; nothing was double-applied and nothing vanished
            outcomes = reports[victim]["outcomes"].values()
            assert "replayed" in outcomes
            assert reports[victim]["reconnects"] >= 1
            assert canon(cluster.query()) == canon(expected_rows(SQL, rows))
            assert cluster.rows_lost == 0

    def test_respawn_budget_exhaustion_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(router, "_MAX_RESPAWNS", 0)
        rows = make_rows(100)
        with local_cluster(tmp_path, n=2) as cluster:
            cluster.insert(rows)
            cluster.flush()
            cluster._owners[cluster.nodes[0]].node.kill()
            with pytest.raises(QueryError, match="respawn budget"):
                cluster.query()
            assert cluster.failures[0].respawned is False



@pytest.mark.slow
@pytest.mark.chaos
class TestProcessNodeChaos:
    def make_cluster(self, tmp_path, n=3):
        nodes = [
            ProcessNode(f"node{i}", SQL, str(tmp_path / f"node{i}"))
            for i in range(n)
        ]
        return Coordinator(
            SQL, PACKET_SCHEMA, nodes, batch_size=50
        )

    def test_sigkill_and_respawn_stays_byte_identical(self, tmp_path):
        rows = make_rows(600)
        with self.make_cluster(tmp_path) as cluster:
            cluster.insert(rows[:300])
            cluster.checkpoint()
            victim = cluster.nodes[1]
            kill_node(cluster._owners[victim].node)
            cluster.insert(rows[300:])
            got = cluster.query()
            assert cluster.rows_lost == 0
            assert cluster.failures[0].respawned
            # the respawned process is a fresh pid on the old port
            assert cluster._owners[victim].node.alive()
        assert canon(got) == canon(expected_rows(SQL, rows))

    def test_sigkill_loss_accounting_is_exact(self, tmp_path):
        rows = make_rows(500)
        with self.make_cluster(tmp_path, n=2) as cluster:
            cluster.insert(rows[:250])
            cluster.checkpoint()
            cluster.insert(rows[250:])
            cluster.flush()
            victim = cluster.nodes[0]
            sent = cluster._rows_sent[victim]
            mark = cluster._ckpt_mark[victim]
            kill_node(cluster._owners[victim].node)
            cluster.query()
            failure = cluster.failures[0]
            assert failure.rows_lost == sent - mark > 0
            stats = cluster.stats()
            assert stats["tuples_in"] == len(rows) - failure.rows_lost
            # node logs survive the crash for CI artifact upload
            log = tmp_path / "node0" / "node.log"
            assert log.exists() and log.stat().st_size > 0

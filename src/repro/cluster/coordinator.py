"""The cluster coordinator: the router over serving nodes.

:class:`Coordinator` is the :class:`~repro.parallel.router.Router` placed
by a consistent-hash :class:`~repro.cluster.ring.HashRing` over
:class:`NodeOwner` (the TCP transport): a lost node is respawned on its
old port from the checkpoint in its own state dir while its client
replays the unacknowledged batches.  ``add_node`` moves no state;
``decommission`` ships a node's blobs to a survivor with ``ADOPT``.
"""

from __future__ import annotations

import os

from repro.core.cols import rows_to_cols
from repro.core.errors import DecayError, ParameterError
from repro.parallel.router import Router
from repro.parallel.worker import ShardPlan
from repro.serve.client import ServeClient

from repro.cluster.nodes import LocalNode
from repro.cluster.ring import HashRing

__all__ = ["Coordinator", "NodeOwner"]

#: Each node client's reconnect budget for *transient* failures, before
#: the router respawns the node.
_RETRIES = 3


class NodeOwner:
    """One serving node behind a :class:`ServeClient`: the router's TCP
    owner transport.  The node keeps its checkpoint in its state dir."""

    def __init__(self, node, dial):
        if not node.alive():
            node.start()
        self.node = node
        self.client = dial(node)

    def insert_cols(self, cols: list) -> None:
        """One INSERT_COLS frame, tracked for replay until its CREDIT."""
        self.client.insert_cols(cols)

    def flush(self) -> dict:
        """Wait for every in-flight batch's ack; the client's report."""
        return self.client.flush()

    def partial_blobs(self) -> list[bytes]:
        """The node backend's blobs (PARTIALS)."""
        return self.client.partials()

    def checkpoint_blobs(self) -> list[bytes]:
        """Have the node write its checkpoint once every batch is acked —
        a batch the checkpoint holds must not replay; keeps nothing."""
        self.client.flush()
        self.client.checkpoint()
        return []

    def restore_blobs(self, blobs: list[bytes]) -> None:
        """Fold foreign blobs into the node's backend (ADOPT)."""
        self.client.adopt(blobs)

    def stats(self) -> dict:
        """The node's server / backend statistics (STATS)."""
        return self.client.stats()

    @property
    def unacked_rows(self) -> int:
        return self.client.unacked_rows

    @property
    def pid(self) -> int | None:
        return getattr(self.node, "pid", None)

    exitcode = None

    def respawn(self) -> None:
        """Restart the node on its old port from its own checkpoint; the
        client reconnects and replays on its next call."""
        self.node.respawn()

    def close(self) -> int:
        """Stop the node; the rows it ingested, ``-1`` if unreachable."""
        try:
            self.client.flush()
            count = self.client.stats()["backend"]["tuples_in"]
        except (OSError, DecayError):
            count = -1
        self.client.close()
        self.node.stop()
        return count


class Coordinator(Router):
    """Route one query's stream across a fleet of serving nodes.

    Parameters
    ----------
    sql / schema:
        The continuous query, which must be mergeable, and its schema.
    nodes:
        :class:`~repro.cluster.nodes.LocalNode` / ``ProcessNode``
        instances, started if down and stopped by :meth:`close`.
    batch_size:
        The most rows one ``INSERT_COLS`` frame carries (at least 1).

    A dead node is respawned from its last checkpoint and the operation
    asked again (the router's respawn budget per node, then
    :class:`~repro.core.errors.QueryError`).
    """

    def __init__(self, sql: str, schema, nodes, *, batch_size: int = 512):
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size!r}")
        nodes = list(nodes)
        if not nodes:
            raise ParameterError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate node names: {names!r}")
        by_name = dict(zip(names, nodes))
        self.sql = sql
        self._ring = HashRing(names)
        super().__init__(
            ShardPlan(sql, schema),
            self._ring,
            lambda name: NodeOwner(by_name[name], self._dial),
            frame_rows=batch_size,
        )

    def _dial(self, node) -> ServeClient:
        return ServeClient(
            node.host,
            node.port,
            schema_names=self.schema.names(),
            retries=_RETRIES,
        )

    def insert(self, rows) -> None:
        """Route a batch of tuples: transposed here, once, and handed to
        :meth:`insert_cols`."""
        self.insert_cols(rows_to_cols(rows))

    def flush(self) -> dict:
        """Wait for every in-flight batch's ack."""
        self._ensure_open()
        return {name: self._call(name, "flush") for name in self.nodes}

    def partial_blobs(self) -> list[bytes]:
        """Every node's partial-state blobs."""
        return self._partials()

    def checkpoint(self) -> dict:
        """Checkpoint every node once its batches are acked, so a crash
        loses at most the acked rows routed after this; returns
        ``{node: {"rows_captured": mark}}``."""
        self._checkpoint()
        return {
            name: {"rows_captured": self._ckpt_mark[name]} for name in self.nodes
        }

    # -- membership / rebalance ---------------------------------------------------

    def add_node(self, node) -> dict:
        """Join a node to the ring.  No state moves: the keys that now
        route to it simply start accumulating there, and merge-at-query
        combines old and new placements exactly."""
        self._ensure_open()
        if node.name in self._owners:
            raise ParameterError(f"node {node.name!r} is already in the cluster")
        self._add_owner(node.name, NodeOwner(node, self._dial))
        self._ring.add(node.name)
        return {"node": node.name, "nodes": len(self._ring)}

    def decommission(self, name: str, heir: str | None = None) -> dict:
        """Fold a node's partial blobs (``PARTIALS``) into ``heir``
        (``ADOPT``; default: the ring's owner of the departed name), then
        drop it from the ring and stop it — exact, as a query's fold is."""
        self._ensure_open()
        if name not in self._owners:
            raise ParameterError(f"node {name!r} is not in the cluster")
        if len(self._ring) == 1:
            raise ParameterError("cannot decommission the last node")
        if heir is not None and (heir == name or heir not in self._owners):
            raise ParameterError(f"invalid heir {heir!r}")
        blobs = self._call(name, "partial_blobs")
        moved = self._rows_sent[name]
        self._ring.remove(name)
        if heir is None:
            heir = self._ring.node_for(("decommission", name))
        self._call(heir, "restore_blobs", blobs)
        # The heir answers for the departed rows now, and loses them with
        # the rest of its delta if it crashes before its next checkpoint.
        self._rows_sent[heir] += moved
        self._remove_owner(name).close()
        return {
            "node": name,
            "heir": heir,
            "blobs_adopted": len(blobs),
            "rows_moved": moved,
            "nodes": len(self._ring),
        }

    # -- statistics ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """The ring's members, sorted by name."""
        return self._ring.nodes

    @property
    def rows_lost(self) -> int:
        """Total rows lost across every recorded failure (exact)."""
        return sum(failure.rows_lost for failure in self._failures)

    def stats(self) -> dict:
        """Coordinator accounting plus every node's server stats."""
        self._ensure_open()
        stats = super().stats()
        per_node = stats.pop("owners")
        for name, info in per_node.items():
            info["server"] = self._call(name, "stats")
        return {
            **stats,
            "nodes": len(per_node),
            "tuples_in": sum(
                info["server"]["backend"]["tuples_in"] for info in per_node.values()
            ),
            "per_node": per_node,
        }

    # -- lifecycle ----------------------------------------------------------------

    @classmethod
    def local(cls, sql: str, schema, state_dir: str, node_count: int = 3, **kwargs):
        """A ready-to-use all-in-process cluster under one state dir."""
        if node_count < 1:
            raise ParameterError(f"node_count must be >= 1, got {node_count!r}")
        nodes = [
            LocalNode(
                f"node{i}", sql, schema, os.path.join(state_dir, f"node{i}")
            )
            for i in range(node_count)
        ]
        return cls(sql, schema, nodes, **kwargs)

    def _close_report(self, counts: dict) -> dict:
        return {"tuples_per_node": counts}

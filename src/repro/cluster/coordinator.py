"""The cluster coordinator: route, fan out, fold, recover.

One :class:`Coordinator` fronts N serving nodes and behaves like a
single engine:

* **Routing.**  GROUP BY keys (via the shared
  :class:`~repro.parallel.routing.GroupKeyRouter`) map to nodes through
  a consistent-hash :class:`~repro.cluster.ring.HashRing`; unkeyed
  queries round-robin.  Placement never affects answers — Section
  VI-B's fixed numerators make partial states merge exactly — so the
  ring is purely a balance/affinity choice.
* **Ingest.**  Batches are partitioned in columns and each node's slice
  goes out through ``ServeClient.insert_cols`` in ``batch_size``-row
  ``INSERT_COLS`` frames, under the server's credit window with
  seq-keyed replay on reconnect.  Rows exist only at the public edge
  (``insert`` transposes once, ``process`` fills one edge buffer flushed
  the same way); nothing below transposes again.
* **Query.**  ``query()`` flushes, pulls every node's partial-state
  blobs (``PARTIALS`` frames), folds them with
  :func:`~repro.dsms.engine.fold_partials`, and finalizes locally — HAVING /
  ORDER BY / LIMIT apply to the merged whole, so the answer is
  byte-identical to one in-process engine over the same stream.
* **Recovery.**  Node clients are built with retries; when an operation
  still fails (the process is gone, not hiccuping), the coordinator
  respawns the node on its old port, where it restores its last
  checkpoint, and re-invokes the operation — the client reconnects and
  replays unacknowledged batches on top.  Loss accounting is exact:
  acked-since-checkpoint rows are gone, unacked rows replay, so
  ``lost = (sent - unacked) - checkpoint_mark`` with min == max.
* **Rebalance.**  ``add_node`` extends the ring with no state movement
  (merge-at-query absorbs the old placement); ``decommission`` drains a
  node, ships its blobs to a surviving node with ``ADOPT``, and removes
  it from the ring.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.cols import rows_to_cols
from repro.core.errors import ParameterError, QueryError
from repro.dsms.engine import fold_partials
from repro.parallel.routing import GroupKeyRouter, validate_mergeable
from repro.parallel.worker import ShardPlan
from repro.serve.client import ClientConnectionError, ServeClient

from repro.cluster.nodes import LocalNode
from repro.cluster.ring import HashRing

__all__ = ["Coordinator", "NodeFailure"]


@dataclass
class NodeFailure:
    """One detected node death, with exact loss accounting.

    ``rows_lost`` counts rows acknowledged by the dead node after its
    last checkpoint — they were only in its memory.  Unacknowledged
    batches are *not* lost: the client replays them to the respawned
    node.  The bound is exact (a single number, not a range) because
    every row is either checkpointed, unacked, or lost.
    """

    node: str
    phase: str
    detected_at: float
    rows_recovered: int
    rows_replayed: int
    rows_lost: int
    respawned: bool

    def to_dict(self) -> dict:
        """JSON-ready form for ``stats()`` and the CLI report."""
        return {
            "node": self.node,
            "phase": self.phase,
            "detected_at": self.detected_at,
            "rows_recovered": self.rows_recovered,
            "rows_replayed": self.rows_replayed,
            "rows_lost": self.rows_lost,
            "respawned": self.respawned,
        }


class Coordinator:
    """Route one query's stream across a fleet of serving nodes.

    Parameters
    ----------
    sql / schema:
        The continuous query and its stream schema.  Must be mergeable
        (:func:`~repro.parallel.routing.validate_mergeable`) — the whole
        tier rests on exact partial-state merging.
    nodes:
        :class:`~repro.cluster.nodes.LocalNode` /
        :class:`~repro.cluster.nodes.ProcessNode` instances (started or
        not; the coordinator starts any that are down and owns their
        shutdown on :meth:`close`).
    vnodes / ring_seed:
        Consistent-hash ring configuration (see
        :class:`~repro.cluster.ring.HashRing`).
    batch_size:
        Rows per ``INSERT_COLS`` frame (larger partitions are sliced),
        and rows :meth:`process` buffers at the edge before routing them.
    retries:
        Per-client reconnect budget for *transient* failures; exhausted
        retries escalate to node respawn (when ``auto_recover``).
    shard_key:
        Optional schema column to route on instead of the full GROUP BY
        key (same contract as :class:`~repro.parallel.sharded.
        ShardedEngine`).
    auto_recover:
        When True (default), a dead node is respawned from its last
        checkpoint and the failed operation retried; False fails fast
        with :class:`~repro.serve.client.ClientConnectionError`.
    max_respawns:
        Respawn budget per node; a crash-looping node raises
        :class:`~repro.core.errors.QueryError` once exhausted.
    """

    def __init__(
        self,
        sql: str,
        schema,
        nodes,
        *,
        vnodes: int = 64,
        ring_seed: int = 0,
        batch_size: int = 512,
        retries: int = 3,
        shard_key: str | None = None,
        registry_params: dict | None = None,
        auto_recover: bool = True,
        max_respawns: int = 3,
    ):
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size!r}")
        if retries < 1:
            raise ParameterError(f"retries must be >= 1, got {retries!r}")
        if max_respawns < 0:
            raise ParameterError(
                f"max_respawns must be >= 0, got {max_respawns!r}"
            )
        nodes = list(nodes)
        if not nodes:
            raise ParameterError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate node names: {names!r}")
        self.sql = sql
        self.schema = schema
        self.batch_size = batch_size
        self.retries = retries
        self.auto_recover = auto_recover
        self.max_respawns = max_respawns
        self._plan = ShardPlan(
            sql=sql,
            schema=schema,
            registry_params=dict(registry_params or {}),
        )
        template = self._plan.build_engine()
        validate_mergeable(template)
        self.parsed_query = template.query
        self._routing = GroupKeyRouter(
            template.query, schema, shard_key=shard_key
        )
        self._ring = HashRing(names, vnodes=vnodes, seed=ring_seed)
        self._nodes = {node.name: node for node in nodes}
        self._clients: dict[str, ServeClient] = {}
        self._edge: list[tuple] = []  # rows from process(), not yet routed
        self._rows_sent: dict[str, int] = {name: 0 for name in names}
        self._ckpt_mark: dict[str, int] = {name: 0 for name in names}
        self._respawns: dict[str, int] = {name: 0 for name in names}
        self._failures: list[NodeFailure] = []
        self._rows_routed = 0
        self._closed = False
        for node in nodes:
            if not node.alive():
                node.start()
            self._clients[node.name] = self._dial(node)

    def _dial(self, node) -> ServeClient:
        return ServeClient(
            node.host,
            node.port,
            schema_names=self.schema.names(),
            retries=self.retries,
        )

    # -- recovery -----------------------------------------------------------------

    def _invoke(self, name: str, operation, phase: str):
        """Run one client operation, respawning the node if it is dead.

        The client's own retry loop absorbs transient drops; an
        escalated :class:`ClientConnectionError` means the process is
        gone.  Respawn restores the node's checkpoint on its old port;
        re-invoking the operation makes the client reconnect and replay
        its unacknowledged batches before anything else happens.
        """
        try:
            return operation(self._clients[name])
        except ClientConnectionError:
            if not self.auto_recover:
                raise
            self._recover(name, phase)
            return operation(self._clients[name])

    def _recover(self, name: str, phase: str) -> None:
        """Respawn a dead node; record the exact loss delta."""
        node = self._nodes[name]
        client = self._clients[name]
        replay = client.unacked_rows
        acked = self._rows_sent[name] - replay
        lost = max(0, acked - self._ckpt_mark[name])
        recovered = min(self._ckpt_mark[name], acked)
        respawned = self._respawns[name] < self.max_respawns
        self._failures.append(
            NodeFailure(
                node=name,
                phase=phase,
                detected_at=time.time(),
                rows_recovered=recovered,
                rows_replayed=replay,
                rows_lost=lost,
                respawned=respawned,
            )
        )
        if not respawned:
            raise QueryError(
                f"node {name!r} died {self._respawns[name] + 1} time(s); "
                f"respawn budget of {self.max_respawns} exhausted"
            )
        self._respawns[name] += 1
        node.respawn()
        # The node restarts holding its checkpoint; the client will
        # replay every unacked batch on reconnect, so the delivered
        # total becomes checkpoint + replays.
        self._rows_sent[name] = recovered + replay

    # -- routing / ingestion ------------------------------------------------------

    def _deliver(self, name: str, cols: list, count: int) -> None:
        """Ship one node's column slice in ``batch_size``-row pieces.

        A whole-trace ``insert`` hands over far more than one frame's
        worth; one frame per piece keeps every batch under the wire's
        frame limit.  ``_rows_sent`` advances per piece the client
        tracked, so a crash between pieces accounts exactly what the node
        was given — and a piece the client refused outright
        (``FrameTooLarge``) was never sent, replayed or counted.
        """
        size = self.batch_size
        for start in range(0, count, size):
            piece = [column[start : start + size] for column in cols]
            sent = min(size, count - start)
            try:
                self._clients[name].insert_cols(piece)
            except ClientConnectionError:
                # The client tracked the piece before its transport
                # failed, so the reconnect replays it with the other
                # unacked batches — inserting it again would apply it
                # twice.  The next call on this client reconnects.
                self._rows_sent[name] += sent
                if not self.auto_recover:
                    raise
                self._recover(name, "ship")
            else:
                self._rows_sent[name] += sent

    def insert_cols(self, cols: list) -> None:
        """Route one columnar batch, one column slice per owning node.

        ``cols`` is one equal-length list per schema field; an empty
        batch is ignored.  Rows buffered by :meth:`process` ship first,
        so interleaving the two preserves per-node arrival order.

        The batch is checked against the schema here first
        (:class:`~repro.core.errors.SchemaError`, nothing sent): a node is
        sent only the columns the query reads and could not reject the rest.
        """
        self._ensure_open()
        self._flush_edge()
        if cols:
            self.schema.validate_cols(cols)
        parts = self._routing.partition(
            cols, self._ring.node_for, self._ring.nodes
        )
        for name, part, count in parts:
            self._rows_routed += count
            self._deliver(name, part, count)

    def insert(self, rows) -> None:
        """Route a batch of tuples: transposed here, once, and handed to
        :meth:`insert_cols`."""
        self.insert_cols(rows_to_cols(rows))

    def process(self, row: tuple) -> None:
        """Offer one tuple: buffered at the edge and routed with its batch
        at ``batch_size`` rows, or before any heartbeat, read or close."""
        self._ensure_open()
        self._edge.append(row)
        if len(self._edge) >= self.batch_size:
            self._flush_edge()

    def _flush_edge(self) -> None:
        """Route and ship the rows :meth:`process` buffered."""
        if self._edge:
            rows, self._edge = self._edge, []
            self.insert_cols(rows_to_cols(rows))

    def _heartbeat(self, names, row: tuple) -> None:
        self._ensure_open()
        self._flush_edge()
        for name in names:
            self._invoke(name, lambda c: c.heartbeat(tuple(row)), "ship")

    def heartbeat(self, row: tuple) -> None:
        """Route punctuation to the node owning ``row``'s group key."""
        owner = self._routing.owner(row, self._ring.node_for, self._ring.nodes)
        self._heartbeat([owner], row)

    def heartbeat_all(self, row: tuple) -> None:
        """Broadcast punctuation to every node (global event time)."""
        self._heartbeat(self._ring.nodes, row)

    def flush(self) -> dict:
        """Ship buffered rows and wait for every in-flight batch's ack."""
        self._ensure_open()
        self._flush_edge()
        reports = {}
        for name in self._ring.nodes:
            reports[name] = self._invoke(name, lambda c: c.flush(), "flush")
        return reports

    # -- querying -----------------------------------------------------------------

    def partial_blobs(self) -> list[bytes]:
        """Every node's partial-state blobs (pending rows flushed first)."""
        self.flush()
        blobs: list[bytes] = []
        for name in self._ring.nodes:
            blobs.extend(self._invoke(name, lambda c: c.partials(), "query"))
        return blobs

    def query(self) -> list[dict]:
        """Merged results over everything ingested, exactly.

        Folds every node's partial states into one collector
        (:func:`~repro.dsms.engine.fold_partials`) and finalizes locally, so
        HAVING / ORDER BY / LIMIT see the merged whole — byte-identical
        to a single in-process engine over the same stream.
        """
        return fold_partials(self._plan.build_engine, self.partial_blobs())

    def checkpoint(self) -> dict:
        """Flush, then checkpoint every node; refreshes recovery marks.

        After this returns, a node crash loses at most the rows routed
        *after* the checkpoint (and of those, only the acked ones —
        unacked batches replay).  Returns per-node checkpoint reports.
        """
        self.flush()
        reports = {}
        for name in self._ring.nodes:
            reports[name] = self._invoke(
                name, lambda c: c.checkpoint(), "checkpoint"
            )
            # Everything delivered is acked (flush) and now durable.
            self._ckpt_mark[name] = self._rows_sent[name]
        return reports

    # -- membership / rebalance ---------------------------------------------------

    def add_node(self, node) -> dict:
        """Join a node to the ring.  No state moves: the keys that now
        route to it simply start accumulating there, and merge-at-query
        combines old and new placements exactly."""
        self._ensure_open()
        if node.name in self._nodes:
            raise ParameterError(f"node {node.name!r} is already in the cluster")
        if not node.alive():
            node.start()
        self._nodes[node.name] = node
        self._clients[node.name] = self._dial(node)
        self._rows_sent[node.name] = 0
        self._ckpt_mark[node.name] = 0
        self._respawns[node.name] = 0
        self._ring.add(node.name)
        return {"node": node.name, "nodes": len(self._ring)}

    def decommission(self, name: str, heir: str | None = None) -> dict:
        """Drain a node and fold its state into a surviving one.

        Flushes the departing node, pulls its partial blobs
        (``PARTIALS``), ships them to ``heir`` (``ADOPT``; default: the
        ring's owner of the departed name after removal), drops the node
        from the ring, and stops it.  Exactness is unconditional — the
        blobs merge into the heir the same way a query would have merged
        them at read time.
        """
        self._ensure_open()
        if name not in self._nodes:
            raise ParameterError(f"node {name!r} is not in the cluster")
        if len(self._ring) == 1:
            raise ParameterError("cannot decommission the last node")
        if heir is not None and (heir == name or heir not in self._nodes):
            raise ParameterError(f"invalid heir {heir!r}")
        self._flush_edge()
        self._invoke(name, lambda c: c.flush(), "flush")
        blobs = self._invoke(name, lambda c: c.partials(), "decommission")
        moved = self._rows_sent[name]
        self._ring.remove(name)
        if heir is None:
            heir = self._ring.node_for(("decommission", name))
        adopted = self._invoke(
            heir, lambda c: c.adopt(blobs), "decommission"
        )
        # The heir now answers for the departed rows; if it crashes
        # before its next checkpoint they are lost with the rest of its
        # uncheckpointed delta, which this keeps exact.
        self._rows_sent[heir] += moved
        client = self._clients.pop(name)
        try:
            client.close()
        except (ClientConnectionError, ConnectionError, OSError):
            pass
        node = self._nodes.pop(name)
        node.stop()
        del self._rows_sent[name], self._ckpt_mark[name], self._respawns[name]
        return {
            "node": name,
            "heir": heir,
            "blobs_adopted": adopted,
            "rows_moved": moved,
            "nodes": len(self._ring),
        }

    # -- statistics ---------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._ring.nodes

    @property
    def rows_routed(self) -> int:
        """Tuples accepted by the router so far (shipped or buffered)."""
        return self._rows_routed + len(self._edge)

    @property
    def failures(self) -> list[NodeFailure]:
        """Detected node deaths, in detection order (copy)."""
        return list(self._failures)

    @property
    def rows_lost(self) -> int:
        """Total rows lost across every recorded failure (exact)."""
        return sum(failure.rows_lost for failure in self._failures)

    def stats(self) -> dict:
        """Coordinator accounting plus every node's server stats."""
        self._ensure_open()
        per_node = {}
        for name in self._ring.nodes:
            server = self._invoke(name, lambda c: c.stats(), "stats")
            per_node[name] = {
                "rows_sent": self._rows_sent[name],
                "checkpoint_mark": self._ckpt_mark[name],
                "respawns": self._respawns[name],
                "server": server,
            }
        return {
            "nodes": len(self._ring),
            "rows_routed": self.rows_routed,
            "buffered": len(self._edge),
            "tuples_in": sum(
                info["server"]["backend"]["tuples_in"]
                for info in per_node.values()
            ),
            "rows_lost": self.rows_lost,
            "failures": [failure.to_dict() for failure in self._failures],
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

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError("Coordinator is closed")

    def close(self) -> dict:
        """Flush what can be flushed, stop every node, close every client.

        Idempotent.  Returns ``{"tuples_per_node": {name: count | -1}}``
        (-1 when a node could not report before shutdown).
        """
        if self._closed:
            return self._close_stats
        counts: dict[str, int] = {}
        unreachable = (ClientConnectionError, ConnectionError, OSError, QueryError)
        try:
            self._flush_edge()
        except unreachable:
            pass
        for name in list(self._ring.nodes):
            try:
                self._clients[name].flush()
                stats = self._clients[name].stats()
                counts[name] = stats["backend"]["tuples_in"]
            except unreachable:
                counts[name] = -1
        for client in self._clients.values():
            try:
                client.close()
            except (ClientConnectionError, ConnectionError, OSError):
                pass
        for node in self._nodes.values():
            node.stop()
        self._closed = True
        self._close_stats = {"tuples_per_node": counts}
        return self._close_stats

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

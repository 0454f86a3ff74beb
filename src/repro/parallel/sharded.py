"""Key-partitioned multi-core ingestion with merge-at-query (Section VI-B).

:class:`ShardedEngine` is the :class:`~repro.parallel.router.Router` over
``shards`` private engines placed by :func:`stable_route` of the group key, in
this thread (``processes=0``) or one worker process each
(``processes=None``: :mod:`repro.parallel.pipe`, the only case that
imports :mod:`multiprocessing`).  :class:`ShardedBackend` is that engine
behind a server.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable

from repro.core.cols import rows_to_cols
from repro.core.errors import ParameterError
from repro.dsms.schema import Schema
from repro.parallel.router import Router
from repro.parallel.routing import stable_route
from repro.parallel.worker import ShardPlan
from repro.serve.backend import SingleEngineBackend

__all__ = ["ShardedBackend", "ShardedEngine", "stable_route"]


class ShardedEngine(Router):
    """Sharded ingestion for one GSQL query.

    Parameters
    ----------
    sql / schema:
        Query text (every shard parses its own) and stream schema.
    shards / processes:
        The number of shard engines, one OS process each
        (``processes=None``) or all in this thread (``0``); a group's
        shard is :func:`stable_route` of its key.
    store_dir / store_hot_groups:
        Each shard keeps at most ``store_hot_groups`` groups in RAM and
        spills the rest to a :class:`~repro.store.tiered.TieredStore` in
        ``<store_dir>/shard<i>``, whose manifest every read publishes and
        a respawned worker recovers from.

    A dead worker is respawned from its last checkpoint and reported in
    :attr:`failures` (the router's respawn budget per shard, then
    :class:`QueryError`).
    """

    def __init__(
        self,
        sql: str,
        schema: Schema,
        shards: int = 4,
        processes: int | None = None,
        *,
        store_dir: str | None = None,
        store_hot_groups: int = 4096,
    ):
        plan = ShardPlan(
            sql, schema, store_dir=store_dir, store_hot_groups=store_hot_groups
        )
        self._open_shards(plan, shards, processes)

    def _open_shards(self, plan: ShardPlan, shards: int, processes) -> None:
        """Start the router over ``shards`` owners of ``plan``, placed by
        :func:`stable_route`."""
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards!r}")
        if processes not in (None, 0, shards):
            raise ParameterError(
                f"processes must be None (one per shard) or 0 (inline), "
                f"got {processes!r} for {shards} shard(s)"
            )
        if processes == 0:
            make_owner = lambda i: SingleEngineBackend(plan.for_shard(i))
        else:
            from repro.parallel.pipe import PipeOwner

            make_owner = lambda i: PipeOwner(plan, i)

        placement = SimpleNamespace(
            nodes=tuple(range(shards)),
            node_for=lambda key: stable_route(key, shards),
        )
        self.shards = shards
        self._processes = processes
        super().__init__(plan, placement, make_owner, checkpoint_reads=True)

    def insert_many(self, rows: Iterable[tuple]) -> None:
        """Route a batch of tuples: transposed here, once, and handed to
        :meth:`insert_cols`."""
        self.insert_cols(rows_to_cols(rows))

    def partial_states(self) -> list[bytes]:
        """One partial-state blob per shard; every read is each shard's
        checkpoint too."""
        return self._partials()

    def store_pressure(self) -> float:
        """The worst in-thread shard store's eviction pressure in
        ``[0, 1]``; worker processes report 0.0 (storeless shards are never
        pressured)."""
        return max(owner.pressure() for owner in self._owners.values())

    def checkpoint(self) -> dict:
        """Refresh every shard's recovery point: ``{"shards": n,
        "blob_bytes": [...], "rows_captured": [...]}``."""
        blobs = self.partial_states()
        return {
            "shards": self.shards,
            "blob_bytes": [len(blob) for blob in blobs],
            "rows_captured": list(self._ckpt_mark.values()),
        }

    def stats(self) -> dict:
        """Router accounting plus the shard count and per-shard respawns."""
        stats = super().stats()
        stats.update(
            shards=self.shards,
            inline=self._processes == 0,
            respawns=[info["respawns"] for info in stats["owners"].values()],
        )
        return stats

    def _close_report(self, counts: dict) -> dict:
        return {"tuples_per_shard": list(counts.values())}


class ShardedBackend(ShardedEngine):
    """A :class:`ShardedEngine` with the surface of
    :class:`~repro.serve.backend.SingleEngineBackend`."""

    kind = "sharded"

    def __init__(self, plan: ShardPlan, shards: int, processes: int | None):
        self._open_shards(plan, shards, processes)
        self.sql = self.parsed_query.sql()
        #: What the router reads is what the engines read.
        self.columns_read = self._routing.columns_read

    partial_blobs = ShardedEngine.partial_states
    pressure = ShardedEngine.store_pressure
    tuples_in = Router.rows_routed

    def checkpoint_blobs(self) -> list[bytes]:
        """Checkpoint every shard; the blobs they keep, for the server's
        checkpoint file."""
        return [blob for blobs in self._checkpoint().values() for blob in blobs]

    def restore_blobs(self, blobs: list[bytes]) -> None:
        """Adopt blob *i* into shard *i* mod n, then checkpoint them, so a
        respawn keeps it; a bad blob fails on a collector before any shard
        is sent one."""
        probe = self._plan.build_engine()
        for blob in blobs:
            probe.merge_partial(blob)
        shards = self._placement.nodes
        for index, blob in enumerate(blobs):
            self._call(shards[index % len(shards)], "restore_blobs", [blob])
        self._checkpoint()

    def stats(self) -> dict:
        """Sharded statistics plus the backend kind and columns read."""
        stats = super().stats()
        names = self.schema.names()
        stats.update(
            backend=self.kind,
            columns_read=[names[index] for index in self.columns_read],
            tuples_in=self.rows_routed,
        )
        return stats

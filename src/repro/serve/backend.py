"""Engine backends the server drives: one query, single- or sharded-core.

Both backends expose the same small surface — columnar ingest, punctuation,
non-destructive reads, and partial-state checkpoints — so
:class:`~repro.serve.server.StreamServer` never cares which one it holds.

**Query semantics.**  A served query answers over *everything ingested so
far* and leaves the engine running.  The single-engine backend finalizes a
read-only view of its one engine
(:meth:`~repro.dsms.engine.QueryEngine.snapshot_rows`): no state is
encoded, copied or moved.  The sharded backend really does hold state in
several places, so it snapshots partial states (the Section VI-B mergeable
form), folds them into one throwaway collector engine
(:func:`~repro.dsms.engine.fold_partials`), and finalizes that.  Either
way HAVING / ORDER BY / LIMIT apply to the whole, exactly like an
unsharded flush, and result order is the engine's flush order (group keys
sorted by ``repr``).

**Checkpoints.**  ``partial_blobs()`` is also the crash-recovery story:
the server persists the blobs on graceful shutdown and feeds them back via
``restore_blobs`` on start.  Restored state is held as pre-merged partials
— for the sharded backend it lives *beside* the live shards and joins at
query time, so restoring never needs to re-partition old state across
workers.
"""

from __future__ import annotations

from repro.core.errors import ParameterError
from repro.dsms.engine import ResultRow, fold_partials
from repro.dsms.schema import Schema
from repro.parallel.worker import ShardPlan

__all__ = ["SingleEngineBackend", "ShardedBackend", "build_backend"]


class _BackendBase:
    """Shared plumbing: the plan, checkpoint and pressure defaults."""

    kind = "?"

    def __init__(self, plan: ShardPlan):
        self._plan = plan
        template = plan.build_engine()
        self.sql = template.query.sql()
        self.schema: Schema = plan.schema
        #: ``QueryEngine.columns_read``: the columns of an INSERT_COLS
        #: frame the server decodes (the rest are shape-checked).
        self.columns_read = template.columns_read

    def _plan_stats(self) -> dict:
        """What every backend's ``stats()`` starts from."""
        names = self.schema.names()
        return {
            "backend": self.kind,
            "columns_read": [names[index] for index in self.columns_read],
        }

    def checkpoint_blobs(self) -> list[bytes]:
        """The blobs a graceful-shutdown checkpoint should persist.

        Defaults to :meth:`partial_blobs`; store-backed backends override
        this to checkpoint through their segment manifest instead and
        return nothing for the blob file.
        """
        return self.partial_blobs()

    def pressure(self) -> float:
        """Backend overload signal in ``[0, 1]`` for ingest backpressure.

        Storeless backends are never pressured (0.0).  Store-backed
        backends surface :meth:`~repro.store.tiered.TieredStore.pressure`
        so the server can shrink ingest credit windows when the hot tier
        thrashes instead of letting clients pile more batches on.
        """
        return 0.0


class SingleEngineBackend(_BackendBase):
    """One in-process :class:`QueryEngine` behind the server.

    With ``plan.store_dir`` set, the engine runs store-backed: groups
    beyond the hot budget live in on-disk segments (results unchanged —
    merge-at-query is exact), restarts recover from the store manifest
    at construction, and checkpoints go through
    :meth:`QueryEngine.store_checkpoint` — hot state serialized once,
    spilled state referenced where it already sits.
    """

    kind = "single"

    def __init__(self, plan: ShardPlan):
        super().__init__(plan)
        self._engine = plan.build_engine(store_dir=plan.store_dir)

    def insert_cols(self, cols: list) -> None:
        """Ingest one columnar batch through the engine's bulk path."""
        self._engine.insert_cols(cols)

    def heartbeat(self, row: tuple) -> None:
        """Advance event time via punctuation (no data)."""
        self._engine.heartbeat(row)

    def query(self) -> list[ResultRow]:
        """Results over everything ingested so far, from a read-only view."""
        return self._engine.snapshot_rows()

    def partial_blobs(self) -> list[bytes]:
        """The engine's partial state, as a one-element blob list."""
        return [self._engine.partial_state_bytes()]

    def restore_blobs(self, blobs: list[bytes]) -> None:
        """Fold checkpoint blobs back into the live engine."""
        for blob in blobs:
            self._engine.merge_partial(blob)

    @property
    def tuples_in(self) -> int:
        return self._engine.tuples_processed

    def checkpoint_blobs(self) -> list[bytes]:
        """Checkpoint through the store manifest when one is attached.

        A store-backed engine's durable state already lives in its
        segment directory; ``store_checkpoint()`` publishes the manifest
        and the server's blob file stays empty.  Storeless engines fall
        back to the blob checkpoint.
        """
        if self._engine.store is not None:
            self._engine.store_checkpoint()
            return []
        return self.partial_blobs()

    def pressure(self) -> float:
        """The attached store's eviction pressure (0.0 when storeless)."""
        store = self._engine.store
        return store.pressure() if store is not None else 0.0

    def stats(self) -> dict:
        """Backend statistics: tuples, groups, state volume."""
        stats = {
            **self._plan_stats(),
            "tuples_in": self._engine.tuples_processed,
            "tuples_selected": self._engine.tuples_selected,
            "groups": self._engine.group_count,
            "state_bytes": self._engine.state_size_bytes(),
        }
        if self._engine.store is not None:
            stats["store"] = self._engine.store.stats()
        return stats

    def close(self) -> None:
        """Close the store (if any); the engine itself needs no teardown."""
        if self._engine.store is not None:
            self._engine.store.close()


class ShardedBackend(_BackendBase):
    """A :class:`~repro.parallel.sharded.ShardedEngine` behind the server.

    Restored checkpoint blobs are kept as a side table of pre-merged
    partials; queries and new checkpoints fold them together with the
    live shard states, so a restart mid-stream answers identically to an
    uninterrupted run.
    """

    kind = "sharded"

    def __init__(self, plan: ShardPlan, shards: int, processes: int | None):
        # Only a sharded server pays for the shard machinery
        # (multiprocessing and its queues).
        from repro.parallel.sharded import ShardedEngine, stable_route

        super().__init__(plan)
        self._restored: list[bytes] = []
        self._sharded = ShardedEngine(
            plan.sql,
            plan.schema,
            shards=shards,
            processes=processes,
            two_level=plan.two_level,
            low_table_size=plan.low_table_size,
            registry_factory=plan.registry_factory,
            registry_params=plan.registry_params,
            router=stable_route,
            store_dir=plan.store_dir,
            store_hot_groups=plan.store_hot_groups,
        )

    def insert_cols(self, cols: list) -> None:
        """Partition one columnar batch across the shards column-wise."""
        self._sharded.insert_cols(cols)

    def heartbeat(self, row: tuple) -> None:
        """Broadcast punctuation to every shard."""
        self._sharded.heartbeat_all(row)

    def query(self) -> list[ResultRow]:
        """Merged results over everything ingested so far (non-destructive)."""
        return fold_partials(self._plan.build_engine, self.partial_blobs())

    def partial_blobs(self) -> list[bytes]:
        """Restored checkpoint blobs plus live per-shard states."""
        return list(self._restored) + self._sharded.partial_states()

    def restore_blobs(self, blobs: list[bytes]) -> None:
        """Adopt checkpoint blobs as pre-merged partials beside the shards."""
        # Validate eagerly (wrong query/schema must fail at restore time,
        # not at the first query) by test-merging into one throwaway
        # collector; keep the raw bytes for query-time folds.
        probe = self._plan.build_engine()
        for blob in blobs:
            probe.merge_partial(blob)
        self._restored.extend(bytes(blob) for blob in blobs)

    @property
    def tuples_in(self) -> int:
        return self._sharded.rows_routed

    def pressure(self) -> float:
        """The worst shard store's eviction pressure (inline shards only)."""
        return self._sharded.store_pressure()

    def stats(self) -> dict:
        """Backend statistics: per-shard routing counts plus totals."""
        stats = self._sharded.stats()
        stats.update(
            self._plan_stats(),
            tuples_in=self._sharded.rows_routed,
            restored_blobs=len(self._restored),
        )
        return stats

    def close(self) -> None:
        """Shut down the sharded engine (workers, queues)."""
        self._sharded.close()


def build_backend(
    sql: str,
    schema: Schema,
    *,
    shards: int = 0,
    processes: int | None = 0,
    two_level: bool = True,
    low_table_size: int = 4096,
    registry_params: dict | None = None,
    store_dir: str | None = None,
    store_hot_groups: int = 4096,
):
    """Build the serving backend for one query.

    ``shards=0`` (the default) serves from a single in-process engine;
    ``shards>=1`` builds a :class:`ShardedBackend` with that many
    partitions (``processes=0`` keeps the shards inline — deterministic
    and CI-safe; ``None`` runs one OS process per shard).

    ``store_dir`` turns on tiered group-state storage (:mod:`repro.store`):
    each engine keeps at most ``store_hot_groups`` groups in RAM and
    spills the rest to segment files under the directory (per-shard
    subdirectories when sharded).  Results are unchanged — spilled groups
    fold back in exactly at query time — and restarts recover from the
    store manifest instead of the blob checkpoint.
    """
    if shards < 0:
        raise ParameterError(f"shards must be >= 0, got {shards!r}")
    plan = ShardPlan(
        sql=sql,
        schema=schema,
        two_level=two_level,
        low_table_size=low_table_size,
        registry_params=dict(registry_params or {}),
        store_dir=store_dir,
        store_hot_groups=store_hot_groups,
    )
    if shards == 0:
        return SingleEngineBackend(plan)
    return ShardedBackend(plan, shards=shards, processes=processes)

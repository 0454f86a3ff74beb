"""Engine backends the server drives: one query, single- or sharded-core.

Both expose one surface (ingest, a non-destructive
``query()``, partial-state blobs, checkpoints, adoption, pressure), so
:class:`~repro.serve.server.StreamServer` never cares which it holds.
:class:`SingleEngineBackend` reads its one engine in place and is also
the router's in-thread owner; the sharded backend is the router itself
(:class:`~repro.parallel.sharded.ShardedBackend`).
"""

from __future__ import annotations

from repro.core.errors import ParameterError
from repro.dsms.engine import ResultRow
from repro.dsms.schema import Schema
from repro.parallel.worker import ShardPlan

__all__ = ["SingleEngineBackend", "build_backend"]


class SingleEngineBackend:
    """One in-process :class:`QueryEngine` behind the server; with
    ``plan.store_dir`` it spills groups past the hot budget to segments,
    recovers from the store manifest at construction and checkpoints
    through it (:meth:`QueryEngine.store_checkpoint`)."""

    kind = "single"

    def __init__(self, plan: ShardPlan):
        self._engine = engine = plan.build_engine(store_dir=plan.store_dir)
        self.sql = engine.query.sql()
        self.schema: Schema = plan.schema
        #: ``QueryEngine.columns_read``: the columns of an INSERT_COLS
        #: frame the server decodes (the rest are shape-checked).
        self.columns_read = engine.columns_read

    def insert_cols(self, cols: list) -> None:
        """Ingest one columnar batch through the engine's bulk path."""
        self._engine.insert_cols(cols)

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
        """The blobs to persist: none for a store-backed engine, whose
        published manifest is its checkpoint; else the partial state."""
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
        names = self.schema.names()
        stats = {
            "backend": self.kind,
            "columns_read": [names[index] for index in self.columns_read],
            "tuples_in": self._engine.tuples_processed,
            "tuples_selected": self._engine.tuples_selected,
            "groups": self._engine.group_count,
            "state_bytes": self._engine.state_size_bytes(),
        }
        if self._engine.store is not None:
            stats["store"] = self._engine.store.stats()
        return stats

    def close(self) -> int:
        """Close the store (if any); returns the rows the engine ingested."""
        if self._engine.store is not None:
            self._engine.store.close()
        return self._engine.tuples_processed


def build_backend(
    sql: str,
    schema: Schema,
    *,
    shards: int = 0,
    processes: int | None = 0,
    registry_params: dict | None = None,
    store_dir: str | None = None,
    store_hot_groups: int = 4096,
):
    """Build the serving backend for one query: one in-process engine
    (``shards=0``) or a :class:`~repro.parallel.sharded.ShardedBackend`
    with that many shards, in this thread (``processes=0``) or one OS
    process each (``None``).  ``store_dir`` spills all but
    ``store_hot_groups`` groups per engine to segments under it (a
    ``shard<i>`` subdirectory per shard), with unchanged results."""
    if shards < 0:
        raise ParameterError(f"shards must be >= 0, got {shards!r}")
    plan = ShardPlan(
        sql=sql,
        schema=schema,
        registry_params=dict(registry_params or {}),
        store_dir=store_dir,
        store_hot_groups=store_hot_groups,
    )
    if shards == 0:
        return SingleEngineBackend(plan)
    from repro.parallel.sharded import ShardedBackend

    return ShardedBackend(plan, shards=shards, processes=processes)

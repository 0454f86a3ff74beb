"""Shard worker: one process, one private :class:`QueryEngine`.

The worker side of :class:`repro.parallel.sharded.ShardedEngine`.  Each
worker rebuilds its engine from a :class:`ShardPlan` — query *text*, schema,
and registry configuration, never compiled closures — so the plan pickles
under any multiprocessing start method (fork, spawn, forkserver).

Protocol (messages on the worker's bounded input queue, in order):

``("colb", packed_bytes)``
    Ingest one batch — the only data message: the payload is a
    :func:`repro.core.cols.pack_cols` byte string, unpacked here and fed
    through the engine's ``insert_cols`` kernel — typed column blocks
    cross the process boundary as raw bytes, never as pickled tuples.
``("heartbeat", row)``
    Advance event time via the engine's ``heartbeat`` — punctuation, not
    data.  No reply; ordering relative to earlier batches is preserved
    because both travel the same queue.
``("merge", blob)``
    Fold a serde-encoded partial state into the engine — how the
    supervisor re-seeds a respawned worker from the shard's most recent
    checkpoint before any new batches arrive.  No reply.
``("state",)``
    Reply on the result pipe with ``("state", partial_state_bytes)`` —
    the serde-encoded snapshot of everything ingested so far.  The worker
    keeps its state and keeps ingesting: merge-at-query, not
    merge-per-batch.
``("drain",)``
    Reply ``("drained", [ResultRow, ...])`` with the result rows of time
    buckets the engine has closed so far (cleared on read, exactly like
    :meth:`~repro.dsms.engine.QueryEngine.drain`).
``("stop",)``
    Reply ``("stopped", tuples_in)`` and exit.

Any exception inside the loop is reported as ``("error", message)`` on the
result pipe before the worker exits, so the parent can surface it instead
of deadlocking on a silent child death.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cols import unpack_cols
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Schema
from repro.dsms.udaf import UdafRegistry, default_registry

__all__ = ["ShardPlan", "shard_worker_main"]


@dataclass(frozen=True)
class ShardPlan:
    """Everything a worker needs to rebuild the shared query plan.

    ``registry_factory`` must be picklable (a module-level callable) when
    the spawn start method is in play; under fork anything works.  The
    default is :func:`repro.dsms.udaf.default_registry` with
    ``registry_params`` as keyword arguments, which covers every builtin
    and adapter aggregate.

    ``store_dir`` configures tiered group-state storage (see
    :mod:`repro.store`): each shard worker owns the subdirectory
    ``<store_dir>/shard<i>``, so spilled segments double as the shard's
    checkpoint substrate.  The plan only *carries* the configuration —
    engines get a store when the caller asks for one via
    :meth:`build_engine`, so collector engines built from the same plan
    stay plain dict-backed.
    """

    sql: str
    schema: Schema
    two_level: bool = True
    low_table_size: int = 4096
    registry_factory: Callable[..., UdafRegistry] = default_registry
    registry_params: dict = field(default_factory=dict)
    emit_on_bucket_change: bool = False
    store_dir: str | None = None
    store_hot_groups: int = 4096
    store_segment_bytes: int = 4 << 20

    def shard_store_dir(self, shard_id: int) -> str | None:
        """The store directory one shard worker owns (None when storeless)."""
        if self.store_dir is None:
            return None
        return os.path.join(self.store_dir, f"shard{shard_id}")

    def build_engine(self, store_dir: str | None = None) -> QueryEngine:
        """Parse the query with a freshly built registry and plan it.

        Each worker gets private UDAF instances (samplers count per-group
        RNG streams on the UDAF object), so shards never share mutable
        plan state.  ``store_dir`` attaches a fresh
        :class:`~repro.store.tiered.TieredStore` over that directory
        (recovering its manifest if one exists); the default builds a
        plain all-RAM engine — what query-time collectors want.
        """
        registry = self.registry_factory(**self.registry_params)
        query = parse_query(self.sql, registry)
        store = None
        if store_dir is not None:
            from repro.store import TieredStore

            store = TieredStore(
                store_dir,
                hot_groups=self.store_hot_groups,
                segment_bytes=self.store_segment_bytes,
            )
        return QueryEngine(
            query,
            self.schema,
            two_level=self.two_level,
            low_table_size=self.low_table_size,
            emit_on_bucket_change=self.emit_on_bucket_change,
            store=store,
        )


def shard_worker_main(plan: ShardPlan, shard_id: int, in_queue, conn) -> None:
    """Run one shard's ingest loop until ``("stop",)`` arrives.

    ``in_queue`` is a bounded ``multiprocessing.Queue`` (the backpressure
    boundary: the parent's ``put`` blocks when this worker falls behind);
    ``conn`` is the worker end of a one-way ``multiprocessing.Pipe``.
    Runs equally well in-process (the inline ``processes=0`` mode and the
    unit tests drive it with pre-loaded queues).
    """
    try:
        engine = plan.build_engine(store_dir=plan.shard_store_dir(shard_id))
        while True:
            message = in_queue.get()
            tag = message[0]
            if tag == "colb":
                engine.insert_cols(
                    unpack_cols(message[1], engine.columns_read)[0]
                )
            elif tag == "heartbeat":
                engine.heartbeat(message[1])
            elif tag == "merge":
                engine.merge_partial(message[1])
            elif tag == "state":
                blob = engine.partial_state_bytes()
                if engine.store is not None:
                    # Make the manifest durable before acknowledging: the
                    # parent treats a state reply as this shard's recovery
                    # point, and a store-backed respawn recovers from the
                    # segments, not from a re-shipped blob.
                    engine.store_checkpoint()
                conn.send(("state", blob))
            elif tag == "drain":
                conn.send(("drained", engine.drain()))
            elif tag == "stop":
                if engine.store is not None:
                    engine.store.close()
                conn.send(("stopped", engine.tuples_processed))
                break
            else:
                raise ValueError(f"unknown shard message {tag!r}")
    except Exception as error:
        try:
            conn.send(("error", f"shard {shard_id}: {error}"))
        except (OSError, ValueError):
            pass
    finally:
        conn.close()

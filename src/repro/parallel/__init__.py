"""Multi-core sharded ingestion (the Section VI-B merge property, for real).

:class:`~repro.parallel.sharded.ShardedEngine` hash-partitions a stream by
GROUP BY key across shard worker processes, each running a private
:class:`~repro.dsms.engine.QueryEngine`, and answers queries by merging
serde-encoded partial states — the parallel pattern the paper's fixed
numerators make exact.  The same mergeability powers the supervisor: a
dead worker is respawned and re-seeded from its last checkpointed partial
state, with the lost delta reported as a
:class:`~repro.parallel.supervision.ShardFailure`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".routing": ("GroupKeyRouter", "stable_route", "validate_mergeable"),
        ".sharded": ("ShardedEngine",),
        ".supervision": ("ShardFailure",),
        ".worker": ("ShardPlan", "shard_worker_main"),
    },
)

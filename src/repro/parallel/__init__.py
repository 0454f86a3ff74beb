"""Partitioned ingestion: the one router (Section VI-B merge-at-query).

:class:`~repro.parallel.router.Router` routes columnar batches by GROUP
BY key to owners and folds their partial states at query time;
:class:`~repro.parallel.sharded.ShardedEngine` is the router over shard
engines in this thread or in worker processes (DESIGN.md §5).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".routing": ("GroupKeyRouter", "stable_route", "validate_mergeable"),
        ".router": ("OwnerFailure", "Router"),
        ".sharded": ("ShardedEngine",),
        ".worker": ("ShardPlan",),
        ".pipe": ("shard_worker_main",),
    },
)

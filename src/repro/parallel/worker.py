"""The pickle-safe plan every owner of one query builds its engine from."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Schema
from repro.dsms.udaf import default_registry

__all__ = ["ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """Everything an owner needs to rebuild the shared query plan.

    Query *text*, schema and the default registry's parameters — never
    compiled closures — so it pickles under any start method.  The plan
    only *carries* the store configuration: an engine gets a store when
    :meth:`build_engine` is asked for one, so collectors stay all-RAM.
    """

    sql: str
    schema: Schema
    registry_params: dict = field(default_factory=dict)
    store_dir: str | None = None
    store_hot_groups: int = 4096

    def for_shard(self, shard_id: int) -> "ShardPlan":
        """The plan of one shard: its store, if any, is the subdirectory
        ``<store_dir>/shard<i>`` that shard owns."""
        if self.store_dir is None:
            return self
        return replace(
            self, store_dir=os.path.join(self.store_dir, f"shard{shard_id}")
        )

    def build_engine(self, store_dir: str | None = None) -> QueryEngine:
        """A fresh engine with private UDAF instances; ``store_dir``
        attaches a :class:`~repro.store.tiered.TieredStore` over it
        (recovering its manifest), else the engine is all-RAM."""
        registry = default_registry(**self.registry_params)
        query = parse_query(self.sql, registry)
        store = None
        if store_dir is not None:
            from repro.store import TieredStore

            store = TieredStore(store_dir, hot_groups=self.store_hot_groups)
        return QueryEngine(query, self.schema, store=store)


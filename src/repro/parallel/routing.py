"""Group-key routing shared by the sharded engine and the cluster tier.

Section VI-B's fixed-numerator decomposition means *where* a tuple lands
never affects the answer — merge-at-query folds same-key partials from
any placement.  Routing is therefore purely a performance and balance
concern, and both partitioned runtimes want the same machinery:

* :class:`GroupKeyRouter` evaluates the GROUP BY expressions (or a
  designated ``shard_key`` column) to produce one routing key per row of
  a columnar batch, and :meth:`~GroupKeyRouter.partition` splits the
  batch into one column slice per owner — the one partitioner both
  runtimes ship from (the columns an owner's engine reads, no others);
* :func:`stable_route` maps a key to one of ``n`` integer shards,
  deterministically across processes and hosts (blake2b, not the
  per-interpreter builtin ``hash``);
* :func:`validate_mergeable` rejects queries whose per-group state has
  no merge rule at plan time — a partitioned run of those could not
  match any single-stream semantics.

:class:`~repro.parallel.sharded.ShardedEngine` routes keys to worker
indexes with a modulus; :class:`repro.cluster.HashRing` routes the same
keys to named nodes with consistent hashing.  Sharing the key
computation keeps the two tiers' placements built from identical key
material.
"""

from __future__ import annotations

from repro.core.cols import row_count, take_rows
from repro.core.errors import QueryError
from repro.core.protocol import StreamSummary
from repro.dsms.engine import QueryEngine
from repro.dsms.schema import Schema

from repro.sketches.kmv import hash_to_unit

__all__ = ["GroupKeyRouter", "stable_route", "validate_mergeable"]


def stable_route(key: object, shards: int) -> int:
    """Deterministic shard assignment (blake2b, not builtin ``hash``).

    Stable across processes, runs, and hosts — what the benchmarks use so
    per-shard numbers are reproducible.  The builtin-``hash`` default is
    faster but randomized per interpreter for strings.
    """
    return int(hash_to_unit(key) * shards) % shards


def validate_mergeable(template: QueryEngine) -> None:
    """Reject queries whose per-group state cannot merge.

    Mergeable builtins merge by definition; sketch adapters merge via
    their :class:`StreamSummary` state.  Sampler states (reservoir and
    friends) keep RNG-path-dependent state with no merge rule, so a
    partitioned run could not match any single-stream semantics — fail
    at plan time with a clear message rather than at the first query.
    """
    for plan in template._agg_plans:
        if plan.udaf.mergeable:
            continue
        probe = plan.udaf.create()
        if (
            not isinstance(probe, StreamSummary)
            or type(probe).merge is StreamSummary.merge
        ):
            raise QueryError(
                f"aggregate {plan.udaf.name!r} (select item "
                f"{plan.alias!r}) has unmergeable state and cannot be "
                "sharded; run it on a single engine"
            )


class GroupKeyRouter:
    """Per-tuple routing keys for one query over one schema.

    Evaluates the compiled GROUP BY expressions — or, when ``shard_key``
    names a schema column, just indexes that column — to produce the key
    a placement function maps to a shard or node.  Batches route in
    columns (:meth:`partition`); :meth:`owner` places one tuple — a
    heartbeat marker.

    ``keyed`` is False when the query has no GROUP BY and no
    ``shard_key``: a single global group, where any placement merges
    correctly, so rows are dealt round-robin over the owners (one
    counter, continued across calls).
    """

    def __init__(self, query, schema: Schema, shard_key: str | None = None):
        self._group_col_fns = tuple(
            g.expression.compile_cols(schema) for g in query.group_by
        )
        read = set(map(schema.index_of, query.columns()))
        if shard_key is not None:
            self._shard_index: int | None = schema.index_of(shard_key)
            read.add(self._shard_index)
        else:
            self._shard_index = None
        #: Schema indices an owner is sent: its engine's ``columns_read``
        #: plus the ``shard_key`` column; the rest travel as zeros.
        self.columns_read = tuple(sorted(read))
        self._zeros = [
            None if index in read else field.type.python_type()()
            for index, field in enumerate(schema.fields)
        ]
        self._round_robin = 0

    @property
    def keyed(self) -> bool:
        """False when every tuple belongs to the single global group."""
        return self._shard_index is not None or bool(self._group_col_fns)

    def keys(self, cols: list, count: int) -> list:
        """Routing key per row of a columnar batch (when :attr:`keyed`)."""
        if self._shard_index is not None:
            return cols[self._shard_index]
        fns = self._group_col_fns
        if len(fns) == 1:
            return fns[0](cols, count)
        return list(zip(*(fn(cols, count) for fn in fns)))

    def owner(self, row: tuple, place, owners):
        """The owner of one tuple: that of the one-row batch it makes."""
        return next(self.partition([[value] for value in row], place, owners))[0]

    def partition(self, cols: list, place, owners):
        """Split a columnar batch by owner: ``(owner, part_cols, count)``.

        ``cols`` is one equal-length list per schema field (ragged
        raises :class:`QueryError`, empty yields nothing).  Row ``i``
        goes to ``place(keys[i])`` — ``owners`` in turn when not
        :attr:`keyed` — in arrival order.  A part holds the owner's rows
        of the :attr:`columns_read` columns (a single-owner batch's own
        lists, not copied) and ``count`` zeros of its type for every
        other field: an owner cannot vouch for what it is not sent, so
        check a batch against the schema first.  ``place`` is asked once
        per distinct key of the batch and its answers forgotten with
        the call, so a membership change needs no invalidation.
        """
        count = row_count(cols, QueryError)
        if count == 0:
            return
        zeros = self._zeros
        if len(cols) != len(zeros):
            raise QueryError(
                f"batch has {len(cols)} columns, schema has {len(zeros)}"
            )
        picks: dict = {}
        if self.keyed:
            keys = self.keys(cols, count)
            owner_of = {key: place(key) for key in dict.fromkeys(keys)}
            for i, key in enumerate(keys):
                picks.setdefault(owner_of[key], []).append(i)
        else:
            start = self._round_robin
            self._round_robin = start + count
            n = len(owners)
            for offset in range(min(n, count)):
                picks[owners[(start + offset) % n]] = range(offset, count, n)
        for owner, indices in picks.items():
            size = len(indices)
            take = (lambda column: column) if size == count else take_rows(indices)
            yield owner, [
                take(column) if zero is None else [zero] * size
                for column, zero in zip(cols, zeros)
            ], size

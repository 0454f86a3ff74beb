"""Group-key routing for the router (:mod:`repro.parallel.router`).

Section VI-B's fixed numerators mean *which* owner holds a group never
affects the answer, so placement is a balance concern only; every row of
a group goes to that one owner in stream order, so not even a float sum
is reassociated.  :class:`GroupKeyRouter` computes each row's group key
(its GROUP BY values, or ``()``) and :meth:`~GroupKeyRouter.partition`
splits a batch into one column slice per owner; :func:`stable_route`
places a key by its :func:`~repro.core.groups.group_hash`;
:func:`validate_mergeable` refuses, at plan time, a query whose
per-group state has no merge rule.
"""

from __future__ import annotations

from repro.core.cols import take_rows
from repro.core.errors import QueryError
from repro.core.groups import group_hash
from repro.core.protocol import StreamSummary
from repro.dsms.engine import QueryEngine
from repro.dsms.schema import Schema

__all__ = ["GroupKeyRouter", "stable_route", "validate_mergeable"]


def stable_route(key: tuple, shards: int) -> int:
    """The shard of group ``key``: the high bits of its group hash, so
    stable across processes, runs and hosts (the store's key directory
    indexes by the low bits)."""
    return (group_hash(key) * shards) >> 64


def validate_mergeable(template: QueryEngine) -> None:
    """Reject, at plan time, a query whose per-group state has no merge
    rule (the samplers' RNG-path-dependent state): a partitioned run of
    it could match no single-stream semantics."""
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
    """Routing keys for one query over one schema: the compiled GROUP BY
    expressions, as the engine's own key tuples.  A query without them
    has one group, so every row has the one key ``()`` and is placed like
    any other key: all of a group's rows meet on one owner, in stream
    order."""

    def __init__(self, query, schema: Schema):
        self._group_col_fns = tuple(
            g.expression.compile_cols(schema) for g in query.group_by
        )
        read = set(map(schema.index_of, query.columns()))
        #: Schema indices an owner is sent: its engine's ``columns_read``;
        #: the rest travel as zeros.
        self.columns_read = tuple(sorted(read))
        self._zeros = [
            None if index in read else field.type.python_type()()
            for index, field in enumerate(schema.fields)
        ]

    def keys(self, cols: list, count: int) -> list:
        """Group key tuple per row of a columnar batch."""
        fns = self._group_col_fns
        if not fns:
            return [()] * count
        return list(zip(*(fn(cols, count) for fn in fns)))

    def partition(self, cols: list, place):
        """Split a batch checked against the schema by owner, yielding
        ``(owner, part_cols, count)``: row ``i`` goes to ``place(keys[i])``,
        in arrival order.  A part holds the owner's rows of the
        :attr:`columns_read` columns (a single-owner batch's own lists)
        and zeros of the field's type for every other field.  ``place`` is
        asked once per distinct key and its answers forgotten, so
        membership changes need no invalidation.
        """
        count = len(cols[0]) if cols else 0
        if count == 0:
            return
        zeros = self._zeros
        keys = self.keys(cols, count)
        owner_of = {key: place(key) for key in dict.fromkeys(keys)}
        picks: dict = {}
        for i, key in enumerate(keys):
            picks.setdefault(owner_of[key], []).append(i)
        for owner, indices in picks.items():
            size = len(indices)
            take = (lambda column: column) if size == count else take_rows(indices)
            yield owner, [
                take(column) if zero is None else [zero] * size
                for column, zero in zip(cols, zeros)
            ], size

"""The stream query engine: grouping, aggregation, two-level splitting.

Reproduces the execution architecture the paper's experiments exercise
(Section VIII):

* **Two-level aggregation** — GS "splits the query into a low-level part
  performing partial aggregation using a fixed-size hash table and a
  super-aggregation query combining partial results".  Figure 2(a)
  measures that split and Figure 2(b) runs without it; both time the
  per-tuple path (``bench.harness.time_query``).  ``two_level=True``
  keeps mergeable aggregates in a bounded low-level table whose evicted
  partials merge upward into the unbounded high-level table.  An engine
  is one-level by default, and one behind a store always is: the low
  table's evictions reassociate float sums, so only the one-level engine
  answers byte-identically to any partition of its stream.
* **High-level-only UDAFs** — queries whose aggregates are not mergeable
  (the sketch/sampler adapters, like the paper's C UDAFs) bypass the
  low level automatically.
* **Tumbling time buckets** — when the first GROUP BY key is a time bucket
  (``time/60 AS tb``), :func:`run_query` emits a bucket's results when a
  tuple from a later bucket arrives, matching GS's time-bucket semantics.
  The engine itself keeps no clock: its groups carry fixed-numerator
  state, so it only ever finalizes everything at once (:meth:`flush`).

The engine compiles every expression to a closure once at plan time; the
per-tuple path is dictionary lookups and closure calls only, which is what
the benchmark harness measures.
"""

from __future__ import annotations

import copy
import struct
from typing import Callable, Iterable, Iterator

from repro.core.cols import block_name, block_values, open_cols, pack_cols, pack_column
from repro.core.cols import read_column, row_count, take_rows, unpack_cols
from repro.core.errors import MergeError, ProtocolError, QueryError
from repro.core.groups import SUMMARY_SLOT, group_columns, group_states, shared_nans
from repro.core.protocol import StreamSummary, summary_type_of
from repro.core.serde import PARTIAL_STATE, seal, unseal
from repro.dsms.expressions import compile_shared, labelled, named
from repro.dsms.parser import Query, SelectItem
from repro.dsms.schema import Schema

__all__ = [
    "QueryEngine",
    "ResultRow",
    "run_query",
    "fold_partials",
    "describe_partial_state",
    "PARTIAL_STATE_VERSION",
]

ResultRow = dict[str, object]

#: The version sealed into every :meth:`QueryEngine.partial_state_bytes`
#: buffer; bumped whenever the partial-state layout changes (1 was tagged
#: JSON, 2 held no integral ``f64`` column at an int width, 3 carried an
#: open time bucket, 4 framed itself, 7 could hold a JSON ``tagged``
#: column), so a build refuses any other.
PARTIAL_STATE_VERSION = PARTIAL_STATE.version

#: tuples_in, tuples_selected, low_evictions, groups, header texts,
#: aggregates — see ``partial_state_bytes``.
_PARTIAL_HEAD = struct.Struct("!QQQIHH")

#: Capacity of the fixed-size low-level table of a two-level engine: a new
#: group arriving at a full table evicts one partial up to the high level.
LOW_TABLE_SIZE = 4096


class _AggPlan:
    """Compiled form of one aggregate select item."""

    __slots__ = ("udaf", "args", "alias", "post_fn")

    def __init__(self, item: SelectItem, schema: Schema):
        aggregate = item.aggregate
        assert aggregate is not None
        self.udaf = aggregate.udaf
        self.args = aggregate.args
        self.alias = item.alias
        if item.post is not None:
            from repro.dsms.schema import Field, FieldType

            post_schema = Schema([Field("__agg__", FieldType.FLOAT)])
            compiled = item.post.compile(post_schema)
            self.post_fn: Callable | None = lambda value: compiled((value,))
        else:
            self.post_fn = None


class QueryEngine:
    """Executes one parsed query over a stream of tuples.

    Parameters
    ----------
    query:
        Parsed :class:`~repro.dsms.parser.Query`.
    schema:
        Schema of the source stream.
    two_level:
        Enable the low-level partial-aggregation table of
        :data:`LOW_TABLE_SIZE` groups (only effective when every aggregate
        in the query is mergeable): the Fig. 2(a) engine.  Off by default;
        refused together with ``store``.
    store:
        Optional :class:`~repro.store.tiered.TieredStore`, handed the
        engine's group table when it is built.  It bounds how many groups
        stay in RAM: cold groups spill to on-disk segments, and every
        table miss asks ``store.fault_in`` before it creates a group and
        files a cold one under the key it was stored under, so results
        stay byte-identical to the all-RAM engine (see
        :mod:`repro.store`).  A store-backed engine is one-level.  None
        (the default) keeps every group in RAM.
    """

    def __init__(
        self,
        query: Query,
        schema: Schema,
        two_level: bool = False,
        store=None,
    ):
        if two_level and store is not None:
            raise QueryError(
                "a store-backed engine is one-level: two_level=True keeps "
                "the Fig. 2(a) low table, which has no tiered storage"
            )
        self.query = query
        self.schema = schema
        self._validate()
        #: Schema indices WHERE, GROUP BY and aggregate arguments name,
        #: ascending.  No other column of a batch is ever looked at, so a
        #: transport may leave the rest undecoded (``core.cols.unpack_cols``).
        self.columns_read = tuple(sorted(map(schema.index_of, query.columns())))
        self._where_fn = query.where.compile(schema) if query.where else None
        self._group_fns = tuple(g.expression.compile(schema) for g in query.group_by)
        self._cols_plan: tuple | None = None  # built on first insert_cols
        self._group_aliases = tuple(g.alias for g in query.group_by)
        self._agg_plans = tuple(
            _AggPlan(item, schema) for item in query.select if item.is_aggregate
        )
        # The aggregate arguments, each distinct expression once, and per
        # aggregate the slots of those it takes.  Both ingest paths
        # evaluate the group keys, then these, before touching any state;
        # a failure names its expression by ``_eval_labels``: the group
        # key, or the first select item using the argument.
        distinct: dict = {}
        self._arg_slots = tuple(
            tuple(distinct.setdefault(arg, len(distinct)) for arg in plan.args)
            for plan in self._agg_plans
        )
        self._args = tuple(distinct)
        items = {a: p.alias for p in self._agg_plans[::-1] for a in p.args}
        self._eval_labels = (
            *(f"group key {g.alias!r}" for g in query.group_by),
            *(f"select item {items[arg]!r}" for arg in distinct),
        )
        self._row_fns = tuple(
            zip(
                self._eval_labels,
                (*self._group_fns, *(arg.compile(schema) for arg in distinct)),
            )
        )
        self._select_order = tuple(item.alias for item in query.select)
        # Non-aggregate select items other than the GROUP BY aliases are
        # functions of the group key, compiled over its aliases here so a
        # non-grouped column fails when the engine is built.
        self._plain_items = tuple(
            (item.alias, self._compile_over(
                item.expression, self._group_aliases,
                f"select item {item.alias!r} references non-grouped columns ",
            ))
            for item in query.select
            if not item.is_aggregate and item.alias not in self._group_aliases
        )
        # HAVING / ORDER BY run over output aliases; compiled here so a
        # clause naming an unknown alias fails when the engine is built.
        # Each entry: (clause text for error messages, row -> value, ...).
        self._having = (
            (f"HAVING {query.having.sql()}",
             self._compile_output_expression(query.having))
            if query.having is not None else None
        )
        self._order = tuple(
            (f"ORDER BY {key.expression.sql()}",
             self._compile_output_expression(key.expression), key.descending)
            for key in query.order_by
        )
        self._all_mergeable = all(p.udaf.mergeable for p in self._agg_plans)
        self.two_level = two_level and self._all_mergeable and bool(self._agg_plans)
        # group key -> list of aggregate states (parallel to _agg_plans)
        self._high: dict[tuple, list] = {}
        self._low: dict[tuple, list] = {}
        self._tuples_in = 0
        self._tuples_selected = 0
        self._low_evictions = 0
        self._store = store
        if store is not None:
            manifest = store.attach(self._high, self._store_fields())
            if manifest is not None:
                self._tuples_in = manifest["tuples_in"]
                self._tuples_selected = manifest["tuples_selected"]
                self._low_evictions = manifest["low_evictions"]
                for plan, counter in zip(self._agg_plans, manifest["udaf_counters"]):
                    if counter is not None:
                        plan.udaf._counter = counter

    # -- statistics ---------------------------------------------------------------

    @property
    def tuples_processed(self) -> int:
        """Tuples offered to the engine."""
        return self._tuples_in

    @property
    def tuples_selected(self) -> int:
        """Tuples passing the WHERE clause."""
        return self._tuples_selected

    @property
    def low_evictions(self) -> int:
        """Partial-state evictions from the low-level table."""
        return self._low_evictions

    @property
    def group_count(self) -> int:
        """Number of live groups (low + high level, plus spilled groups).
        A store-backed engine is one-level and its hot and cold groups are
        disjoint: its count reads no page."""
        if self._store is not None:
            return len(self._high) + self._store.cold_count
        return len(self._high.keys() | self._low.keys())

    @property
    def store(self):
        """The attached :class:`~repro.store.tiered.TieredStore`, or None."""
        return self._store

    def _validate(self) -> None:
        if not self.query.select:
            raise QueryError("query selects nothing")
        for clause, expression in (
            ("WHERE", self.query.where),
            *(("GROUP BY", g.expression) for g in self.query.group_by),
        ):
            if expression is None:
                continue
            unknown = [c for c in expression.columns() if c not in self.schema]
            if unknown:
                raise QueryError(
                    f"{clause} references unknown stream column(s) {unknown}; "
                    f"stream has {self.schema.names()}"
                )
        for item in self.query.select:
            if item.aggregate is None:
                continue
            for argument in item.aggregate.args:
                unknown = [c for c in argument.columns() if c not in self.schema]
                if unknown:
                    raise QueryError(
                        f"aggregate {item.aggregate.udaf.name!r} references "
                        f"unknown stream column(s) {unknown}"
                    )
        group_aliases = {g.alias for g in self.query.group_by}
        for item in self.query.select:
            if item.is_aggregate:
                continue
            assert item.expression is not None
            for column in item.expression.columns():
                if column not in self.schema and column not in group_aliases:
                    raise QueryError(
                        f"select column {column!r} is neither a stream field "
                        "nor a GROUP BY alias"
                    )

    # -- per-tuple path -------------------------------------------------------------

    def process(self, row: tuple) -> None:
        """Offer one stream tuple to the query.

        WHERE, the group key and every aggregate argument are evaluated
        before the row is counted or a table touched, and a failure names
        its expression as the batch kernel's does: a row that raises
        leaves the engine as it was, on either path.
        """
        self._apply_row(self._eval_row(row))

    def _apply_row(self, values: list | None) -> None:
        """The stateful half of :meth:`process`: count one row
        :meth:`_eval_row` evaluated and fold it into its group."""
        self._tuples_in += 1
        if values is None:
            return
        self._tuples_selected += 1
        width = len(self._group_fns)
        # Every NaN part is the one shared NaN before it keys a table.
        key = tuple(shared_nans(values[:width]))
        args = [
            tuple(values[width + slot] for slot in slots)
            for slots in self._arg_slots
        ]
        if self.two_level:
            self._process_low(key, args)
            return
        high = self._high
        store = self._store
        states = high.get(key)
        if states is None:
            if store is None or (cold := store.fault_in(key)) is None:
                high[key] = states = [plan.udaf.create() for plan in self._agg_plans]
            else:
                high[cold[0]] = states = cold[1]
        self._update_states(states, args)
        if store is not None:
            store.observe_batch([key])

    def _eval_row(self, row: tuple) -> list | None:
        """The group key parts then the distinct aggregate arguments of
        one row, or None when WHERE drops it."""
        label = "where clause"
        try:
            if self._where_fn is not None and not self._where_fn(row):
                return None
            values = []
            for label, fn in self._row_fns:
                values.append(fn(row))
        except (ArithmeticError, ValueError) as error:
            raise labelled(error, label) from error
        return values

    def insert_many(self, rows: Iterable[tuple]) -> None:
        """Offer a batch of stream tuples; identical results to per-tuple
        :meth:`process`, at lower per-tuple cost.

        The batch is transposed and handed to :meth:`insert_cols` — the
        engine's one batch kernel — so everything said there about update
        order and bit-identity with :meth:`process` holds here.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if rows:
            self.insert_cols(list(zip(*rows)))

    # -- columnar path ------------------------------------------------------------

    def _columnar_plan(self) -> tuple:
        """(where, columns, arg slots) of the batch plan; built on first use.

        ``columns`` is one :func:`~repro.dsms.expressions.compile_shared`
        closure over the GROUP BY expressions then the *distinct*
        aggregate arguments, so a sub-expression the query names in
        several places is evaluated once per batch; ``arg slots`` says,
        per aggregate, which of those arguments it takes.  WHERE stays
        outside the table: it runs on the unfiltered rows, the rest on
        the kept ones.  Collector engines that only ever fold partial
        states never pay for the compilation.
        """
        plan = self._cols_plan
        if plan is None:
            where = self.query.where
            expressions = [*(g.expression for g in self.query.group_by), *self._args]
            plan = self._cols_plan = (
                named(where.compile_cols(self.schema), "where clause")
                if where is not None
                else None,
                compile_shared(expressions, self.schema, self._eval_labels),
                self._arg_slots,
            )
        return plan

    def _select_and_eval(self, cols: list, count: int) -> tuple[int, list, list]:
        """Apply WHERE to a columnar batch, then evaluate — on the kept
        rows, and before the caller touches any state — everything the
        grouping loop needs: (kept count, keys, distinct argument columns).
        """
        where_fn, columns_fn, _slots = self._columnar_plan()
        if where_fn is not None:
            mask = where_fn(cols, count)
            selected = [i for i, keep in enumerate(mask) if keep]
            if len(selected) != count:
                if not selected:
                    return 0, [], []
                gather = take_rows(selected)
                # The other columns stay behind, as under a masked AND / OR.
                read = self.columns_read
                cols = [
                    gather(col) if index in read else None
                    for index, col in enumerate(cols)
                ]
                count = len(selected)
        columns = columns_fn(cols, count)
        width = len(self._group_fns)
        key_cols = map(shared_nans, columns[:width])
        keys = list(zip(*key_cols)) if width else [()] * count
        return count, keys, columns[width:]

    def insert_cols(self, cols: list) -> None:
        """Offer a batch as per-field columns; results match per-tuple
        :meth:`process` bit for bit.

        ``cols`` holds one equal-length sequence per schema field (the
        transpose of the rows :meth:`insert_many` takes).  The batch never
        materializes a row tuple: the WHERE mask, group keys, and every
        aggregate argument are computed column-at-a-time up front, and
        the stateful grouping loop walks row *indices*, collecting each
        group's rows so its UDAF states take **one** ``update_cols`` per
        aggregate instead of one ``update`` per tuple.  Group creation
        happens at exactly the same stream positions as on the per-tuple
        path, so every accumulator sees the identical operation sequence.
        A two-level engine hands each kept row to the per-tuple path's
        low-table routine instead, so its evictions are ``process``'s own.
        Compiled expressions are pure, so hoisting them out of the
        stateful loop cannot change results.
        """
        count = row_count(cols, QueryError)
        if count == 0:
            return
        # One columnar evaluation per distinct sub-expression for the
        # whole batch, before anything is counted: a batch that raises
        # leaves the engine as it was.
        kept, keys, arg_cols = self._select_and_eval(cols, count)
        self._tuples_in += count
        self._tuples_selected += kept
        if kept == 0:
            return
        if self.two_level:
            process_low = self._process_low
            arg_slots = self._arg_slots
            for index, key in enumerate(keys):
                process_low(key, [
                    tuple(arg_cols[slot][index] for slot in slots)
                    for slots in arg_slots
                ])
            return
        high = self._high
        high_get = high.get
        agg_plans = self._agg_plans
        store = self._store
        if store is not None:
            # Read-ahead: the batch's keys are all known before the loop
            # starts, so the cold ones are fetched a page at a time rather
            # than one fault per miss.
            fresh = [key for key in dict.fromkeys(keys) if key not in high]
            if fresh:
                store.stage(fresh)
        # key -> (states, row indices, indices.append); states already live
        # in high.
        pending: dict[tuple, tuple] = {}
        pending_get = pending.get
        for index, key in enumerate(keys):
            entry = pending_get(key)
            if entry is not None:
                entry[2](index)
                continue
            states = high_get(key)
            if states is None:
                if store is None or (cold := store.fault_in(key)) is None:
                    high[key] = states = [plan.udaf.create() for plan in agg_plans]
                else:
                    high[cold[0]] = states = cold[1]
            indices = [index]
            pending[key] = (states, indices, indices.append)
        self._apply_pending_cols(pending, arg_cols)
        if store is not None:
            # One call per batch, never per tuple: the store accounts the
            # touched keys and enforces the hot-tier budget.
            store.observe_batch(keys)

    def _apply_pending_cols(self, pending: dict, arg_cols: list) -> None:
        per_plan = [
            (plan.udaf.update, tuple(arg_cols[slot] for slot in slots))
            for plan, slots in zip(self._agg_plans, self._arg_slots)
        ]
        for states, indices, _append in pending.values():
            if len(indices) == 1:
                # Inline the singleton case: on key-diverse streams most
                # groups see one row per batch and the slice machinery (and
                # even an extra call frame) would dominate.
                index = indices[0]
                for (update, acols), state in zip(per_plan, states):
                    if len(acols) == 1:
                        update(state, (acols[0][index],))
                    elif acols:
                        update(state, tuple(col[index] for col in acols))
                    else:
                        update(state, ())
                continue
            # The group's slice of each distinct argument column is
            # gathered once, and every aggregate takes the slices it names
            # in one ``update_cols``.
            count = len(indices)
            take = take_rows(indices)
            slices = [take(col) for col in arg_cols]
            for plan, state, slots in zip(self._agg_plans, states, self._arg_slots):
                if len(slots) == 1:
                    plan.udaf.update_cols(state, (slices[slots[0]],), count)
                else:
                    plan.udaf.update_cols(
                        state, tuple(slices[slot] for slot in slots), count
                    )

    def _process_low(self, key: tuple, args: list) -> None:
        low = self._low
        states = low.get(key)
        if states is None:
            if len(low) >= LOW_TABLE_SIZE:
                # Fixed-size table is full: evict one partial upward, as
                # GS's low-level hash table does on collision.
                evicted_key, evicted_states = low.popitem()
                self._merge_up(evicted_key, evicted_states)
                self._low_evictions += 1
            states = [plan.udaf.create() for plan in self._agg_plans]
            low[key] = states
        self._update_states(states, args)

    def _update_states(self, states: list, args: list) -> None:
        for plan, state, values in zip(self._agg_plans, states, args):
            plan.udaf.update(state, values)

    def _merge_up(self, key: tuple, states: list) -> None:
        high_states = self._high.get(key)
        if high_states is None:
            self._high[key] = states
            return
        for plan, mine, theirs in zip(self._agg_plans, high_states, states):
            plan.udaf.merge(mine, theirs)

    # -- output ------------------------------------------------------------------

    def _postprocess(self, rows: list[ResultRow]) -> list[ResultRow]:
        """Apply HAVING / ORDER BY / LIMIT to one flush's result rows.

        These clauses operate on output aliases, per flush: GS emits
        results bucket by bucket, and :func:`run_query` flushes once per
        bucket, so there "the top 10 by decayed bytes" means the top 10 of
        each time bucket.  A clause the finalized values cannot be
        evaluated under (a list-valued sketch report compared with a
        number, unorderable sort keys) is a :class:`QueryError` naming
        the clause, not a bare ``TypeError``.
        """
        clause = None
        try:
            if self._having is not None:
                clause, having_fn = self._having
                rows = [row for row in rows if having_fn(row)]
            # Stable multi-key sort: apply keys right-to-left.
            for clause, key_fn, descending in reversed(self._order):
                rows.sort(key=key_fn, reverse=descending)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise QueryError(
                f"{clause} cannot be evaluated over this query's results: {exc}"
            ) from exc
        if self.query.limit is not None:
            rows = rows[: self.query.limit]
        return rows

    def _compile_output_expression(self, expression) -> Callable[[ResultRow], object]:
        """Compile an expression over output aliases into a row-dict callable."""
        return self._compile_over(
            expression, (*self._select_order, *self._group_aliases),
            "HAVING/ORDER BY may only reference output aliases; unknown: ",
        )

    def _compile_over(
        self, expression, names, refusal: str
    ) -> Callable[[ResultRow], object]:
        """Compile ``expression`` over the row-dict entries ``names``.

        A column outside ``names`` is a :class:`QueryError` reading
        ``refusal`` followed by the missing columns.
        """
        from repro.dsms.schema import Field, FieldType, Schema

        columns = sorted(expression.columns())
        missing = [c for c in columns if c not in names]
        if missing:
            raise QueryError(f"{refusal}{missing}")
        if not columns:
            value = None

            def constant(row: ResultRow):
                nonlocal value
                if value is None:
                    value = expression.evaluate((), self.schema)
                return value

            return constant
        pseudo = Schema([Field(c, FieldType.FLOAT) for c in columns])
        compiled = expression.compile(pseudo)
        return lambda row: compiled(tuple(row[c] for c in columns))

    def _finalize_group(self, key: tuple, states: list) -> ResultRow:
        row: ResultRow = dict(zip(self._group_aliases, key))
        for plan, state in zip(self._agg_plans, states):
            value = plan.udaf.finalize(state)
            if plan.post_fn is not None:
                value = plan.post_fn(value)
            row[plan.alias] = value
        for alias, evaluate in self._plain_items:
            row[alias] = evaluate(row)
        return row

    def _drain_low(self) -> None:
        """Merge every low-level partial upward, as a full table's
        eviction would (a float sum reassociated here is the two-level
        engine's own answer, which Fig. 2(a) times)."""
        low = self._low
        for key in list(low):
            self._merge_up(key, low.pop(key))

    def _finalized(self, take: bool) -> list[ResultRow]:
        """The one finalize walk: every group (low table drained upward
        first) finalized in ``repr``-sorted key order, then HAVING /
        ORDER BY / LIMIT.  ``take`` empties the tables as it goes
        (:meth:`flush`); without it they are read in place
        (:meth:`snapshot_rows`).
        """
        self._drain_low()
        high = self._high
        store = self._store
        finalize = self._finalize_group
        fetch = high.pop if take else high.__getitem__
        if store is None:
            rows = [finalize(key, fetch(key)) for key in sorted(high, key=repr)]
        else:
            # Cold groups are finalized a page at a time instead of
            # faulting the whole keyspace into RAM; hot and cold key sets
            # are disjoint so the union sorts exactly like the all-RAM
            # table.
            if take:
                # Damage on disk has to surface before the first group is
                # consumed, or it would take finalized rows with it.
                store.verify_pages()
                cold = store.take_cold()
            else:
                # Read, not faulted in: the directory keeps every entry,
                # and a page's summary slots are revived only to finalize.
                cold = (
                    (key, [_clone_state(state) for state in states])
                    for key, states in store.cold_groups()
                )
            finalized = {key: finalize(key, fetch(key)) for key in list(high)}
            for key, states in cold:
                finalized[key] = finalize(key, states)
            rows = [finalized[key] for key in sorted(finalized, key=repr)]
        return self._postprocess(rows)

    def flush(self) -> list[ResultRow]:
        """Finalize every group, emptying the engine, and return the rows."""
        return self._finalized(take=True)

    def snapshot_rows(self) -> list[ResultRow]:
        """What :meth:`flush` would return now, with the engine left running.

        The read-only view a live query is answered from: every group
        through the same finalize walk ``flush`` uses.  No group leaves
        its table — a store-backed engine's cold pages are read where they
        lie — and the returned rows alias no live state, so ingest may
        continue while a caller still holds them.
        """
        return self._finalized(take=False)

    # -- checkpointing ------------------------------------------------------------

    def store_checkpoint(self) -> str:
        """Persist a store-backed engine via the tiered store's manifest.

        Hot state is serialized once into a checkpoint segment; cold
        state is referenced where it already sits on disk.  A fresh
        engine built with a store over the same directory resumes from
        here.  Returns the manifest path.
        """
        if self._store is None:
            raise QueryError(
                "store_checkpoint() needs a store-backed engine; a plain "
                "engine's state is partial_state_bytes(), resumed by a fresh "
                "engine's merge_partial()"
            )
        return self._store.checkpoint(self._store_fields())

    def _store_fields(self) -> dict:
        """What a store's manifest records of this engine: the plan a
        resumed engine must match and the counters it restores.  Sampler
        UDAFs assign each *new* group an RNG stream from a creation
        counter, which a resumed engine must continue, or groups first
        seen after the restart would draw other streams than an
        uninterrupted run's."""
        return {
            "query": self.query.sql(),
            "schema": self.schema.names(),
            "tuples_in": self._tuples_in,
            "tuples_selected": self._tuples_selected,
            "low_evictions": self._low_evictions,
            "udaf_counters": [
                getattr(plan.udaf, "_counter", None) for plan in self._agg_plans
            ],
        }

    # -- partial state (Section VI-B at engine granularity) -----------------------

    def _snapshot(self) -> tuple[list[tuple], list[list]]:
        """Flush-consistent ``(keys, states)`` of every live group.

        The low-level table is drained upward first, so the view is
        :meth:`flush`'s, and ingest continues afterwards with unchanged
        results.  Keys are sorted by ``repr``, which makes the encoded
        bytes deterministic.  Cold groups of a store-backed engine are
        read, not faulted in; their summary slots stay ``to_bytes``
        buffers.
        """
        self._drain_low()
        high = self._high
        store = self._store
        if store is None:
            keys = sorted(high, key=repr)
            return keys, [high[key] for key in keys]
        union = dict(high)
        union.update(store.cold_groups())
        keys = sorted(union, key=repr)
        return keys, [union[key] for key in keys]

    def partial_state_bytes(self) -> bytes:
        """Every live group's state as one mergeable, checksummed buffer.

        The shard-worker half of the paper's distributed story: per-site
        state for the same decay function and landmark merges exactly, so
        a parallel engine ships *state*, not tuples, at query time.  The
        same bytes are a shard's reply, a PARTIALS_OK / ADOPT blob and a
        ``checkpoint.bin`` entry; a fresh engine resumes from them via
        :meth:`merge_partial`.  Layout (DESIGN.md §3.5 has the diagram): a
        fixed header, two column blocks — the query SQL and schema names,
        one slot code per aggregate (its state arity, or ``-1`` summary /
        ``-2`` ragged) — then one :mod:`repro.core.cols` batch with a row
        per group (key-part columns, then each aggregate's state columns),
        deflated and sealed (:func:`repro.core.serde.seal`).
        """
        keys, rows = self._snapshot()
        slots, cols = group_columns(keys, rows, len(self._agg_plans))
        texts = [self.query.sql(), *self.schema.names()]
        blob = seal(PARTIAL_STATE, b"".join((
            _PARTIAL_HEAD.pack(
                self._tuples_in, self._tuples_selected, self._low_evictions,
                len(keys), len(texts), len(slots),
            ),
            pack_column(texts),
            pack_column(slots),
            pack_cols(cols),
        )))
        return blob

    def _decode_partial(self, data) -> tuple:
        """``(keys, states, counters)`` of a validated buffer.

        Touches nothing: every truncation, flipped bit, foreign plan,
        slot of the wrong kind for its aggregate (summary vs scalars) or
        misshapen column raises :class:`MergeError` here, before the
        first group is merged.  What it cannot see is a checksummed
        buffer crafted with a wrong *scalar arity*: UDAFs declare none.
        """
        head, texts, slots, batch = _open_partial(data)
        groups = head[3]
        try:
            cols, _seq, count = unpack_cols(batch)
        except ProtocolError as exc:
            raise MergeError(f"malformed partial-state buffer: {exc}") from exc
        self._check_plan(texts[0] if texts else None, texts[1:])
        # An empty engine writes no slots and no columns; a batch without
        # columns (no key parts, no state slots) can hold one group at most.
        # Mergeable aggregates keep scalar-list state, the rest a summary:
        # a slot of the other kind would plant wrong-shaped state.
        if (
            len(slots) != (len(self._agg_plans) if groups else 0)
            or any(
                (code == SUMMARY_SLOT) == plan.udaf.mergeable
                for code, plan in zip(slots, self._agg_plans)
            )
            or groups != (count if cols else min(groups, 1))
        ):
            raise MergeError(
                "malformed partial-state buffer: its columns do not match "
                "this query's keys and aggregates"
            )
        try:
            keys, per_aggregate = group_states(
                slots, cols, len(self._group_fns), groups
            )
            if len(set(keys)) != groups:
                raise ValueError("duplicate group key")
            for index, code in enumerate(slots):
                if code == SUMMARY_SLOT:
                    per_aggregate[index] = [
                        StreamSummary.from_bytes(b) for b in per_aggregate[index]
                    ]
        except Exception as exc:  # hostile key / summary bytes raise anything
            raise MergeError(
                f"malformed partial-state buffer: undecodable group: {exc}"
            ) from exc
        states = (
            list(map(list, zip(*per_aggregate))) if per_aggregate
            else [[] for _ in keys]
        )
        return keys, states, head[:3]

    def _check_plan(self, sql, schema_names: list) -> None:
        if sql != self.query.sql():
            raise MergeError(
                "partial state is for a different query: "
                f"{sql!r} vs {self.query.sql()!r}"
            )
        if schema_names != self.schema.names():
            raise MergeError(
                "partial state is for a different schema: "
                f"{schema_names!r} vs {self.schema.names()!r}"
            )

    def _absorb(self, keys, states, counters: tuple) -> None:
        """Merge decoded (or cloned) group states into the high table.

        Builtin states merge via their UDAF's ``merge``, summary states
        via :meth:`StreamSummary.merge` — which is where decay-function
        and landmark compatibility is enforced, as the paper requires
        (any mismatch raises :class:`MergeError`); absent groups are
        inserted directly.  Tuple counters accumulate, so statistics
        reflect the union of the merged substreams.
        """
        self._drain_low()
        high = self._high
        plans = self._agg_plans
        store = self._store
        if store is not None:
            store.stage([key for key in keys if key not in high])
        for key, theirs in zip(keys, states):
            mine = high.get(key)
            if mine is None:
                if store is None or (cold := store.fault_in(key)) is None:
                    high[key] = theirs
                    continue
                high[cold[0]] = mine = cold[1]
            for plan, own, other in zip(plans, mine, theirs):
                if plan.udaf.mergeable:
                    plan.udaf.merge(own, other)
                elif isinstance(own, StreamSummary):
                    own.merge(other)
                else:  # pragma: no cover - no such UDAF ships today
                    raise MergeError(
                        f"aggregate {plan.alias!r} has unmergeable state "
                        f"{type(own).__name__}"
                    )
        if store is not None:
            store.unstage()
        self._tuples_in += counters[0]
        self._tuples_selected += counters[1]
        self._low_evictions += counters[2]

    def merge_partial(self, data: bytes | bytearray | memoryview) -> None:
        """Fold a :meth:`partial_state_bytes` buffer into this engine.

        The buffer is decoded and validated in full before the first
        group merges (:meth:`_decode_partial`): one of a different query,
        schema or layout version, truncated or corrupt, raises
        :class:`MergeError` and leaves the engine as it was.  Merge
        semantics are :meth:`_absorb`'s — the one error that can still
        surface mid-merge is a summary refusing its peer (decay function,
        landmark or capacity mismatch between engines of the same query),
        after earlier groups have merged.
        """
        self._absorb(*self._decode_partial(data))

    def merge(self, other: "QueryEngine") -> None:
        """Absorb another engine's live state (same query and schema).

        Makes engines themselves :class:`~repro.core.merge.Mergeable`, so a
        list of per-shard engines folds with
        :func:`repro.core.merge.merge_all` like any other summary.  The
        other engine's live tables go through the same per-group merge as
        :meth:`merge_partial`, with no encode in between; ``other`` keeps
        its state (states are cloned; draining its low table upward does
        not change its results).
        """
        if not isinstance(other, QueryEngine):
            raise MergeError(
                f"cannot merge {type(other).__name__} into QueryEngine"
            )
        self._check_plan(other.query.sql(), other.schema.names())
        keys, rows = other._snapshot()
        self._absorb(
            keys,
            [[_clone_state(state) for state in row] for row in rows],
            (other._tuples_in, other._tuples_selected, other._low_evictions),
        )

    def state_size_bytes(self) -> int:
        """Total aggregate state held, summed over groups and levels."""
        total = 0
        for table in (self._low, self._high):
            for states in table.values():
                for plan, state in zip(self._agg_plans, states):
                    total += plan.udaf.state_size_bytes(state)
        return total

    def state_size_per_group(self) -> float:
        """Average aggregate state per live group, in bytes (Fig. 2(d))."""
        groups = self.group_count
        return self.state_size_bytes() / groups if groups else 0.0


def _open_partial(data) -> tuple:
    """A buffer, unsealed, and its head and two column blocks read:
    ``(header fields, texts, slot codes, packed group batch)``."""
    body = unseal(PARTIAL_STATE, data)
    try:
        head = _PARTIAL_HEAD.unpack_from(body)
        texts, offset = read_column(body, _PARTIAL_HEAD.size, head[4])
        slots, offset = read_column(body, offset, head[5])
    except (struct.error, ProtocolError) as exc:
        raise MergeError(f"malformed partial-state buffer: {exc}") from exc
    return head, texts, slots, body[offset:]


def describe_partial_state(data) -> dict:
    """What ``repro checkpoint inspect`` reports for one buffer, from its
    framing and column blocks (CRC checked; every column decoded, and so
    checked, once): its bytes as stored (deflated) beside its columns'
    inflated bytes.  Each column is named by its encoding, each summary
    slot by the registry type its buffers declare in their first bytes;
    no summary is unpacked."""
    head, texts, slots, batch = _open_partial(data)
    try:
        count, _seq, blocks = open_cols(batch)
        layout, summary_cols = [], []
        for block in blocks:
            col = block_values(batch, block, count)
            layout.append((block_name(batch, block), block[2] - block[1]))
            if col and type(col[0]) is bytes:
                summary_cols.append((col, block[2] - block[1]))
        summaries = [
            {
                "slot": slot,
                "type": "/".join(sorted(set(map(summary_type_of, col)))),
                "buffers": len(col),
                "bytes": size,  # as stored: a shared head once
            }
            for slot, (col, size) in zip(
                (i for i, code in enumerate(slots) if code == SUMMARY_SLOT),
                summary_cols, strict=True,
            )
        ]
    except ValueError as exc:  # ProtocolError, ParameterError, the strict zip
        raise MergeError(f"malformed partial-state buffer: {exc}") from exc
    return {
        "version": PARTIAL_STATE_VERSION,
        "tuples_in": head[0],
        "groups": head[3],
        "bytes": len(data),
        "column_bytes": sum(size for _kind, size in layout),
        "slots": slots,
        "columns": layout,
        "summaries": summaries,
    }


def _clone_state(state):
    """An independent copy of one aggregate state from a live snapshot."""
    if type(state) is list:
        return list(state)
    if type(state) is bytes:  # a cold group's summary, still serialized
        return StreamSummary.from_bytes(state)
    return copy.deepcopy(state)


def fold_partials(
    build_engine: Callable[[], QueryEngine], blobs: Iterable[bytes]
) -> list[ResultRow]:
    """Finalized results of the merge of partial-state ``blobs``.

    The one merge-at-query fold (serve backends, the sharded engine, the
    cluster coordinator): a single collector from ``build_engine()``
    absorbs every blob in blob order and flushes, so HAVING / ORDER BY /
    LIMIT apply to the merged whole.  This is operation for operation
    the left fold ``merge_all([collector(b) for b in blobs])`` performs
    — per group, the first blob's state is inserted and each later one
    is merged into it in blob order — minus the per-blob engine builds.
    """
    collector = build_engine()
    for blob in blobs:
        collector.merge_partial(blob)
    return collector.flush()


def run_query(
    query: Query, schema: Schema, rows: Iterable[tuple]
) -> Iterator[ResultRow]:
    """Convenience: run ``query`` over ``rows`` and yield all result rows.

    The first GROUP BY key is read as a time bucket, GS-style: each time
    a row that passes WHERE carries a first key other than the open one
    (judged as dict keys are: neither ``is`` nor ``==``), the engine is
    flushed — which finalizes exactly that bucket's groups, as every
    live group belongs to it — and the rows are yielded before the new
    row is ingested; the last flush comes on exhaustion.  So the output
    equals one engine fed every row and flushed once only when each
    bucket's rows arrive in one run: a key that is not an in-order time
    bucket (``group by destIP``, late rows, NaN) splits a group's
    emission into several rows.
    """
    engine = QueryEngine(query, schema)
    evaluate, apply = engine._eval_row, engine._apply_row
    bucketed = bool(query.group_by)
    previous = object()  # the first key of the last row WHERE passed
    for row in rows:
        values = evaluate(row)
        if bucketed and values is not None:
            bucket = values[0]
            if bucket is not previous and bucket != previous:
                yield from engine.flush()
                previous = bucket
        apply(values)
    yield from engine.flush()

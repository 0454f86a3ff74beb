"""``QueryEngine.snapshot_rows()``: the read-only view a live query uses.

The view must be indistinguishable from the two answers it replaces —
``flush()`` of an identically fed engine, and the blob round trip
``fold_partials(build, [partial_state_bytes()])`` the serve backend used
to make — row for row and in order, while leaving every byte of engine
state (and, store-backed, every directory entry) where it was.
"""

from __future__ import annotations

import copy
import os

import pytest

from repro.core.protocol import StreamSummary
from repro.dsms.engine import QueryEngine, fold_partials
from repro.dsms.parser import parse_query
from repro.dsms.udaf import default_registry
from repro.store import TieredStore
from tests.dsms.test_partial_codec import CALLS, SCHEMA, build, registry

REGISTRY_CALLS = sorted(
    call for name, call in CALLS.items() if name in default_registry().names()
)


def stream(n: int, start: int = 0) -> list[tuple]:
    return [
        (i + 1, f"h{i % 7}", f"g{i % 3}", i % 11, 1.0 + i % 4, float(i % 13))
        for i in range(start, start + n)
    ]


def twins(calls, **options) -> tuple[QueryEngine, QueryEngine]:
    live, twin = build(calls, **options), build(calls, **options)
    for engine in (live, twin):
        engine.insert_many(stream(120))
    return live, twin


class TestEqualsFlushAndFold:
    @pytest.mark.parametrize("two_level", [True, False])
    @pytest.mark.parametrize("call", REGISTRY_CALLS)
    def test_every_udaf_same_rows_same_order(self, call, two_level, low_table):
        low_table(4)
        options = dict(group_by="k, k2", two_level=two_level)
        live, twin = twins([call, "count(*)"], **options)
        before = live.partial_state_bytes()
        rows = live.snapshot_rows()
        # Not a byte of state moved, so the old route still agrees.
        assert live.partial_state_bytes() == before
        folded = fold_partials(
            lambda: build([call, "count(*)"], **options), [before]
        )
        # repr, not ==: NaN-valued results must compare equal to themselves.
        assert repr(rows) == repr(twin.flush()) == repr(folded)
        assert len(rows) == 21
        # The engine kept running: what flush() returns now is that answer.
        assert repr(live.flush()) == repr(rows)

    @pytest.mark.parametrize("call", REGISTRY_CALLS)
    def test_rows_alias_no_live_state(self, call):
        live, _twin = twins([call, "count(*)"])
        rows = live.snapshot_rows()
        frozen = copy.deepcopy(rows)
        live.insert_many(stream(200, start=120))
        assert repr(rows) == repr(frozen)
        assert repr(live.snapshot_rows()) != repr(frozen)

    @pytest.mark.parametrize("call", REGISTRY_CALLS)
    def test_finalize_leaves_to_bytes_unchanged(self, call):
        live, _twin = twins([call])
        (plan,) = live._agg_plans
        for (state,) in live._high.values():
            image = (
                state.to_bytes() if isinstance(state, StreamSummary)
                else copy.deepcopy(state)
            )
            plan.udaf.finalize(state)
            after = (
                state.to_bytes() if isinstance(state, StreamSummary) else state
            )
            assert after == image

    @pytest.mark.parametrize(
        "tail, count",
        [
            ("having c > 5", 15),
            ("order by s desc, k", 21),
            ("order by c limit 3", 3),
            ("having s > 20 order by s desc limit 2", 2),
        ],
    )
    def test_having_order_by_limit_apply_to_the_view(self, tail, count):
        sql = (
            "select k, k2, count(*) as c, sum(x) as s from TCP "
            f"group by k, k2 {tail}"
        )

        def make():
            return QueryEngine(parse_query(sql, registry()), SCHEMA)

        live, twin = make(), make()
        for engine in (live, twin):
            engine.insert_many(stream(120))
        rows = live.snapshot_rows()
        assert rows == twin.flush()
        assert rows == fold_partials(make, [live.partial_state_bytes()])
        assert len(rows) == count

    def test_empty_engine(self):
        assert build(["count(*)"]).snapshot_rows() == []


class TestStoreBacked:
    #: Read-amplification counters: a read is allowed — required — to
    #: count the pages it reads.  Everything else must not move.
    READ_COUNTERS = ("pages_read", "rows_decoded")

    @pytest.mark.parametrize(
        "calls, two_level",
        [
            (["count(*)", "sum(x)"], True),
            (["count(*)", "sum(x)"], False),
            (["unary_hh(v)", "count(*)"], True),
        ],
    )
    def test_hot_and_cold_groups_are_read_in_place(
        self, tmp_path, calls, two_level, low_table
    ):
        low_table(4)
        options = dict(group_by="k, k2", two_level=two_level)
        store = TieredStore(str(tmp_path / "store"), hot_groups=5)
        live = build(calls, store=store, **options)
        plain = build(calls, **options)
        for engine in (live, plain):
            for start in range(0, 120, 30):
                engine.insert_many(stream(30, start=start))
        # The low-table drain is the one state movement a read shares
        # with partial_state_bytes(); take it before the baseline.
        blob = live.partial_state_bytes()
        before = store.stats()
        assert before["cold_groups"] > 0 and before["hot_groups"] > 0
        files = sorted(os.listdir(store.directory + "/segments"))

        rows = live.snapshot_rows()

        after = store.stats()
        for counter in self.READ_COUNTERS:
            assert after.pop(counter) > before.pop(counter)
        assert after == before
        assert sorted(os.listdir(store.directory + "/segments")) == files
        assert live.partial_state_bytes() == blob
        assert repr(rows) == repr(plain.flush())
        assert len(rows) == 21
        assert repr(live.flush()) == repr(rows)
        store.close()

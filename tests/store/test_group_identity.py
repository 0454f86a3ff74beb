"""One group, one name: the store agrees with the engine's table on which
keys are one group, and a faulted-in group keeps the key it was filed
under.

The engine's table is a dict, so ``(0.0,)`` and ``(-0.0,)`` are one group
(as are ``(1,)``, ``(1.0,)`` and ``(True,)``) and the first spelling seen
is the one reported.  The store names a group by
:func:`repro.core.groups.group_hash`, defined on the same equality
classes, so a spilled group meets its other spelling on fault-in, and a
store-backed engine answers the all-RAM engine's answer byte for byte.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.core.cols import rows_to_cols
from repro.core.errors import ParameterError, StoreError
from repro.core.groups import group_id
from repro.dsms.engine import QueryEngine
from repro.dsms.parser import parse_query
from repro.dsms.schema import Field, FieldType, Schema
from repro.dsms.udaf import default_registry
from repro.store import TieredStore

SCHEMA = Schema(
    [
        Field("time", FieldType.INT),
        Field("x", FieldType.FLOAT),
        Field("v", FieldType.FLOAT),
    ]
)
SQL = "select x, count(*) as c, sum(v) as s from T group by x"


def build(store: TieredStore | None = None) -> QueryEngine:
    return QueryEngine(parse_query(SQL, default_registry()), SCHEMA, store=store)


def feed(engine: QueryEngine, rows: list[tuple], path: str) -> None:
    if path == "process":
        for row in rows:
            engine.process(row)
    else:
        for start in range(0, len(rows), 10):
            engine.insert_cols(rows_to_cols(rows[start : start + 10]))


def canon(rows: list[dict]) -> list[str]:
    """Result rows as text: ``repr`` tells ``-0.0`` from ``0.0``."""
    return [repr(sorted(row.items())) for row in rows]


def spelled_twice(first, second, others: int = 2_999) -> list[tuple]:
    """``first`` once, enough other groups to spill it, ``second`` once,
    then enough again to spill the group a second time."""
    rows = [(0, first, 1.0)]
    rows += [(t, t + 0.5, 1.0) for t in range(1, others + 1)]
    rows.append((others + 1, second, 1.0))
    rows += [(t, t + 0.5, 1.0) for t in range(others + 2, others + 42)]
    return rows


@pytest.mark.parametrize("path", ["process", "insert_cols"])
@pytest.mark.parametrize(
    "first, second",
    [(0.0, -0.0), (-0.0, 0.0), (1.0, 1), (1, True)],
    ids=["zero-then-negative", "negative-then-zero", "float-then-int",
         "int-then-bool"],
)
def test_a_spilled_group_meets_its_other_spelling(tmp_path, path, first, second):
    rows = spelled_twice(first, second)
    store = TieredStore(str(tmp_path / "s"), hot_groups=4)
    engine, reference = build(store), build()
    feed(engine, rows, path)
    feed(reference, rows, path)
    assert store.stats()["fault_ins"] >= 1
    assert engine.partial_state_bytes() == reference.partial_state_bytes()
    answer = engine.flush()
    assert canon(answer) == canon(reference.flush())
    assert sum(row["c"] for row in answer) == len(rows)
    (group,) = [row for row in answer if row["x"] == first]
    assert group["c"] == 2 and repr(group["x"]) == repr(first)


def test_a_staged_fault_in_hands_back_the_stored_key(tmp_path):
    store = TieredStore(str(tmp_path / "s"), hot_groups=1)
    engine = build(store)
    engine.insert_cols(rows_to_cols([(0, 0.0, 1.0), (1, 2.5, 1.0)]))
    assert list(store.cold_key_set()) == [(0.0,)]
    store.stage([(-0.0,)])
    stored, states = store.fault_in((-0.0,))
    assert repr(stored) == "(0.0,)" and states == [[1], [1.0]]
    assert store.fault_in((-0.0,)) is None  # one live copy


@pytest.mark.parametrize("path", ["process", "insert_cols"])
def test_every_nan_row_is_one_group_with_spills(tmp_path, path):
    # Each row's NaN is its own float object, as after any wire, pipe or
    # page; the engine files each as the one shared NaN, so every fault-in
    # finds the group.
    rows = [
        (t, float("nan") if t % 3 == 0 else (t % 7) + 0.5, 1.0)
        for t in range(90)
    ]
    store = TieredStore(str(tmp_path / "s"), hot_groups=3)
    engine, reference = build(store), build()
    feed(engine, rows, path)
    feed(reference, rows, path)
    assert store.stats()["evictions"] > 0
    assert engine.partial_state_bytes() == reference.partial_state_bytes()
    answer = engine.flush()
    assert sorted(canon(answer)) == sorted(canon(reference.flush()))
    nans = [row for row in answer if row["x"] != row["x"]]
    assert len(nans) == 1 and nans[0]["c"] == 30


def test_one_nan_object_is_one_group_with_spills(tmp_path):
    # One float object, as a caller's math.nan, met again after each spill:
    # the key that comes back from a page is a different object, so a
    # group filed under it was found by no later row.
    rows = []
    for _ in range(40):
        rows.append((len(rows), math.nan, 1.0))
        rows += [(len(rows) + k, k + 0.5, 1.0) for k in range(6)]
    store = TieredStore(str(tmp_path / "s"), hot_groups=2)
    engine, reference = build(store), build()
    for row in rows:
        engine.insert_many([row])
        reference.insert_many([row])
    assert store.stats()["fault_ins"] > 0
    assert store.stats()["pages_read"] <= len(rows)  # one per fault-in at most
    answer = engine.flush()
    assert canon(answer) == canon(reference.flush())
    nans = [row for row in answer if row["x"] != row["x"]]
    assert len(nans) == 1 and nans[0]["c"] == 40


def test_nan_rows_of_one_batch_are_one_group(tmp_path):
    store = TieredStore(str(tmp_path / "s"), hot_groups=1)
    engine = build(store)
    engine.insert_cols(rows_to_cols(
        [(t, float("nan") if t % 2 else t + 0.5, 1.0) for t in range(10)]
    ))
    assert store.stats()["evictions"] > 0
    answer = engine.flush()
    assert len(answer) == 6
    assert [row["c"] for row in answer if row["x"] != row["x"]] == [5]


def test_a_repeated_hash_closes_a_page_early(tmp_path, monkeypatch):
    # A directory slot names its page by hash, so within a page a hash
    # names one row: the page builder closes a page before a hash repeats
    # in it.  Every key hashing alike forces the repeat.
    monkeypatch.setattr("repro.store.tiered.group_hash", lambda key: 7)
    store = TieredStore(str(tmp_path / "s"), hot_groups=1)
    engine, reference = build(store), build()
    rows = [(t, t + 0.5, 1.0) for t in range(5)]
    engine.insert_cols(rows_to_cols(rows))
    reference.insert_cols(rows_to_cols(rows))
    stats = store.stats()
    assert stats["evictions"] == 4 and stats["spill_pages"] == 4
    assert len({offset for _seg, offset, _length in store._dir.lookup(7)}) == 4
    assert canon(engine.flush()) == canon(reference.flush())


def test_a_directory_snapshot_of_version_2_is_refused(tmp_path):
    # Version 2 named groups by another hash: read by this build it would
    # miss every cold key, so recovery refuses it by number.
    directory = str(tmp_path / "s")
    engine = build(TieredStore(directory, hot_groups=2))
    feed(engine, [(t, t + 0.5, 1.0) for t in range(20)], "insert_cols")
    engine.store_checkpoint()
    (snapshot,) = [n for n in os.listdir(directory) if n.startswith("keys-")]
    path = os.path.join(directory, snapshot)
    with open(path, "r+b") as handle:
        handle.seek(4)
        handle.write(bytes([2]))
    with pytest.raises(StoreError, match="unsupported version 2 at offset 4") as excinfo:
        build(TieredStore(directory, hot_groups=2))
    assert snapshot in str(excinfo.value)


class TestGroupId:
    def test_parts_are_delimited(self):
        ids = {
            group_id(key)
            for key in [("a", "bc"), ("ab", "c"), ("abc",), ("1",), (1,),
                        (1.5,), ("",), ("", ""), (), (2**64,), (0,)]
        }
        assert len(ids) == 11

    def test_ints_past_64_bits_keep_their_value(self):
        assert group_id((2**64,)) != group_id((0,))
        assert group_id((-(2**63) - 1,)) != group_id((2**63 - 1,))
        assert group_id((float(2**70),)) == group_id((2**70,))

    @pytest.mark.parametrize("key", ["k", 5, [1], None])
    def test_a_key_is_a_tuple(self, key):
        with pytest.raises(ParameterError, match="tuple"):
            group_id(key)

    @pytest.mark.parametrize("part", [None, b"k", ("nested",)])
    def test_a_part_of_another_type_is_refused(self, part):
        with pytest.raises(ParameterError, match="group key part is int, float, str or bool"):
            group_id((part,))

"""Summaries store their values as themselves.

Every registered summary's buffer holds its items and weights as the
values they are — no JSON-era tag — so ``to_bytes`` -> ``from_bytes``
is byte-identical and type-exact for a tuple item (a tuple, not a
list), an int past 64 bits, ``-0.0`` and a non-finite weight wherever
``update`` accepts one.
"""

from __future__ import annotations

import math

import pytest

from repro.core import registry
from repro.core.errors import EmptySummaryError, ParameterError
from repro.core.protocol import StreamSummary
from tests.core.test_protocol_conformance import ALL
from tests.core.test_tree_codec import identical

#: Streams of items of one kind each (some summaries order their items).
ITEMS = {
    "tuples": [("10.0.0.1", 80), ("10.0.0.2", 443), ("10.0.0.1", 22), ("a", 0)],
    "big-ints": [1 << 70, -(1 << 70), 3, 1 << 64],
    "floats": [-0.0, 2.5, 1e300, -7.0],
    "strs": ["é", "a", "10.0.0.1", ""],
}
ITEM_KINDS = {
    "item": lambda item, i: (item,),
    "item_time": lambda item, i: (item, 1.0 + i),
    "item_weight": lambda item, i: (item, 1.0 + i % 3),
    "item_logweight": lambda item, i: (item, float(i % 5 - 2)),
}
#: Values each weighted summary is offered: kept where ``update`` takes them
#: (a log weight of ``1 << 70`` is one no answer can exponentiate).
VALUES = [math.inf, -0.0, 1 << 70, 2.5, -math.inf]
LOG_VALUES = [math.inf, -0.0, -50.0, 2.5, -math.inf]
VALUE_KINDS = {
    "time_value": lambda value, i: (1.0 + i, value),
    "time_value_ordered": lambda value, i: (1.0 + i, value),
    "item_weight": lambda value, i: (("x", i % 2), value),
    "item_logweight": lambda value, i: (("x", i % 2), value),
    "value_weight": lambda value, i: (i % 7, value),
}


def round_trips(summary: StreamSummary) -> None:
    blob = summary.to_bytes()
    restored = StreamSummary.from_bytes(blob)
    assert restored.to_bytes() == blob
    assert identical(restored._state_payload(), summary._state_payload())
    assert answer(restored) == answer(summary)


def answer(summary: StreamSummary) -> str:
    try:
        return repr(summary.query())
    except (ParameterError, EmptySummaryError) as refusal:  # an empty q-digest
        return type(refusal).__name__


@pytest.mark.parametrize("items", ITEMS)
@pytest.mark.parametrize(
    "name", [info.name for info in ALL if info.input_kind in ITEM_KINDS]
)
def test_items_of_every_type_round_trip_type_exactly(name, items):
    info = registry.get_summary(name)
    summary = info.factory()
    for i, item in enumerate(ITEMS[items] * 4):
        summary.update(*ITEM_KINDS[info.input_kind](item, i))
    round_trips(summary)


@pytest.mark.parametrize(
    "name", [info.name for info in ALL if info.input_kind in VALUE_KINDS]
)
def test_awkward_weights_round_trip_type_exactly(name):
    info = registry.get_summary(name)
    kept = 0
    for value in LOG_VALUES if info.input_kind == "item_logweight" else VALUES:
        summary = info.factory()
        try:
            for i in range(3):
                summary.update(*VALUE_KINDS[info.input_kind](value, i))
        except (ParameterError, OverflowError):
            continue  # refused at the door: never stored
        round_trips(summary)
        kept += 1
    assert kept >= 2  # 2.5 and a big int at least

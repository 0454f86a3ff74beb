"""What a SpaceSaving ``to_bytes`` buffer may say, and what it may not.

A restored summary is checked before it is trusted, as the samplers are
(``tests/sampling/test_sampler_buffers.py``): more counters than
``capacity``, an item monitored twice, a negative or NaN count and an
error above its count are a :class:`ParameterError` naming the type.  A
NaN count is more than a wrong answer — under the one-entry heap it
would never compare equal to its own heap entry.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import registry
from repro.core.protocol import StreamSummary
from tests.sampling.test_sampler_buffers import buffer, refused

NAMES = ["weighted_spacesaving", "unary_spacesaving"]
NAN = float("nan")


def fed(name: str) -> StreamSummary:
    """A full summary (50 counters) that has replaced some of them."""
    summary = registry.get_summary(name).factory()
    for step in range(400):
        summary.update(f"item-{(step * 7) % 83 % (60 + step % 24)}")
    return summary


def payload_of(name: str) -> dict:
    payload = fed(name)._state_payload()
    assert len(payload["counters"]) == payload["capacity"] == 50
    assert any(error for _tag, _count, error in payload["counters"])
    return payload


@pytest.mark.parametrize("name", NAMES)
class TestRestoredCounters:
    def test_an_honest_buffer_reencodes_to_the_same_bytes(self, name):
        summary = fed(name)
        honest = summary.to_bytes()
        restored = StreamSummary.from_bytes(honest)
        assert restored.to_bytes() == honest
        assert restored.query(0.01) == summary.query(0.01)
        packed = buffer(name, summary._state_payload())
        assert StreamSummary.from_bytes(packed).to_bytes() == honest

    def test_more_counters_than_capacity_are_refused(self, name):
        payload = payload_of(name)
        payload["capacity"] = 49
        refused(name, payload)
        payload["capacity"] = 50
        payload["counters"].append(["one-too-many", 1, 0])
        refused(name, payload)

    def test_an_item_monitored_twice_is_refused(self, name):
        payload = payload_of(name)
        payload["counters"][-1] = copy.deepcopy(payload["counters"][0])
        refused(name, payload)

    @pytest.mark.parametrize(
        "count, error",
        [(-1, 0), (-1, -2), (NAN, 0), (5, NAN), (5, 6), (5, -1), ("5", 0), (None, 0)],
        ids=repr,
    )
    def test_a_counter_outside_its_domain_is_refused(self, name, count, error):
        payload = payload_of(name)
        payload["counters"][3][1:] = [count, error]
        refused(name, payload)


def test_a_restored_weighted_summary_evicts_like_the_original():
    original = fed("weighted_spacesaving")
    restored = StreamSummary.from_bytes(original.to_bytes())
    assert len(restored._heap) == len(restored._counts) == 50
    for step in range(300):
        for summary in (original, restored):
            summary.update(f"new-{step % 70}", 1.0 + step % 3)
    assert restored.to_bytes() == original.to_bytes()

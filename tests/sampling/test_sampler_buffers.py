"""What a sampler's ``to_bytes`` buffer may say, and what it may not.

A sampler buffer carries the sample and the generator's two ints.  The
ones written before the keyed generator carry a 625-word Mersenne
Twister instead, and are refused like any other state outside the
domain.  A restored sampler is checked before it is trusted: a sample
larger than ``k``, entries out of heap order or a generator state
outside its domain are a :class:`ParameterError` naming the type, in
time and memory that do not depend on what the buffer claims.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import pytest

from repro.core import registry
from repro.core.errors import ParameterError
from repro.core.keyed_random import KEY_BITS
from repro.core.protocol import StreamSummary
from repro.core.tree import pack_tree
from tests.core.test_protocol_conformance import feed

registry.load_all()
SAMPLERS = [info.name for info in registry.iter_summaries() if info.kind == "sampler"]
HEAPED = ["priority_sampler", "weighted_reservoir", "expjumps_reservoir"]
TWISTER_STATE = [3, list(random.Random(2009).getstate()[1]), None]


def fed(name: str, n: int = 60) -> StreamSummary:
    info = registry.get_summary(name)
    summary = info.factory()
    feed(summary, info.input_kind, n=n)
    return summary


def buffer(name: str, payload) -> bytes:
    """The ``to_bytes`` buffer holding ``payload``."""
    return bytes((2, len(name))) + name.encode("utf-8") + pack_tree(payload)


def refused(name: str, payload) -> None:
    with pytest.raises(ParameterError, match=name):
        StreamSummary.from_bytes(buffer(name, payload))


def test_the_registry_has_the_seven_samplers():
    assert len(SAMPLERS) == 7 and set(HEAPED) < set(SAMPLERS)


@pytest.mark.parametrize("name", SAMPLERS)
class TestTwisterEraBuffers:
    def test_a_twister_state_is_refused(self, name):
        payload = fed(name)._state_payload()
        payload["rng"] = TWISTER_STATE
        refused(name, payload)

    @pytest.mark.parametrize(
        "state",
        [
            [3, TWISTER_STATE[1][:-1], None],  # 624 words
            [3, TWISTER_STATE[1] + [0], None],
            [4, TWISTER_STATE[1], None],
            [3, TWISTER_STATE[1][:-1] + [625], None],  # position past the end
            [3, [-1] * 625, None],
            [3, [0.5] * 625, None],
            [3, None, None],
        ],
        ids=["624", "626", "version", "position", "negative", "float", "none"],
    )
    def test_a_twister_state_that_is_not_one_is_refused(self, name, state):
        payload = fed(name)._state_payload()
        payload["rng"] = state
        refused(name, payload)


@pytest.mark.parametrize("name", SAMPLERS)
class TestKeyedState:
    @pytest.mark.parametrize(
        "state",
        [[-1, 0], [0, -1], [1.0, 0], [0, 2.5], [1 << 70, 0], [0, 1 << 70],
         [1 << KEY_BITS, 0], [True, 0], [None, 0], ["7", 0], [7], [], [7, 0, 0, 0], 7],
        ids=repr,
    )
    def test_a_state_outside_the_domain_is_refused(self, name, state):
        payload = fed(name)._state_payload()
        payload["rng"] = state
        refused(name, payload)

    def test_a_far_position_restores_at_once(self, name):
        payload = fed(name)._state_payload()
        payload["rng"] = [payload["rng"][0], (1 << 62) + 77]
        info = registry.get_summary(name)
        tracemalloc.start()
        started = time.perf_counter()
        try:
            restored = StreamSummary.from_bytes(buffer(name, payload))
            feed(restored, info.input_kind, n=20, offset=1)
            assert restored._state_payload()["rng"][1] > 1 << 62
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 0.5
        assert peak < 4 << 20


class TestRestoredSample:
    @pytest.mark.parametrize("name", HEAPED)
    def test_entries_out_of_heap_order_are_refused(self, name):
        # Refused, not repaired: heapreplace on a list that is not a heap
        # evicts the wrong entry, and every later estimate is biased.
        payload = fed(name)._state_payload()
        assert len(payload["heap"]) == payload["k"] == 16
        honest = buffer(name, payload)
        assert StreamSummary.from_bytes(honest).to_bytes() == honest
        payload["heap"][0], payload["heap"][-1] = payload["heap"][-1], payload["heap"][0]
        refused(name, payload)
        payload["heap"].sort()  # a sorted list is a heap: accepted
        StreamSummary.from_bytes(buffer(name, payload))
        payload["heap"].reverse()
        refused(name, payload)

    @pytest.mark.parametrize("name", HEAPED)
    def test_more_entries_than_k_are_refused(self, name):
        payload = fed(name)._state_payload()
        payload["k"] = 15
        refused(name, payload)
        payload["k"] = 16
        payload["heap"].append(max(payload["heap"]))
        refused(name, payload)

    @pytest.mark.parametrize("name", ["reservoir", "aggarwal_reservoir"])
    def test_more_items_than_k_are_refused(self, name):
        payload = fed(name)._state_payload()
        assert len(payload["reservoir"]) == payload["k"] == 16
        payload["reservoir"].append(["str", "one-too-many"])
        refused(name, payload)

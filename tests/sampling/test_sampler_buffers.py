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
from repro.core.decay import ForwardDecay
from repro.core.errors import ParameterError
from repro.core.functions import PolynomialG
from repro.core.keyed_random import KEY_BITS
from repro.core.protocol import StreamSummary
from repro.core.tree import pack_tree
from repro.sampling.with_replacement import DecayedSamplerWithReplacement
from tests.core.test_protocol_conformance import feed

registry.load_all()
SAMPLERS = [info.name for info in registry.iter_summaries() if info.kind == "sampler"]
HEAPED = ["priority_sampler", "weighted_reservoir"]
TWISTER_STATE = [3, list(random.Random(2009).getstate()[1]), None]


def fed(name: str, n: int = 60) -> StreamSummary:
    info = registry.get_summary(name)
    summary = info.factory()
    feed(summary, info.input_kind, n=n)
    return summary


def buffer(name: str, payload) -> bytes:
    """The ``to_bytes`` buffer holding ``payload``."""
    head = bytes((StreamSummary.SERDE_VERSION, len(name))) + name.encode("utf-8")
    return head + pack_tree(payload)


def refused(name: str, payload) -> None:
    with pytest.raises(ParameterError, match=name):
        StreamSummary.from_bytes(buffer(name, payload))


def test_the_registry_has_the_five_samplers():
    assert len(SAMPLERS) == 5 and set(HEAPED) < set(SAMPLERS)


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


class TestSlotThresholds:
    @pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-over"])
    def test_a_next_replace_list_of_another_length_is_refused(self, extra):
        # A phantom threshold would set the sampler's jump point; a
        # missing one is indexed past on the next update.
        payload = fed("decayed_with_replacement")._state_payload()
        s = payload["s"]
        assert len(payload["next_replace"]) == s
        if extra < 0:
            payload["next_replace"].pop()
        else:
            payload["next_replace"].append(min(payload["next_replace"]) / 2)
        with pytest.raises(
            ParameterError,
            match=f"s is {s} but the payload carries {s + extra} next_replace",
        ):
            StreamSummary.from_bytes(buffer("decayed_with_replacement", payload))


#: Buffers the two-path samplers wrote, before each kept one update path:
#: ``DecayedSamplerWithReplacement(ForwardDecay(PolynomialG(2.0)), 3,
#: rng=random.Random(7))`` on the coin path and on the threshold path, and
#: ``ReservoirSampler(4, rng=random.Random(7))`` on Algorithm R, each fed
#: ``feed(sampler, kind, n=10)``.  Their payloads name the retired flag;
#: each is re-packed at the current buffer layout, its payload unchanged.
COIN_PATH_BUFFER = bytes.fromhex(
    "0318646563617965645f776974685f7265706c6163656d656e74080a00000007"
    "200511010c0c05050c0d036465636179696e7465726e616c5f6c616e646d6172"
    "6b737573655f736b697070696e677765696768745f746f74616c736c6f747369"
    "74656d736e6578745f7265706c6163656d696e5f7468726573686f6c64726e67"
    "000803000000072001060867706172616d736c616e646d61726b00060b000000"
    "506f6c796e6f6d69616c47080100000007200462657461060000000000000040"
    "0500000000000000000500000000000000000303000000000000000105000000"
    "00001078400703000000080200000001060300000073747207a0050201016974"
    "656d2d31313333030a0000000000000007000000000500000000000000000702"
    "0000000538b4e652f2a653793c00000000000000"
)
THRESHOLD_PATH_BUFFER = bytes.fromhex(
    "0318646563617965645f776974685f7265706c6163656d656e74080a00000007"
    "200511010c0c05050c0d036465636179696e7465726e616c5f6c616e646d6172"
    "6b737573655f736b697070696e677765696768745f746f74616c736c6f747369"
    "74656d736e6578745f7265706c6163656d696e5f7468726573686f6c64726e67"
    "000803000000072001060867706172616d736c616e646d61726b00060b000000"
    "506f6c796e6f6d69616c47080100000007200462657461060000000000000040"
    "0500000000000000000500000000000000000303000000000000000205000000"
    "00001078400703000000080200000001060300000073747207a0050102026974"
    "656d2d3031313131030a00000000000000070300000006d32a25c8e21182407e"
    "4166d281bb82409d28a80ef6c37e40059d28a80ef6c37e4007020000000538b4"
    "e652f2a653791800000000000000"
)
ALGORITHM_R_BUFFER = bytes.fromhex(
    "03097265736572766f697208060000000720010c040409036b7573655f736b69"
    "7070696e677365656e736b69707265736572766f6972726e6700030400000000"
    "00000001030a0000000000000003000000000000000007040000000802000000"
    "01060300000073747207a005010101016974656d2d3139303307020000000538"
    "b4e652f2a653790c00000000000000"
)


def continued(summary: StreamSummary, input_kind: str) -> bytes:
    """``summary``'s buffer after 20 more items."""
    feed(summary, input_kind, n=20, offset=1)
    return summary.to_bytes()


class TestRetiredUpdatePaths:
    """A buffer from a retired update path either continues its run
    exactly or is refused; it never restores into a sampler that would
    run on differently."""

    def test_a_coin_path_with_replacement_buffer_is_refused(self):
        # The coin path kept no per-slot thresholds: a restored one failed
        # its first update with a bare IndexError.
        with pytest.raises(
            ParameterError, match="s is 3 but the payload carries 0 next_replace"
        ):
            StreamSummary.from_bytes(COIN_PATH_BUFFER)

    def test_a_threshold_path_with_replacement_buffer_continues_its_run(self):
        restored = StreamSummary.from_bytes(THRESHOLD_PATH_BUFFER)
        fresh = DecayedSamplerWithReplacement(
            ForwardDecay(PolynomialG(2.0)), 3, rng=random.Random(7)
        )
        feed(fresh, "item_time", n=10)
        assert restored.sample() == fresh.sample()
        assert continued(restored, "item_time") == continued(fresh, "item_time")

    def test_a_reservoir_buffer_with_a_skip_count_is_refused(self):
        # Even one written on Algorithm R: its payload cannot say whether
        # the run was mid-skip.
        with pytest.raises(ParameterError, match="carries a skip count"):
            StreamSummary.from_bytes(ALGORITHM_R_BUFFER)

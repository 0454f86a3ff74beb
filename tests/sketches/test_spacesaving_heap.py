"""The one-entry heap of ``WeightedSpaceSaving`` against the heap it replaced.

Until PR 22 every update pushed a fresh ``(count, item)`` entry and the
minimum was found by popping stale ones.  Now an update to a monitored
item touches the dict only and a replacement refreshes stale tops in
place.  The old structure is kept here, as the oracle: the victim
sequence, the dict insertion order and so ``_state_payload()`` must be
the same after every step, while the heap stays at one entry a counter
and a heavy-hitter group's RAM drops by half.
"""

from __future__ import annotations

import heapq
import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.dsms.udaf import WeightedHHUdaf
from repro.sketches.spacesaving import WeightedSpaceSaving


class PushPerUpdate(WeightedSpaceSaving):
    """The parent commit's update: a heap entry per update, lazily popped."""

    def update(self, item, weight=1.0):
        if weight == 0.0:
            return
        self._total += weight
        counts = self._counts
        if item in counts:
            counts[item] += weight
            heapq.heappush(self._heap, (counts[item], item))
        elif len(counts) < self.capacity:
            counts[item] = weight
            self._errors[item] = 0.0
            heapq.heappush(self._heap, (weight, item))
        else:
            while True:
                min_count, victim = heapq.heappop(self._heap)
                if counts.get(victim) == min_count:
                    break
            del counts[victim]
            del self._errors[victim]
            counts[item] = min_count + weight
            self._errors[item] = min_count
            heapq.heappush(self._heap, (min_count + weight, item))


# Integer-valued weights make counts tie, so the item breaks the tie; the
# odd floats make a count that an addition leaves unchanged (1e-20 into 1.0).
WEIGHTS = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, 0.5, 1e-20, 1e18]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
UPDATES = st.lists(st.tuples(st.integers(0, 11), WEIGHTS), max_size=40)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("update"), UPDATES),
        st.tuples(st.just("batch"), UPDATES),
        st.tuples(st.just("scale"), st.sampled_from([0.5, 2.0, 1e-3, 3.0])),
        st.tuples(st.just("merge"), UPDATES),
    ),
    max_size=12,
)


def assert_same(sketch: WeightedSpaceSaving, oracle: PushPerUpdate) -> None:
    assert sketch._state_payload() == oracle._state_payload()
    assert len(sketch._heap) == len(sketch._counts) <= sketch.capacity
    assert all(recorded <= sketch._counts[item] for recorded, item in sketch._heap)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 6), steps=STEPS)
def test_state_equals_the_push_per_update_heap_after_every_step(capacity, steps):
    sketch, oracle = WeightedSpaceSaving(capacity), PushPerUpdate(capacity)
    for kind, body in steps:
        if kind == "update":
            for item, weight in body:
                sketch.update(item, weight)
                oracle.update(item, weight)
                assert_same(sketch, oracle)
        elif kind == "batch" and body:
            sketch.update_many(*zip(*body))
            for item, weight in body:
                oracle.update(item, weight)
        elif kind == "scale":
            sketch.scale(body)
            oracle.scale(body)
        elif kind == "merge":
            peer, oracle_peer = WeightedSpaceSaving(capacity), PushPerUpdate(capacity)
            for item, weight in body:
                peer.update(item, weight)
                oracle_peer.update(item, weight)
            sketch.merge(peer, 0.5)
            oracle.merge(oracle_peer, 0.5)
        assert_same(sketch, oracle)
    assert sketch.to_bytes() == WeightedSpaceSaving.from_bytes(sketch.to_bytes()).to_bytes()


def test_a_long_skewed_stream_has_the_parents_state():
    rng = random.Random(22)
    sketch, oracle = WeightedSpaceSaving(100), PushPerUpdate(100)
    for __ in range(30_000):
        item = int(rng.paretovariate(1.1)) % 5_000
        weight = rng.random() * 10
        sketch.update(item, weight)
        oracle.update(item, weight)
    assert len(oracle._heap) > 8 * oracle.capacity  # what the parent carried
    assert len(sketch._heap) == len(sketch._counts) == 100
    # to_bytes() is the registry name plus this tree, packed.
    assert sketch._state_payload() == oracle._state_payload()


def test_a_fwd_hh_group_stays_under_30_kb_after_100k_updates():
    # This stream: 37.3 kB at the parent commit (up to 8 x capacity stale
    # heap entries a group; 49.0 kB on the sketch_inproc trace), 20.2 kB
    # with one entry a counter.
    rng = random.Random(4)
    items = [f"10.0.{v % 256}.{v // 256}" for v in (
        int(rng.paretovariate(1.1)) % 2_000 for __ in range(100_000)
    )]
    weights = [rng.random() * 400 for __ in items]
    udaf = WeightedHHUdaf()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = udaf.create()
        for start in range(0, len(items), 2_000):
            batch = slice(start, start + 2_000)
            udaf.update_cols(state, (items[batch], weights[batch]), 2_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(state) == 100
    assert held <= 30_000, held

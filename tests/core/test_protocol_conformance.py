"""Registry-driven conformance tests for the StreamSummary protocol.

Every summary registered in :mod:`repro.core.registry` must uphold the
protocol contract, whatever its family:

* ``update_many`` is equivalent to repeated ``update`` (bit-identical for
  loop-based summaries, within float tolerance for a batch kernel that
  regroups additions);
* ``update_many`` split into two batches, or given empty columns,
  answers like one batch of the same rows;
* ``from_bytes(to_bytes(s))`` answers queries identically and
  re-serializes to the same bytes; the buffer is the packed version-2
  layout, a buffer of any other version is refused, and no damaged
  buffer escapes as anything but :class:`ParameterError`;
* a summary restored mid-stream, or deep-copied, runs on byte for byte
  like the one that never stopped;
* mergeable summaries satisfy the substream property — merging summaries
  of disjoint substreams, in any fold order, answers like the
  whole-stream summary (exactly for ``exact_merge`` entries, within
  tolerance for float state), an empty summary merges as the identity,
  and non-mergeable summaries raise :class:`MergeError`.

These tests are intentionally generic: adding a new summary class to the
registry enrolls it here with no further work.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random
import struct

import pytest

from repro.core import registry
from repro.core.errors import MergeError, ParameterError
from repro.core.merge import merge_all
from repro.core.protocol import StreamSummary, summary_type_of
from repro.core.tree import pack_tree, unpack_tree
from tests.core import test_weights
from tests.core.test_tree_codec import identical

registry.load_all()
ALL = registry.iter_summaries()
ALL_NAMES = [info.name for info in ALL]
MERGEABLE = [info.name for info in ALL if info.mergeable]
EXACT_MERGE = [info.name for info in ALL if info.mergeable and info.exact_merge]
NON_MERGEABLE = [info.name for info in ALL if not info.mergeable]

def records_for(input_kind: str, n: int = 200, offset: int = 0) -> list[tuple]:
    """A deterministic stream of ``update`` argument tuples for one kind.

    Timestamps start at 1.0 (a weight of exactly zero at the landmark is
    rejected by some summaries) and increase, so ordered summaries accept
    the same stream as unordered ones.
    """
    rng = random.Random(42 + offset)
    records: list[tuple] = []
    for i in range(n):
        t = float(offset * n + i) + 1.0
        value = rng.uniform(0.5, 10.0)
        item = f"item-{rng.randrange(12)}"
        if input_kind == "time_value":
            records.append((t, value))
        elif input_kind == "item_time":
            records.append((item, t))
        elif input_kind == "value_time":
            records.append((rng.randrange(1024), t))
        elif input_kind == "item_weight":
            records.append((item, value))
        elif input_kind == "value_weight":
            records.append((rng.randrange(1024), value))
        elif input_kind == "item":
            records.append((item,))
        elif input_kind == "time":
            records.append((t,))
        elif input_kind == "time_value_ordered":
            records.append((t, float(rng.randrange(1, 30))))
        elif input_kind == "item_logweight":
            records.append((item, rng.uniform(-3.0, 3.0)))
        else:  # pragma: no cover - registry validates input kinds
            raise AssertionError(f"unhandled input_kind {input_kind!r}")
    return records


def feed(summary: StreamSummary, input_kind: str, n: int = 200,
         offset: int = 0) -> None:
    for record in records_for(input_kind, n, offset):
        summary.update(*record)


def feed_batch(summary: StreamSummary, records: list[tuple]) -> None:
    """``records`` (at least one) through one ``update_many`` call."""
    summary.update_many(*zip(*records))


def query_of(summary: StreamSummary):
    """The summary's primary answer with default arguments.

    Every registered summary supports an argument-less ``query()`` (time
    horizons default to the last observed timestamp, quantile fractions to
    the median, and so on), which is what makes a generic conformance
    check possible.
    """
    return summary.query()


def approx_equal(a, b, rel: float = 1e-9) -> bool:
    """Structural equality with relative tolerance on floats."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b:
            return True
        return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            approx_equal(x, y, rel) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            approx_equal(a[k], b[k], rel) for k in a
        )
    return a == b


class TestRegistry:
    def test_every_entry_well_formed(self):
        assert len(ALL) >= 25
        for info in ALL:
            assert issubclass(info.cls, StreamSummary), info.name
            assert info.kind in ("aggregate", "sketch", "sampler"), info.name
            assert info.input_kind in registry.INPUT_KINDS, info.name
            instance = info.factory()
            assert isinstance(instance, info.cls), info.name
            assert registry.summary_name_of(info.cls) == info.name

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            registry.get_summary("no_such_summary")

    def test_unregistered_class_rejected(self):
        with pytest.raises(ParameterError):
            registry.summary_name_of(dict)


class TestSerdeRoundTrip:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_round_trip_answers_identically(self, name):
        info = registry.get_summary(name)
        summary = info.factory()
        feed(summary, info.input_kind)
        blob = summary.to_bytes()
        assert blob[0] == info.cls.SERDE_VERSION
        restored = info.cls.from_bytes(blob)
        assert type(restored) is info.cls
        assert query_of(restored) == query_of(summary)
        # Serialization is deterministic: the restored copy re-serializes
        # to the very same bytes.
        assert restored.to_bytes() == blob

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_empty_summary_round_trip(self, name):
        info = registry.get_summary(name)
        summary = info.factory()
        blob = summary.to_bytes()
        restored = info.cls.from_bytes(blob)
        assert restored.to_bytes() == blob

    @pytest.mark.parametrize("version", [1, 2, 4])
    def test_version_byte_rejected_on_mismatch(self, version):
        info = registry.get_summary("decayed_count")
        summary = info.factory()
        feed(summary, info.input_kind)
        blob = summary.to_bytes()
        refusal = rf"unsupported summary serde version {version} \(this build reads 3\)"
        with pytest.raises(ParameterError, match=refusal):
            info.cls.from_bytes(bytes([version]) + blob[1:])


def json_buffer(summary: StreamSummary) -> bytes:
    """``summary`` in the version-1 JSON layout, as every commit before the
    packed layout wrote it."""
    body = {
        "type": registry.summary_name_of(type(summary)),
        "payload": summary._state_payload(),
    }
    return b"\x01" + json.dumps(
        body, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def parameter_flips(payload):
    """``payload`` once per bit of each int / float that sits in its
    dicts rather than its arrays, with that one bit flipped."""
    def scalars(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                yield from scalars(value, path + (key,))
        elif type(node) in (int, float):
            yield path, node

    for path, value in scalars(payload, ()):
        code = "<q" if type(value) is int else "<d"
        try:
            (bits,) = struct.unpack("<Q", struct.pack(code, value))
        except struct.error:  # an int past i64: not a size
            continue
        for bit in range(64):
            mutated = copy.deepcopy(payload)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            (node[path[-1]],) = struct.unpack(
                code, struct.pack("<Q", bits ^ (1 << bit))
            )
            yield mutated


GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
#: Committed buffers of ``factory()`` fed ``feed(n=40)``, ``<name>.v3``
#: as this writer must keep producing them, whose every bit is flipped
#: (tests/test_hostile.py).
GOLDEN = ["weighted_spacesaving", "qdigest", "priority_sampler"]
#: Every buffer the writer is held to: each registered summary's, and
#: ``shifted_<owner>.v3`` for each engine owner of ``tests/core/test_weights.py``
#: with a buffer, after the two landmark shifts of its shifting stream.
WRITER_GOLDEN = ALL_NAMES + [
    f"shifted_{owner}" for owner in test_weights.OWNERS if owner != "kmeans"
]


def golden_summary(name: str) -> StreamSummary:
    if name.startswith("shifted_"):
        return test_weights._fed(
            name[len("shifted_"):], test_weights._stream(),
            test_weights.SHIFTING_LANDMARK,
        )
    info = registry.get_summary(name)
    summary = info.factory()
    feed(summary, info.input_kind, n=40)
    return summary


class TestPackedBuffers:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_payload_tree_round_trip_equals_the_json_round_trip(self, name):
        info = registry.get_summary(name)
        for n in (0, 200):
            summary = info.factory()
            feed(summary, info.input_kind, n=n)
            payload = summary._state_payload()
            assert identical(
                unpack_tree(pack_tree(payload)), json.loads(json.dumps(payload))
            )

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_a_version_1_buffer_is_refused_naming_its_version(self, name):
        info = registry.get_summary(name)
        summary = info.factory()
        feed(summary, info.input_kind)
        old = json_buffer(summary)
        refusal = r"unsupported summary serde version 1 \(this build reads 3\)"
        for read in (StreamSummary.from_bytes, info.cls.from_bytes, summary_type_of):
            with pytest.raises(ParameterError, match=refusal):
                read(old)

    # Every truncation and flipped bit of each buffer: tests/test_hostile.py.

    @pytest.mark.parametrize("name", WRITER_GOLDEN)
    def test_writer_matches_the_committed_bytes(self, name):
        golden = (GOLDEN_DIR / f"{name}.v3").read_bytes()
        assert golden_summary(name).to_bytes() == golden
        assert StreamSummary.from_bytes(golden).to_bytes() == golden

    @pytest.mark.parametrize(
        "name, payload, leaked",
        [
            ("qdigest", {}, "KeyError"),
            # A Mersenne Twister's state, as samplers once wrote it.
            ("priority_sampler",
             {"k": 4, "seen": 1, "tiebreak": 1, "log_tau": None, "heap": [[1]],
              "rng": [3, [0] * 625, None]},
             "ParameterError"),
            ("weighted_spacesaving", [1, 2], "TypeError"),
        ],
    )
    def test_a_wrong_payload_is_a_parameter_error_naming_the_type(
        self, name, payload, leaked
    ):
        """A well-formed buffer of the wrong content used to escape as
        whatever ``_from_payload`` tripped on (``leaked``)."""
        packed = bytes((3, len(name))) + name.encode("utf-8") + pack_tree(payload)
        with pytest.raises(ParameterError, match=name) as caught:
            StreamSummary.from_bytes(packed)
        assert type(caught.value.__cause__).__name__ == leaked

    def test_foreign_buffers_are_refused_by_their_head(self):
        for junk in (b"", b"\x02", b"\x02\x09qdigest", b"\x00abc", b"\x01[]",
                     b'\x01{"type":"qdigest","payload":{}}',
                     b"\x02" + golden_summary("qdigest").to_bytes()[1:]):
            with pytest.raises(ParameterError):
                StreamSummary.from_bytes(junk)
            if junk:
                with pytest.raises(ParameterError):
                    summary_type_of(junk)


#: ``len(to_bytes())`` of every registered summary's ``factory()`` after
#: :func:`feed`: the one place a buffer that grew (or shrank) has to be
#: said in a diff.  The seven samplers were ~2.5 kB larger while their
#: generator was a 625-word Mersenne Twister (``priority_sampler`` 3,032),
#: and a buffer with string items ~50 B larger (``priority_sampler`` 532)
#: before a string column stored its values' shared head once.
BUFFER_BYTES = {
    "decayed_algebraic": 219,
    "decayed_average": 216,
    "decayed_count": 195,
    "decayed_distinct_count": 3930,
    "decayed_heavy_hitters": 408,
    "decayed_max": 187,
    "decayed_min": 187,
    "decayed_quantiles": 2179,
    "decayed_sum": 192,
    "decayed_variance": 236,
    "exact_decayed_distinct": 306,
    "aggarwal_reservoir": 152,
    "decayed_with_replacement": 346,
    "priority_sampler": 458,
    "reservoir": 141,
    "weighted_reservoir": 314,
    "dominance_norm": 3298,
    "eh_count": 405,
    "eh_sum": 772,
    "gk_summary": 438,
    "kmv": 154,
    "qdigest": 1956,
    "sliding_window_heavy_hitters": 10018,
    "unary_spacesaving": 150,
    "weighted_spacesaving": 237,
}


class TestBufferSizes:
    def test_every_registered_summary_is_in_the_table(self):
        assert sorted(BUFFER_BYTES) == sorted(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_buffer_size_is_the_pinned_one(self, name):
        info = registry.get_summary(name)
        summary = info.factory()
        feed(summary, info.input_kind)
        assert len(summary.to_bytes()) == BUFFER_BYTES[name]


#: ``state_size_bytes()`` of every registered summary's ``factory()`` after
#: :func:`feed`: the accounting Figs. 2(d) and 4(c)/(d) plot and the smoke
#: gates ``fig2a.*.state_bytes`` / ``fig4a.*.state_bytes`` read.
STATE_SIZE_BYTES = {
    "decayed_algebraic": 8,
    "decayed_average": 16,
    "decayed_count": 8,
    "decayed_distinct_count": 1248,
    "decayed_heavy_hitters": 288,
    "decayed_max": 8,
    "decayed_min": 8,
    "decayed_quantiles": 2944,
    "decayed_sum": 8,
    "decayed_variance": 24,
    "exact_decayed_distinct": 192,
    "aggarwal_reservoir": 128,
    "decayed_with_replacement": 72,
    "priority_sampler": 384,
    "reservoir": 128,
    "weighted_reservoir": 256,
    "dominance_norm": 1288,
    "eh_count": 560,
    "eh_sum": 1216,
    "gk_summary": 456,
    "kmv": 96,
    "qdigest": 2944,
    "sliding_window_heavy_hitters": 12936,
    "unary_spacesaving": 288,
    "weighted_spacesaving": 288,
}


class TestStateSizes:
    def test_every_registered_summary_is_in_the_table(self):
        assert sorted(STATE_SIZE_BYTES) == sorted(ALL_NAMES)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_state_size_is_the_pinned_one(self, name):
        info = registry.get_summary(name)
        summary = info.factory()
        feed(summary, info.input_kind)
        assert summary.state_size_bytes() == STATE_SIZE_BYTES[name]


class TestUpdateManyEquivalence:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_repeated_update(self, name):
        info = registry.get_summary(name)
        one_by_one = info.factory()
        feed(one_by_one, info.input_kind)
        batched = info.factory()
        columns = list(zip(*records_for(info.input_kind)))
        if len(columns) == 1:
            batched.update_many(columns[0])
        else:
            batched.update_many(columns[0], columns[1])
        # A batch kernel may regroup float additions, so equality is up
        # to rounding; loop-based summaries (samplers included: same RNG
        # consumption order) match exactly.
        assert approx_equal(query_of(batched), query_of(one_by_one))

    def test_mismatched_column_lengths_rejected(self):
        summary = registry.get_summary("weighted_spacesaving").factory()
        with pytest.raises(ParameterError):
            summary.update_many(["a", "b"], [1.0])


class TestMergeProperty:
    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merge_of_disjoint_substreams(self, name):
        info = registry.get_summary(name)
        whole = info.factory()
        feed(whole, info.input_kind, n=100, offset=0)
        feed(whole, info.input_kind, n=100, offset=1)
        left = info.factory()
        feed(left, info.input_kind, n=100, offset=0)
        right = info.factory()
        feed(right, info.input_kind, n=100, offset=1)
        left.merge(right)
        if info.exact_merge:
            assert approx_equal(query_of(left), query_of(whole)), name
        else:
            # Lossy merges (GK, CM heavy hitters) still produce a valid,
            # queryable summary over the union.
            query_of(left)

    @pytest.mark.parametrize("name", EXACT_MERGE)
    def test_fold_order_of_interleaved_parts_is_irrelevant(self, name):
        # Parts that interleave in time, folded with merge_all front to
        # back or back to front, answer like the whole stream.  Items of
        # equal count may list in another order after a merge.
        def answer(summary):
            result = query_of(summary)
            return sorted(result, key=repr) if isinstance(result, list) else result

        info = registry.get_summary(name)
        whole = info.factory()
        parts = [info.factory() for __ in range(4)]
        for index, record in enumerate(records_for(info.input_kind)):
            whole.update(*record)
            parts[index % 4].update(*record)
        forward = merge_all([copy.deepcopy(part) for part in parts])
        backward = merge_all(parts[::-1])
        assert approx_equal(answer(forward), answer(whole)), name
        assert approx_equal(answer(backward), answer(whole)), name

    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merged_round_trips(self, name):
        info = registry.get_summary(name)
        left = info.factory()
        feed(left, info.input_kind, n=50, offset=0)
        right = info.factory()
        feed(right, info.input_kind, n=50, offset=1)
        left.merge(right)
        restored = info.cls.from_bytes(left.to_bytes())
        assert query_of(restored) == query_of(left)

    @pytest.mark.parametrize("name", NON_MERGEABLE)
    def test_non_mergeable_raises_merge_error(self, name):
        info = registry.get_summary(name)
        left = info.factory()
        right = info.factory()
        feed(left, info.input_kind, n=20)
        feed(right, info.input_kind, n=20)
        with pytest.raises(MergeError):
            left.merge(right)

    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merging_wrong_type_raises_merge_error(self, name):
        info = registry.get_summary(name)
        summary = info.factory()

        class _Other(StreamSummary):
            pass

        with pytest.raises(MergeError):
            summary.merge(_Other())


class TestCheckpointContinuation:
    """A summary restored from its buffer mid-stream runs on exactly like
    the one that never stopped: what a served checkpoint relies on."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_restored_summary_continues_the_run(self, name):
        info = registry.get_summary(name)
        whole = info.factory()
        feed(whole, info.input_kind, n=100, offset=0)
        feed(whole, info.input_kind, n=100, offset=1)
        paused = info.factory()
        feed(paused, info.input_kind, n=100, offset=0)
        resumed = info.cls.from_bytes(paused.to_bytes())
        feed(resumed, info.input_kind, n=100, offset=1)
        assert resumed.to_bytes() == whole.to_bytes()
        assert query_of(resumed) == query_of(whole)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_a_deep_copy_runs_on_independently(self, name):
        # The engine's snapshot clones live state with copy.deepcopy.
        info = registry.get_summary(name)
        original = info.factory()
        feed(original, info.input_kind, n=100)
        before = original.to_bytes()
        clone = copy.deepcopy(original)
        feed(clone, info.input_kind, n=100, offset=1)
        assert original.to_bytes() == before
        feed(original, info.input_kind, n=100, offset=1)
        assert clone.to_bytes() == original.to_bytes()


class TestBatchBoundaries:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_split_batches_match_one_batch(self, name):
        info = registry.get_summary(name)
        records = records_for(info.input_kind)
        one = info.factory()
        feed_batch(one, records)
        split = info.factory()
        feed_batch(split, records[:73])
        feed_batch(split, records[73:])
        assert approx_equal(query_of(split), query_of(one))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_an_empty_batch_changes_nothing(self, name):
        info = registry.get_summary(name)
        no_columns = [[] for __ in records_for(info.input_kind, n=1)[0]]
        empty = info.factory()
        blank = empty.to_bytes()
        fed = info.factory()
        feed(fed, info.input_kind)
        before = fed.to_bytes()
        for summary in (empty, fed):
            summary.update_many(*no_columns)
        assert empty.to_bytes() == blank
        assert fed.to_bytes() == before


class TestMergeWithEmpty:
    """A shard or partial that saw no rows merges as the identity."""

    @pytest.mark.parametrize("name", MERGEABLE)
    def test_merging_an_empty_summary_changes_nothing(self, name):
        info = registry.get_summary(name)
        summary = info.factory()
        feed(summary, info.input_kind)
        before = query_of(summary)
        summary.merge(info.factory())
        assert approx_equal(query_of(summary), before)

    @pytest.mark.parametrize("name", EXACT_MERGE)
    def test_merging_into_an_empty_summary_takes_the_other(self, name):
        # GK's lossy merge re-inserts the other's tuples: its rank bound
        # is checked in tests/sketches/test_gk.py.
        info = registry.get_summary(name)
        other = info.factory()
        feed(other, info.input_kind)
        summary = info.factory()
        summary.merge(other)
        assert approx_equal(query_of(summary), query_of(other))

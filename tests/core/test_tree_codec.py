"""The packed payload-tree codec under ``StreamSummary.to_bytes``.

``repro.core.tree`` has one contract: ``unpack_tree(pack_tree(p))`` is
``json.loads(json.dumps(p))`` with ``type()`` and ``repr()`` identity,
and a damaged buffer is a :class:`ParameterError` — nothing else, and
never an allocation the bytes at hand do not pay for.
"""

from __future__ import annotations

import enum
import json
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ParameterError
from repro.core.tree import RUN_BUDGET, pack_tree, unpack_tree


def identical(a, b) -> bool:
    """Structural equality that tells ``1`` from ``1.0`` from ``True``,
    ``0.0`` from ``-0.0``, and holds for NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(identical, a, b))
    return repr(a) == repr(b)


def via_json(tree):
    return json.loads(json.dumps(tree))


class Colour(enum.IntEnum):
    RED = 3


class Metres(float):
    pass


TREES = [
    None, True, False, 0, -1, 1.0, -0.0, "", "é", [], {}, [[]], [[], []],
    # int vs float vs bool must not blur inside one list
    [1, 1.0, True, None, "1"],
    [0, 0.0, -0.0], [0.0, -0.0], [-0.0, -0.0, -0.0], [False, False], [None] * 5,
    # every int width, both signs, and past i64 on both sides
    [0, 255], [0, 256], [0, 65535, 65536], [0, 1 << 32], [-1, 1], [1 << 63],
    [(1 << 63) - 1, -(1 << 63)], [-(1 << 63) - 1], 1 << 70, -(1 << 70), [1 << 200, 5],
    # strings: runs, empty, multi-byte, lone surrogates, a shared head
    ["str"] * 100, ["a", "", "bc"], ["é", "日本", "x"], ["", ""],
    "\ud800", ["\ud800", "a\udfff", "\x00"], ["日本a", "日本b", "日本"],
    # records: transposed, nested, ragged, wider than long, empty rows
    [[["str", "10.0.0.1"], 1.5, 0.0], [["str", "10.0.0.22"], 2.5, 0.0]],
    [[1, 2.0], [3, 4.0], [5, "x"]],
    [[1, 2], [3]], [[1, 2, 3]], [[1.0] * 8, [2.0] * 8], [[], [], []],
    [(1, "a"), [2, "b"]], ((1, 2), (3, 4)),
    ["192.168.0.1", "192.168.0.22", "192.168.3.4", "192.168.10.3"],
    {"k": 100, "seen": 7, "heap": [[7.3, 1516, ["str", "h"], 4.1]] * 3,
     "rng": [3, list(range(0, 4_000_000_000, 7_000_000)), None]},
    {"a": {"b": {"c": [{"d": 1}, {"d": 2}]}}, "é": [None, {"x": []}]},
    # scalar subclasses pack as the base value, as json.dumps writes them
    [Colour.RED, Metres(2.5)], {"c": Colour.RED},
]


class TestRoundTrip:
    @pytest.mark.parametrize("tree", TREES, ids=lambda t: repr(t)[:40])
    def test_equals_the_json_round_trip_with_type_identity(self, tree):
        assert identical(unpack_tree(pack_tree(tree)), via_json(tree))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_floats_survive_bit_exactly(self, value):
        # JSON has no spelling for these; the payload hooks tag them, but
        # a raw one must not be silently altered either.
        for tree in (value, [value, 1.0], [value] * 3):
            assert identical(unpack_tree(pack_tree(tree)), tree)

    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            st.one_of(
                st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70),
                st.integers(0, 300), st.floats(allow_nan=False), st.text(max_size=6),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=6),
                st.lists(st.tuples(inner, inner), max_size=6),
                st.dictionaries(st.text(max_size=4), inner, max_size=5),
            ),
            max_leaves=40,
        )
    )
    def test_any_json_compatible_tree(self, tree):
        assert identical(unpack_tree(pack_tree(tree)), via_json(tree))

    def test_refuses_what_json_would_coerce_or_reject(self):
        for tree in ({1: "a"}, {"a": 1, None: 2}, b"bytes", {"s": {1, 2}}, [object()]):
            with pytest.raises(ParameterError):
                pack_tree(tree)

    def test_dense_where_it_matters(self):
        words = list(range(0, 625 * 6_000_000, 6_000_000))  # an MT state
        assert len(pack_tree(words)) == 5 + 1 + 4 * 625
        counters = [[["str", f"10.0.0.{i}"], (i + 1) / 7, 0.0] for i in range(100)]
        assert len(pack_tree(counters)) < 0.4 * len(json.dumps(counters))  # 1.8 / 4.6 kB


class TestHostileInput:
    BUFFERS = [pack_tree(tree) for tree in TREES[-9:-2]]

    # Every truncation and flipped bit of BUFFERS: tests/test_hostile.py.

    @pytest.mark.parametrize(
        "forged",
        [
            # list / generic column / numeric block / str column / records /
            # dict / str / bigint, each claiming 2**32 - 1 of something
            struct.pack("<BIB", 7, 0xFFFFFFFF, 0),
            struct.pack("<BIB", 7, 0xFFFFFFFF, 6),
            struct.pack("<BIBB", 7, 0xFFFFFFFF, 7, 0xA0),
            struct.pack("<BIBI", 7, 2, 8, 0xFFFFFFFF),
            struct.pack("<BIB", 8, 0xFFFFFFFF, 0),
            struct.pack("<BI", 6, 0xFFFFFFFF),
            struct.pack("<BI", 4, 0xFFFFFFFF),
        ],
        ids=["generic", "block", "strs", "records", "dict", "str", "bigint"],
    )
    def test_no_count_allocates_past_the_bytes_that_remain(self, forged):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError):
                unpack_tree(forged + b"\x00" * 64)
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()

    def test_a_head_past_the_bytes_or_inside_a_character_is_refused(self):
        packed = pack_tree(["éa", "éb", "éc"])  # u8 lengths: head 2, rests 1
        at = packed.index(bytes((7, 0xA0))) + 2
        assert packed[at:at + 4] == bytes((2, 1, 1, 1))
        for lengths, problem in (
            ((0xFF, 1, 1, 1), "does not match its lengths"),
            ((1, 2, 1, 1), "undecodable str"),  # the head ends inside "é"
        ):
            forged = packed[:at] + bytes(lengths) + packed[at + 4:]
            with pytest.raises(ParameterError, match=problem):
                unpack_tree(forged)

    def test_runs_share_one_budget_on_both_sides(self):
        zeros = [0.0] * (RUN_BUDGET // 2 + 1)
        packed = pack_tree([zeros, zeros])
        # The second run no longer fits: it is written as a dense block.
        assert len(packed) > 8 * len(zeros)
        assert unpack_tree(packed) == [zeros, zeros]
        run = struct.pack("<BIB", 7, RUN_BUDGET // 2 + 1, 1) + pack_tree(0.0)
        forged = struct.pack("<BIB", 7, 2, 0) + run + run
        with pytest.raises(ParameterError, match="runs expand"):
            unpack_tree(forged)

    def test_nesting_past_the_recursion_limit_is_a_parameter_error(self):
        tree: list = []
        for _ in range(100_000):
            tree = [tree]
        with pytest.raises(ParameterError):
            pack_tree(tree)
        deep = struct.pack("<BIB", 7, 1, 0) * 100_000 + pack_tree([])
        with pytest.raises(ParameterError):
            unpack_tree(deep)

"""The one string block both codecs write: ``repro.core.cols`` str / bytes
columns and dictionary tables, and ``repro.core.tree`` str columns.

A column whose values share a head stores it once, when byte arithmetic
says that is smaller; either way every value decodes equal under
``type()`` and ``repr()`` (a lone surrogate and a NUL included), equal
columns pack to equal bytes, and no block is larger than the headless
plain or dictionary block the same values would take.  A head repeats on
every row it decodes to, so rows × head bytes stay within
``HEAD_GROWTH`` times the block's bytes: the writer drops a head past
that, and the reader refuses one before it builds a value.
"""

from __future__ import annotations

import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cols import (
    COL_DICT, COL_STR, COLS_CODEC_VERSION, pack_cols, unpack_cols,
)
from repro.core.errors import ParameterError, ProtocolError
from repro.core.tree import (
    HEAD_GROWTH, HEADED, pack_tree, string_block, string_head, unpack_tree,
)
from tests.core.test_cols_codec import lone_kind, str_sizes, width_of

#: Heads a column may share: none, one byte, multi-byte, a NUL, a lone
#: surrogate, an address prefix.
HEADS = ["", "a", "é", "日本", "\x00", "\ud800", "192.168."]
#: Rests: empty (the head is a whole entry), ASCII, multi-byte, NUL, a lone
#: surrogate, long enough for a u16 length table.
PIECES = ["", "1", "22", "é", "日本", "\x00", "\udfff", "x" * 300]
RESTS = st.lists(st.sampled_from(PIECES), max_size=3).map("".join)


def columns(rests):
    """A column of a head plus its rests, one row or more (all equal too)."""
    return st.builds(
        lambda head, rest, copies: [head + r for r in rest] * copies,
        st.sampled_from(HEADS), st.lists(rests, min_size=1, max_size=25),
        st.sampled_from([1, 1, 2]),
    )


def same_reprs(back, values) -> bool:
    return list(map(type, back)) == list(map(type, values)) and list(
        map(repr, back)
    ) == list(map(repr, values))


def twin(values: list) -> list:
    """Equal values, distinct objects."""
    return [value[:0].join([value[:1], value[1:]]) for value in values]


@settings(max_examples=300, deadline=None)
@given(columns(RESTS))
def test_a_str_column_round_trips_in_both_codecs(values):
    body = pack_cols([values])
    (back,), _seq, _count = unpack_cols(body)
    assert same_reprs(back, values)
    assert pack_cols([twin(values)]) == body
    # Never larger than the headless plain or dictionary block.
    plain, packed, _entries = str_sizes(values, heads=False)
    kind, nbytes = lone_kind(values)
    assert nbytes <= min(plain, packed)
    # ... and is the smaller of the two once each has taken its head.
    plain_headed, packed_headed, _entries = str_sizes(values)
    assert nbytes == min(plain_headed, packed_headed)
    assert (kind & 15 == COL_DICT) == (packed_headed < plain_headed)

    tree = pack_tree(values)
    assert same_reprs(unpack_tree(tree), values)
    assert pack_tree(twin(values)) == tree
    # A list tag and count, the column kind and layout, then the block
    # (a run instead when two or more values are all equal).
    if len(set(values)) > 1:
        assert len(tree) <= 5 + 2 + plain


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([b"", b"\x00", b"FDPS\x06", b"\xff" * 40]),
    st.lists(st.binary(max_size=6), min_size=1, max_size=25),
)
def test_a_bytes_column_round_trips_and_never_grows(head, rests):
    values = [head + rest for rest in rests]
    body = pack_cols([values])
    (back,), _seq, _count = unpack_cols(body)
    assert same_reprs(back, values)
    assert pack_cols([[bytes(bytearray(v)) for v in values]]) == body
    plain = width_of(max(map(len, values))) * len(values) + sum(map(len, values))
    assert lone_kind(values)[1] <= plain


def test_a_column_with_no_shared_head_is_the_headless_block():
    values = [format(i, "x")[::-1] + ".10.0.0" for i in range(2048)]
    head = string_head(values)
    assert head == ""
    size, layout, pack, top = string_block(values, head)
    assert size == 2048 + sum(map(len, values)) and layout == 2 << 4
    assert top == max(map(len, values))
    assert list(struct.unpack_from("!2048B", pack())) == list(map(len, values))


@pytest.mark.parametrize("cut", [65, 66])
def test_a_head_is_taken_only_within_its_growth_bound(cut):
    values = ["x" * cut + format(i, "03x") for i in range(1024)]
    headed_size = 1025 + cut + 3 * 1024  # u8 lengths: the head's, each rest's
    size, layout, _pack, _top = string_block(values, string_head(values))
    within = 1024 * cut <= HEAD_GROWTH * headed_size
    assert within == (cut == 65)
    assert bool(layout & HEADED) == within
    assert size == (headed_size if within else 1024 + sum(map(len, values)))
    (back,), _seq, _count = unpack_cols(pack_cols([values]))
    assert back == values and unpack_tree(pack_tree(values)) == values


def test_a_head_that_outgrows_its_block_is_refused_before_any_allocation():
    # Well-formed but for its growth: 1,024 rows of a 4 KiB head and one
    # byte each would decode to 4 MiB from 7 KiB.
    rows, cut = 1024, 4096
    block = struct.pack(f"!{rows + 1}H", cut, *[1] * rows) + b"x" * cut + b"a" * rows
    assert rows * cut > HEAD_GROWTH * len(block)
    batch = (
        struct.pack("!BQIH", COLS_CODEC_VERSION, 0, rows, 1)
        + struct.pack("!BI", COL_STR | 1 << 4 | HEADED, len(block)) + block
    )
    tree = struct.pack("<BIBB", 7, rows, 7, 1 << 4 | HEADED) + block
    tracemalloc.start()
    try:
        for columns in (None, ()):
            with pytest.raises(ProtocolError, match="outgrows its block"):
                unpack_cols(batch, columns=columns)
        with pytest.raises(ParameterError, match="outgrows its block"):
            unpack_tree(tree)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()

"""Unit tests for the typed column-batch codec (:mod:`repro.core.cols`).

The golden-bytes tests pin the on-wire layout literally: any change to
the header structs, the kind dispatch, or the per-column payloads is a
wire-format break and must bump :data:`COLS_CODEC_VERSION`, not silently
reshuffle bytes under existing peers.  The version-1 fixtures are what
the commits before typed encodings wrote — the widest case of each kind —
the ``_V2`` fixtures what the commits before narrow ``f64`` wrote and the
``_V3`` ones what the commits before string heads wrote, and the ``_V4``
ones (and the unsuffixed fixtures that open with a version-4 byte) what
the commits before tree-packed ``tagged`` columns wrote; all stay byte for
byte as decode-only input, and the writer emits their blocks under a
version-5 byte (:func:`at_v5`).  A version-4 JSON ``tagged`` block is
refused in a batch of any version.
"""

from __future__ import annotations

import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cols import (
    COL_BYTES,
    COL_DICT,
    COL_F64,
    COL_I64,
    COL_STR,
    COL_TAGGED,
    COLS_CODEC_VERSION,
    block_values,
    block_zeros,
    cols_to_rows,
    describe_cols,
    open_cols,
    pack_cols,
    pack_column,
    read_column,
    rows_to_cols,
    unpack_cols,
)
from repro.core.errors import ParameterError, ProtocolError
from repro.core.tree import HEAD_GROWTH, pack_tree


def at_v5(body: bytes) -> bytes:
    """A version-4 fixture's blocks under a version-5 byte: version 5
    changed the ``tagged`` kind alone, which the fixture does not hold."""
    assert body[0] == 4
    return b"\x05" + body[1:]


#: Two rows over (int, float, str) with seq=41 — every dense kind at once.
GOLDEN_ROWS = [(7, 1.5, "a"), (-2, -0.25, "bc")]
GOLDEN_SEQ = 41
GOLDEN_BODY = bytes.fromhex(
    "01"                    # codec version 1
    "000000000000002a"      # seq+1 = 42
    "00000002"              # 2 rows
    "0003"                  # 3 columns
    "01" "00000010"         # col 0: i64, 16 bytes
    "0000000000000007" "fffffffffffffffe"
    "02" "00000010"         # col 1: f64, 16 bytes
    "3ff8000000000000" "bfd0000000000000"
    "03" "0000000b"         # col 2: str, 11 bytes
    "00000001" "00000002"   # byte lengths
    "616263"                # "a" + "bc"
)
GOLDEN_BODY_V2 = bytes.fromhex(
    "02"                    # codec version 2
    "000000000000002a"      # seq+1 = 42
    "00000002"              # 2 rows
    "0003"                  # 3 columns
    "31" "00000002"         # col 0: i8, 2 bytes
    "07" "fe"
    "02" "00000010"         # col 1: f64, 16 bytes
    "3ff8000000000000" "bfd0000000000000"
    "23" "00000005"         # col 2: str/u8, 5 bytes
    "01" "02"               # byte lengths
    "616263"                # "a" + "bc"
)
GOLDEN_BODY_V3 = bytes.fromhex(
    "03"                    # codec version 3
    "000000000000002a"      # seq+1 = 42
    "00000002"              # 2 rows
    "0003"                  # 3 columns
    "31" "00000002"         # col 0: i8, 2 bytes
    "07" "fe"
    "02" "00000010"         # col 1: f64, 16 bytes (not integral: stays wide)
    "3ff8000000000000" "bfd0000000000000"
    "23" "00000005"         # col 2: str/u8, 5 bytes
    "01" "02"               # byte lengths
    "616263"                # "a" + "bc"
)
#: No shared head in "a" / "bc": the version-3 blocks under a version-4 byte.
GOLDEN_BODY_V4 = b"\x04" + GOLDEN_BODY_V3[1:]

#: A str column whose values share "192.168.": the head stored once.
GOLDEN_HEAD_COLUMN = ["192.168.0.1", "192.168.0.22", "192.168.3.4"]
GOLDEN_HEAD_BODY = bytes.fromhex(
    "04"                    # codec version 4
    "0000000000000000"      # no seq
    "00000003"              # 3 rows
    "0001"                  # 1 column
    "a3" "00000016"         # col 0: str/u8+head8, 22 bytes
    "08" "03" "04" "03"     # byte lengths: the head, then each value's rest
    "3139322e3136382e"      # "192.168."
    "302e31" "302e3232" "332e34"  # "0.1" + "0.22" + "3.4"
)

#: One float column of integral values: read back as floats from i16s.
GOLDEN_NARROW_F64_COLUMN = [3.0, -2.0, 300.0]
GOLDEN_NARROW_F64_BODY = bytes.fromhex(
    "04"                    # codec version 4
    "0000000000000000"      # no seq
    "00000003"              # 3 rows
    "0001"                  # 1 column
    "22" "00000006"         # col 0: f64/i16, 6 bytes
    "0003" "fffe" "012c"
)

#: One outlier in an otherwise small integral column: i8s plus one patch.
GOLDEN_PATCHED_F64_COLUMN = [1.0, 2.0, 3.0, 4.0, 5.0, 100000.0]
GOLDEN_PATCHED_F64_BODY = bytes.fromhex(
    "04"                    # codec version 4
    "0000000000000000"      # no seq
    "00000006"              # 6 rows
    "0001"                  # 1 column
    "32" "00000012"         # col 0: f64/i8, 18 bytes
    "0102030405" "00"       # six i8s, 0 at the patched row
    "00000005" "40f86a0000000000"  # patch: row 5 is 100000.0
)

#: A column no typed kind holds: one repro.core.tree list of its values.
GOLDEN_TAGGED_COLUMN = [None, True, 1 << 70, (1, "t")]
GOLDEN_TAGGED_BODY = bytes.fromhex(
    "05"                    # codec version 5
    "0000000000000000"      # no seq
    "00000004"              # 4 rows
    "0001"                  # 1 column
    "07" "0000002b"         # col 0: tagged, 43 bytes
    "07" "04000000" "00"    # a tree list of 4, a generic column:
    "00" "02"               # None, True
    "04" "09000000" "400000000000000000"  # 1 << 70, nine bytes big-endian
    "09" "02000000" "00"    # the tuple (1, "t"), a generic column:
    "03" "0100000000000000" "06" "01000000" "74"
)


class TestGoldenBytes:
    def test_packed_batch_matches_fixture(self):
        cols = rows_to_cols(GOLDEN_ROWS)
        assert pack_cols(cols, seq=GOLDEN_SEQ) == at_v5(GOLDEN_BODY_V4)

    @pytest.mark.parametrize(
        "body", [GOLDEN_BODY, GOLDEN_BODY_V2, GOLDEN_BODY_V3, GOLDEN_BODY_V4,
                 at_v5(GOLDEN_BODY_V4)]
    )
    def test_fixture_unpacks_to_the_source_rows(self, body):
        cols, seq, count = unpack_cols(body)
        assert seq == GOLDEN_SEQ
        assert count == 2
        assert cols_to_rows(cols) == GOLDEN_ROWS

    def test_a_shared_head_is_stored_once(self):
        assert pack_cols([GOLDEN_HEAD_COLUMN]) == at_v5(GOLDEN_HEAD_BODY)
        (back,), _seq, count = unpack_cols(GOLDEN_HEAD_BODY)
        assert (back, count) == (GOLDEN_HEAD_COLUMN, 3)
        assert describe_cols(GOLDEN_HEAD_BODY) == (3, [("str/u8+head8", 22)])
        with memoryview(GOLDEN_HEAD_BODY) as view:
            _count, _seq, (block,) = open_cols(view)
            assert block_values(view, block, 3, [2, 0]) == [
                "192.168.3.4", "192.168.0.1",
            ]

    def test_integral_float_column_matches_fixture(self):
        assert pack_cols([GOLDEN_NARROW_F64_COLUMN]) == at_v5(GOLDEN_NARROW_F64_BODY)
        (back,), seq, count = unpack_cols(GOLDEN_NARROW_F64_BODY)
        assert (back, seq, count) == (GOLDEN_NARROW_F64_COLUMN, None, 3)
        assert all(type(value) is float for value in back)
        assert describe_cols(GOLDEN_NARROW_F64_BODY) == (3, [("f64/i16", 6)])

    def test_patched_float_column_matches_fixture(self):
        assert pack_cols([GOLDEN_PATCHED_F64_COLUMN]) == at_v5(GOLDEN_PATCHED_F64_BODY)
        (back,), _seq, count = unpack_cols(GOLDEN_PATCHED_F64_BODY)
        assert (back, count) == (GOLDEN_PATCHED_F64_COLUMN, 6)
        assert all(type(value) is float for value in back)
        assert describe_cols(GOLDEN_PATCHED_F64_BODY) == (6, [("f64/i8", 18)])

    def test_a_tagged_column_matches_fixture(self):
        assert pack_cols([GOLDEN_TAGGED_COLUMN]) == GOLDEN_TAGGED_BODY
        (back,), _seq, count = unpack_cols(GOLDEN_TAGGED_BODY)
        assert (back, count) == (GOLDEN_TAGGED_COLUMN, 4)
        assert [type(value) for value in back] == [type(None), bool, int, tuple]
        assert describe_cols(GOLDEN_TAGGED_BODY) == (4, [("tagged", 43)])

    def test_seqless_batch_zeroes_the_seq_field(self):
        body = pack_cols(rows_to_cols(GOLDEN_ROWS))
        assert body[1:9] == bytes(8)
        assert unpack_cols(body)[1] is None

    def test_bool_column_is_tagged_not_i64(self):
        # bool is an int subclass; type() dispatch must keep it out of
        # the i64 kind so identity survives the round trip.
        body = pack_cols([[True, False]])
        kind = body[struct.calcsize("!BQIH")]
        assert kind == COL_TAGGED
        assert unpack_cols(body)[0] == [[True, False]]
        assert isinstance(unpack_cols(body)[0][0][0], bool)


#: One ``bytes`` column (kind 5): raw buffers behind a u32 length table.
GOLDEN_BYTES_COLUMN = [b"\x00\xff", b"", b"abc"]
GOLDEN_BYTES_BODY = bytes.fromhex(
    "01"                    # codec version 1
    "0000000000000000"      # no seq
    "00000003"              # 3 rows
    "0001"                  # 1 column
    "05" "00000011"         # col 0: bytes, 17 bytes
    "00000002" "00000000" "00000003"  # byte lengths
    "00ff" "616263"         # the buffers, back to back
)
GOLDEN_BYTES_BODY_V2 = bytes.fromhex(
    "02"                    # codec version 2
    "0000000000000000"      # no seq
    "00000003"              # 3 rows
    "0001"                  # 1 column
    "25" "00000008"         # col 0: bytes/u8, 8 bytes
    "02" "00" "03"          # byte lengths
    "00ff" "616263"         # the buffers, back to back
)
GOLDEN_BYTES_BODY_V3 = bytes.fromhex(
    "03"                    # codec version 3
    "0000000000000000"      # no seq
    "00000003"              # 3 rows
    "0001"                  # 1 column
    "25" "00000008"         # col 0: bytes/u8, 8 bytes
    "02" "00" "03"          # byte lengths
    "00ff" "616263"         # the buffers, back to back
)
GOLDEN_BYTES_BODY_V4 = b"\x04" + GOLDEN_BYTES_BODY_V3[1:]

#: One ``str`` column the dictionary wins: 2 entries, twelve u8 codes.
GOLDEN_DICT_COLUMN = ["ab", "c"] + ["ab"] * 2 + ["c"] + ["ab"] * 7
GOLDEN_DICT_BODY = bytes.fromhex(
    "04"                    # codec version 4
    "0000000000000000"      # no seq
    "0000000c"              # 12 rows
    "0001"                  # 1 column
    "26" "0000001a"         # col 0: dict/u8, 26 bytes
    "00000002"              # 2 entries
    "23" "00000005"         # the table: a nested str/u8 block, 5 bytes
    "02" "01" "616263"      # "ab" + "c", first seen first
    "000100000100000000000000"  # a code per row
)

#: A dictionary whose table shares "proto-": its nested str block is headed.
GOLDEN_HEAD_DICT_COLUMN = ["proto-tcp", "proto-udp", "proto-tcp"] * 2
GOLDEN_HEAD_DICT_BODY = bytes.fromhex(
    "04"                    # codec version 4
    "0000000000000000"      # no seq
    "00000006"              # 6 rows
    "0001"                  # 1 column
    "26" "0000001e"         # col 0: dict/u8, 30 bytes
    "00000002"              # 2 entries
    "a3" "0000000f"         # the table: a nested str/u8+head6 block, 15 bytes
    "06" "03" "03"          # the head's length, then each entry's rest
    "70726f746f2d" "746370" "756470"  # "proto-" + "tcp" + "udp"
    "000100000100"          # a code per row
)


class TestBytesColumn:
    def test_packed_bytes_column_matches_fixture(self):
        assert pack_cols([GOLDEN_BYTES_COLUMN]) == at_v5(GOLDEN_BYTES_BODY_V4)

    @pytest.mark.parametrize("body", [
        GOLDEN_BYTES_BODY, GOLDEN_BYTES_BODY_V2, GOLDEN_BYTES_BODY_V3,
        GOLDEN_BYTES_BODY_V4,
    ])
    def test_fixture_unpacks_to_the_source_buffers(self, body):
        cols, seq, count = unpack_cols(body)
        assert (cols, seq, count) == ([GOLDEN_BYTES_COLUMN], None, 3)
        assert all(type(value) is bytes for value in cols[0])

    def test_dictionary_column_matches_fixture(self):
        assert pack_cols([GOLDEN_DICT_COLUMN]) == at_v5(GOLDEN_DICT_BODY)
        assert unpack_cols(GOLDEN_DICT_BODY) == ([GOLDEN_DICT_COLUMN], None, 12)
        assert describe_cols(GOLDEN_DICT_BODY) == (12, [("dict[2]/u8", 26)])

    def test_a_dictionary_table_stores_its_head_once(self):
        assert pack_cols([GOLDEN_HEAD_DICT_COLUMN]) == at_v5(GOLDEN_HEAD_DICT_BODY)
        assert unpack_cols(GOLDEN_HEAD_DICT_BODY)[0] == [GOLDEN_HEAD_DICT_COLUMN]
        assert describe_cols(GOLDEN_HEAD_DICT_BODY) == (6, [("dict[2]/u8+head6", 30)])

    def test_describe_names_each_block_by_its_encoding(self):
        assert describe_cols(GOLDEN_BYTES_BODY) == (3, [("bytes/u32", 17)])
        assert GOLDEN_BYTES_BODY[15] == COL_BYTES
        assert describe_cols(GOLDEN_BYTES_BODY_V2) == (3, [("bytes/u8", 8)])
        assert describe_cols(GOLDEN_BODY) == (
            2, [("i64", 16), ("f64", 16), ("str/u32", 11)]
        )
        assert describe_cols(GOLDEN_BODY_V2) == (
            2, [("i8", 2), ("f64", 16), ("str/u8", 5)]
        )
        with pytest.raises(ProtocolError, match="truncated"):
            describe_cols(GOLDEN_BODY[:20])

    # Every truncation of each fixture: tests/test_hostile.py.

    def test_length_table_mismatch_rejected(self):
        body = bytearray(GOLDEN_BYTES_BODY)
        body[-9] += 1  # last length 3 -> 4: one byte more than the blob
        with pytest.raises(ProtocolError, match="does not match"):
            unpack_cols(bytes(body))

    def test_bytes_mixed_with_str_falls_back_and_is_refused(self):
        # tag_key has no bytes tag: a mixed column cannot be packed.
        with pytest.raises(ParameterError, match="bytes"):
            pack_cols([[b"x", "y"]])

    def test_lone_column_block_round_trips(self):
        block = pack_column(GOLDEN_BYTES_COLUMN)
        assert block == GOLDEN_BYTES_BODY_V2[15:]
        padded = b"\xaa" + block + b"\xbb"
        values, end = read_column(padded, 1, 3)
        assert (values, end) == (GOLDEN_BYTES_COLUMN, len(padded) - 1)
        with pytest.raises(ProtocolError, match="truncated"):
            read_column(block[:-1], 0, 3)


class TestRoundTrip:
    def test_types_survive_exactly(self):
        rows = [
            (1, 1.0, "x", None, True, 1 << 80),
            (-5, -0.0, "", 3, False, -(1 << 80)),
        ]
        cols, seq, count = unpack_cols(pack_cols(rows_to_cols(rows)))
        back = cols_to_rows(cols)
        assert back == rows
        for original, decoded in zip(rows, back):
            for a, b in zip(original, decoded):
                assert type(a) is type(b)

    def test_negative_zero_and_nonfinite_floats_bit_exact(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan]
        (col,), _, _ = unpack_cols(pack_cols([values]))
        for original, decoded in zip(values, col):
            assert struct.pack("!d", original) == struct.pack("!d", decoded)

    def test_kinds_chosen_per_column(self):
        body = pack_cols([[1, 2], [1.0, 2.0], ["a", "b"], [1, "mixed"]])
        offset = struct.calcsize("!BQIH")
        kinds = []
        head = struct.Struct("!BI")
        while offset < len(body):
            kind, nbytes = head.unpack_from(body, offset)
            kinds.append(kind)
            offset += head.size + nbytes
        # Low nibble the kind, high nibble the width shrink: i8, f64/i8,
        # str/u8.
        assert kinds == [
            COL_I64 | 3 << 4, COL_F64 | 3 << 4, COL_STR | 2 << 4, COL_TAGGED,
        ]

    def test_out_of_range_int_falls_back_to_tagged(self):
        (col,), _, _ = unpack_cols(pack_cols([[1 << 70, 2]]))
        assert col == [1 << 70, 2]

    def test_unicode_strings_roundtrip(self):
        values = ["", "héllo", "日本語", "a" * 1000]
        (col,), _, _ = unpack_cols(pack_cols([values]))
        assert col == values

    def test_empty_batch(self):
        cols, seq, count = unpack_cols(pack_cols([]))
        assert (cols, seq, count) == ([], None, 0)


class TestPackValidation:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ProtocolError, match="ragged"):
            rows_to_cols([(1, 2), (3,)])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ProtocolError, match="column 1 has"):
            pack_cols([[1, 2], [3]])

    def test_seq_out_of_range_rejected(self):
        with pytest.raises(ProtocolError, match="seq out of range"):
            pack_cols([[1]], seq=-1)
        with pytest.raises(ProtocolError, match="seq out of range"):
            pack_cols([[1]], seq=(1 << 64) - 1)

    def test_max_seq_roundtrips(self):
        top = (1 << 64) - 2
        assert unpack_cols(pack_cols([[1]], seq=top))[1] == top


class TestUnpackValidation:
    def test_trailing_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            unpack_cols(GOLDEN_BODY + b"\x00")

    def test_unknown_codec_version_rejected(self):
        body = bytes([COLS_CODEC_VERSION + 1]) + GOLDEN_BODY[1:]
        with pytest.raises(ProtocolError, match="codec version"):
            unpack_cols(body)

    def test_unknown_column_kind_rejected(self):
        head = struct.Struct("!BQIH").size
        body = bytearray(GOLDEN_BODY)
        body[head] = 99
        with pytest.raises(ProtocolError, match="unknown column kind"):
            unpack_cols(bytes(body))

    def test_str_blob_length_mismatch_rejected(self):
        # One row whose declared byte length overruns the blob.
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_STR, 4 + 1)
            + struct.pack("!I", 9)
            + b"x"
        )
        with pytest.raises(ProtocolError, match="does not match"):
            unpack_cols(body)

    def test_non_utf8_str_column_rejected(self):
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_STR, 4 + 2)
            + struct.pack("!I", 2)
            + b"\xff\xfe"
        )
        with pytest.raises(ProtocolError, match="undecodable str"):
            unpack_cols(body)

    def test_tagged_count_mismatch_rejected(self):
        payload = pack_tree([1])
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 2, 1)
            + struct.pack("!BI", COL_TAGGED, len(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match="1 values for 2 rows"):
            unpack_cols(body)

    @pytest.mark.parametrize("payload, refusal", [
        (pack_tree([1])[:-1], "undecodable tagged"),
        (pack_tree([1]) + b"\x00", "undecodable tagged"),
        (b"\x63", "undecodable tagged"),
        (pack_tree((1,)), "holds a tuple, not a list"),
        (pack_tree(1), "holds a int, not a list"),
    ], ids=["truncated", "trailing", "unknown-tag", "tuple", "scalar"])
    def test_undecodable_tagged_tree_rejected(self, payload, refusal):
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_TAGGED, len(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match=refusal):
            unpack_cols(body)

    @pytest.mark.parametrize("version", range(1, COLS_CODEC_VERSION + 1))
    def test_a_json_tagged_block_is_refused_in_a_batch_of_every_version(
        self, version
    ):
        # Kind 4's body was JSON: never read as a tree, read or unread.
        payload = b'[["int",1]]'
        body = (
            struct.pack("!BQIH", version, 0, 1, 1)
            + struct.pack("!BI", 4, len(payload))
            + payload
        )
        for columns in (None, ()):
            with pytest.raises(ProtocolError, match="retired column kind 4"):
                unpack_cols(body, columns=columns)
        with pytest.raises(ProtocolError, match="retired column kind 4"):
            describe_cols(body)

    def test_fixed_width_column_size_mismatch_rejected(self):
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 2, 1)
            + struct.pack("!BI", COL_I64, 8)  # 2 rows need 16 bytes
            + struct.pack("!q", 1)
        )
        with pytest.raises(ProtocolError, match="i64 column"):
            unpack_cols(body)


# -- typed encodings: widths from the values, the dictionary iff smaller ------------

_HEAD = struct.calcsize("!BQIH")


def lone_kind(values) -> tuple[int, int]:
    """``(kind byte, payload bytes)`` of the one-column batch of ``values``."""
    kind, nbytes = struct.unpack_from("!BI", pack_cols([values]), _HEAD)
    return kind, nbytes


def round_trips(values) -> None:
    (back,), _seq, count = unpack_cols(pack_cols([values]))
    assert count == len(values)
    assert list(map(type, back)) == list(map(type, values))
    assert list(map(repr, back)) == list(map(repr, values))


def width_of(top: int) -> int:
    return 1 if top < 256 else 2 if top < 65536 else 4


def shared_head(values: list) -> str:
    """The longest prefix of every value, one character at a time."""
    size = 0
    while all(len(value) > size and value[size] == values[0][size] for value in values):
        size += 1
    return values[0][:size]


def string_bytes(values: list, heads: bool = True) -> int:
    """A string block's payload bytes by the documented layout: headless,
    or — with ``heads`` and when smaller — the shared head once, leading,
    if its rows × head bytes stay within ``HEAD_GROWTH`` times the block."""
    encoded = [value.encode("utf-8", "surrogatepass") for value in values]
    size = width_of(max(map(len, encoded))) * len(encoded) + sum(map(len, encoded))
    head = shared_head(values).encode("utf-8", "surrogatepass") if heads else b""
    if head:
        rests = [len(raw) - len(head) for raw in encoded]
        headed = (width_of(max(len(head), *rests)) * (len(rests) + 1)
                  + len(head) + sum(rests))
        if len(rests) * len(head) <= HEAD_GROWTH * headed:
            size = min(size, headed)
    return size


def str_sizes(values, heads: bool = True) -> tuple[int, int, int]:
    """``(plain bytes, dictionary bytes, entries)`` by the documented layout."""
    table = list(dict.fromkeys(values))
    codes = 1 if len(table) <= 256 else 2 if len(table) <= 65536 else 4
    packed = 4 + 5 + string_bytes(table, heads) + codes * len(values)
    return string_bytes(values, heads), packed, len(table)


INT_EDGES = [
    0, 1, -1, 127, 128, -128, -129, 32767, 32768, -32768, -32769,
    (1 << 31) - 1, 1 << 31, -(1 << 31), -(1 << 31) - 1,
    (1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1,
]
STR_PARTS = ["", "a", "bc", "é", "日本語", "a" * 255, "a" * 256, "é" * 128,
             "x" * 65535, "x" * 65536, "日本", "éa", "\ud800", "a\x00b"]
FLOAT_EDGES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308,
    0.5, -1.5, 1e300, 2.0 ** 53 + 2, -(2.0 ** 53), 127.0, 128.0, -128.0,
    -129.0, 32767.0, 32768.0, -32768.0, -32769.0, 2.0 ** 31 - 1, 2.0 ** 31,
    -(2.0 ** 31), -(2.0 ** 31) - 1,
]
#: Any float: drawn, at an edge, or an integral one around the i32 range.
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(FLOAT_EDGES),
    st.integers(-(1 << 31) - 2, (1 << 31) + 1).map(float),
)


def float_bits(value: float) -> bytes:
    return struct.pack("!d", value)


def cheapest_float_layout(values) -> tuple[int, int]:
    """The documented rule as ``(kind, payload bytes)``: when every value
    is finite, integral and not -0.0, the int width whose ints plus one
    12-byte patch per value it does not hold are fewest bytes, the wider
    width on a tie; f64 when no width is smaller."""
    best = (COL_F64, 8 * len(values))
    if all(
        math.isfinite(v) and v == math.floor(v) and float_bits(v) != float_bits(-0.0)
        for v in values
    ):
        for shrink in (1, 2, 3):
            top = 1 << ((64 >> shrink) - 1)
            outside = sum(not -top <= v < top for v in values)
            size = (8 >> shrink) * len(values) + 12 * outside
            if size < best[1]:
                best = (COL_F64 | shrink << 4, size)
    return best


class TestTypedEncodings:
    @pytest.mark.parametrize("low, high, kind", [
        (-128, 127, 0x31), (-129, 0, 0x21), (0, 128, 0x21),
        (-32768, 32767, 0x21), (-32769, 0, 0x11), (0, 32768, 0x11),
        (-(1 << 31), (1 << 31) - 1, 0x11), (-(1 << 31) - 1, 0, 0x01),
        (0, 1 << 31, 0x01), (-(1 << 63), (1 << 63) - 1, 0x01),
        (0, 1 << 63, COL_TAGGED), (-(1 << 63) - 1, 0, COL_TAGGED),
    ])
    def test_int_width_is_the_narrowest_that_holds_min_and_max(
        self, low, high, kind
    ):
        values = [low, 0, high]
        assert lone_kind(values)[0] == kind
        if kind != COL_TAGGED:
            assert lone_kind(values)[1] == 3 * (8 >> (kind >> 4))
        round_trips(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(INT_EDGES), max_size=12))
    def test_int_columns_round_trip_at_every_boundary(self, values):
        round_trips(values)
        if values and -(1 << 63) <= min(values) and max(values) < 1 << 63:
            kind, nbytes = lone_kind(values)
            assert kind & 15 == COL_I64
            width = nbytes // len(values)
            top = 1 << (8 * width - 1)
            assert -top <= min(values) and max(values) < top
            # ... and the next width down would not have held them.
            assert width == 1 or not (
                -(1 << (4 * width - 1)) <= min(values)
                and max(values) < 1 << (4 * width - 1)
            )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FLOATS, min_size=1, max_size=12))
    def test_float_columns_round_trip_bit_exactly(self, values):
        body = pack_cols([values])
        (back,), _seq, _count = unpack_cols(body)
        assert all(type(value) is float for value in back)
        assert list(map(float_bits, back)) == list(map(float_bits, values))
        # Equal columns — equal bits, distinct objects — pack equally.
        twin = [struct.unpack("!d", float_bits(value))[0] for value in values]
        assert pack_cols([twin]) == body
        assert lone_kind(values) == cheapest_float_layout(values)

    # Three rows: a patch (12 bytes) costs more than any width saves, so
    # the width is the narrowest that holds min and max — and a value no
    # width holds is one patch over i8s (3 + 12 bytes, not 24 as f64).
    @pytest.mark.parametrize("low, high, kind", [
        (-128.0, 127.0, 0x32), (-129.0, 0.0, 0x22), (0.0, 128.0, 0x22),
        (-32768.0, 32767.0, 0x22), (-32769.0, 0.0, 0x12),
        (-(2.0 ** 31), 2.0 ** 31 - 1, 0x12), (-(2.0 ** 31) - 1, 0.0, None),
        (0.0, 2.0 ** 31, None), (0.0, 2.0 ** 53 + 2, None),
    ])
    def test_float_width_is_the_narrowest_that_holds_min_and_max(
        self, low, high, kind
    ):
        values = [low, 1.0, high]
        assert lone_kind(values) == (
            (0x32, 3 + 12) if kind is None else (kind, 3 * (8 >> (kind >> 4)))
        )
        round_trips(values)
        # One fractional, non-finite or negative-zero value keeps it f64.
        for odd in (0.5, math.nan, math.inf, -math.inf, -0.0, 5e-324):
            assert lone_kind([*values, odd]) == (COL_F64, 32)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-300, 300).map(float), min_size=1, max_size=80),
        st.lists(st.tuples(st.integers(0, 80), FLOATS), max_size=6),
    )
    def test_outliers_in_a_small_column_round_trip_bit_exactly(
        self, small, outliers
    ):
        values = list(small)
        for at, value in outliers:
            values.insert(at % (len(values) + 1), value)
        body = pack_cols([values])
        (back,), _seq, _count = unpack_cols(body)
        assert all(type(value) is float for value in back)
        assert list(map(float_bits, back)) == list(map(float_bits, values))
        twin = [struct.unpack("!d", float_bits(value))[0] for value in values]
        assert pack_cols([twin]) == body
        assert lone_kind(values) == cheapest_float_layout(values)

    @pytest.mark.parametrize("outlier", [
        -129.0, 128.0, 70000.0, 2.0 ** 31, -(2.0 ** 31) - 1, 2.0 ** 53 + 2, 1e300,
    ])
    @pytest.mark.parametrize("at", [0, 500, 1000])
    def test_one_outlier_costs_a_patch_not_the_column_width(self, outlier, at):
        values = [float(i % 100) for i in range(1000)]
        values.insert(at, outlier)
        assert lone_kind(values) == (COL_F64 | 3 << 4, 1001 + 12)
        round_trips(values)
        # Once patches cost more than a wider width, the width wins.
        if abs(outlier) < 2 ** 15:
            assert lone_kind(values + [outlier] * 90) == (COL_F64 | 2 << 4, 2 * 1091)

    def test_negative_zero_is_looked_for_at_value_boundaries_only(self):
        # 512.0 is 40 80 00 .. 00, so before a +0.0 the bytes of a -0.0
        # appear one byte in — inside no value of the column.
        assert lone_kind([512.0, 0.0]) == (COL_F64 | 2 << 4, 4)
        assert lone_kind([512.0, -0.0]) == (COL_F64, 16)
        round_trips([512.0, 0.0, -3.0])

    def test_bool_float_and_empty_columns_keep_their_kinds(self):
        assert lone_kind([True, False])[0] == COL_TAGGED
        assert lone_kind([1, True])[0] == COL_TAGGED
        assert lone_kind([])[0] == COL_TAGGED
        assert lone_kind([1.5, 2.0]) == (COL_F64, 16)
        assert lone_kind([1.0, 2.0]) == (COL_F64 | 3 << 4, 2)
        assert lone_kind([0.0, -0.0]) == (COL_F64, 16)
        for values in ([True, False], [1, True], [], [0.0, -0.0]):
            round_trips(values)

    @pytest.mark.parametrize("longest, shrink", [
        (0, 2), (255, 2), (256, 1), (65535, 1), (65536, 0),
    ])
    def test_length_table_width_follows_the_longest_entry(self, longest, shrink):
        for base, values in (
            (COL_STR, ["a" * longest, "b"]),
            (COL_BYTES, [b"a" * longest, b"b"]),
        ):
            kind, nbytes = lone_kind(values)
            assert kind == base | shrink << 4
            assert nbytes == 2 * (4 >> shrink) + longest + 1
            round_trips(values)

    def test_length_width_counts_bytes_not_characters(self):
        assert lone_kind(["é" * 127])[0] == COL_STR | 2 << 4  # 254 bytes
        assert lone_kind(["é" * 128])[0] == COL_STR | 1 << 4  # 256 bytes
        round_trips(["é" * 128, "", "日本語"])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(STR_PARTS), min_size=1, max_size=40))
    def test_dictionary_is_chosen_iff_it_is_smaller(self, values):
        plain, packed, entries = str_sizes(values)
        kind, nbytes = lone_kind(values)
        assert nbytes == min(plain, packed)
        assert (kind & 15 == COL_DICT) == (packed < plain)
        if kind & 15 == COL_DICT:
            table = list(dict.fromkeys(values))
            head = shared_head(table).encode("utf-8", "surrogatepass")
            headed = string_bytes(table) < string_bytes(table, heads=False)
            assert describe_cols(pack_cols([values]))[1][0][0] == (
                f"dict[{entries}]/u8" + (f"+head{len(head)}" if headed else "")
            )
        round_trips(values)

    @pytest.mark.parametrize("entries, shrink", [
        (2, 2), (256, 2), (257, 1), (65536, 1), (65537, 0),
    ])
    def test_code_width_follows_the_table_size(self, entries, shrink):
        table = [format(i, "012x")[::-1] for i in range(entries)]  # no head
        values = table * 3 if entries > 2 else table * 12
        kind, nbytes = lone_kind(values)
        assert kind == COL_DICT | shrink << 4
        assert nbytes == str_sizes(values)[1]
        body = pack_cols([values])
        assert describe_cols(body)[1][0][0] == f"dict[{entries}]/u{32 >> shrink}"
        (back,), _seq, _count = unpack_cols(body)
        assert back == values
        # Equal entries decode to one shared str object per distinct value.
        assert back[0] is back[entries]
        # Zero-padded, the entries share their leading zeros: the table and
        # the plain block both store them once, and the smaller one wins.
        table = [format(i, "012x") for i in range(entries)]
        values = table * 3 if entries > 2 else table * 12
        plain, packed, _entries = str_sizes(values)
        kind, nbytes = lone_kind(values)
        assert nbytes == min(plain, packed)
        headed_plain = COL_STR | 2 << 4 | 0x80
        assert kind == (COL_DICT | shrink << 4 if packed < plain else headed_plain)
        assert describe_cols(pack_cols([values]))[1][0][0].endswith(
            f"+head{len(shared_head(table))}"
        )
        round_trips(values)

    def test_a_column_of_distinct_strings_stays_plain(self):
        values = [format(i, "05x")[::-1] for i in range(300)]  # no shared head
        assert lone_kind(values) == (COL_STR | 2 << 4, 300 * 6)
        # Zero-padded, they share "00": stored once, 3-byte rests.
        values = [format(i, "05x") for i in range(300)]
        assert lone_kind(values) == (COL_STR | 2 << 4 | 0x80, 301 + 2 + 300 * 3)
        round_trips(values)

    def test_equal_columns_pack_to_equal_bytes(self):
        a = ["x" + str(i % 7) for i in range(50)]
        b = ["x" + str(i % 7) for i in range(50)]  # equal, not identical
        assert pack_cols([a, list(range(50))]) == pack_cols([b, list(range(50))])


#: A batch with every narrow encoding in it, and (too many rows for the
#: first) a dictionary wide enough for u16 codes.
EVERY_KIND_COLS = [
    [1, -2, 3, 4, 5, 6],                          # i8
    [1, -200, 3, 4, 5, 6],                        # i16
    [1, -70000, 3, 4, 5, 6],                      # i32
    [1, -(1 << 40), 3, 4, 5, 6],                  # i64
    [1.5, -0.0, math.inf, 4.0, 5.0, 6.0],         # f64
    ["a", "", "é", "bc", "日本", "f"],            # str/u8
    ["a" * 256, "", "é", "bc", "d", "f"],         # str/u16
    [b"a", b"", b"\xff\x00", b"bc", b"d", b"f"],  # bytes/u8
    [b"a" * 256, b"", b"\xff", b"bc", b"d", b"f"],  # bytes/u16
    ["tcp", "udp", "tcp", "tcp", "udp", "tcp"],   # dict/u8
    [1.0, -2.0, 0.0, 127.0, -128.0, 6.0],         # f64/i8
    [1.0, -200.0, 3.0, 4.0, 5.0, 6.0],            # f64/i16
    [1.0, -70000.0, 70000.0, 1e5, 5.0, 6.0],      # f64/i32
    [2.0 ** 40, 2.0, 3.0, 4.0, 5.0, -(2.0 ** 53)],  # f64/i8, rows 0 and 5 patched
    ["10.0.0.1", "10.0.0.22", "10.0.0.3", "10.0.1.4", "10.0.0.5", "10.0.0.6"],
    GOLDEN_HEAD_DICT_COLUMN,                      # dict, its table headed
    [b"\x03\x07summary" + bytes([n]) for n in range(6)],  # bytes, headed
    [None, True, 1 << 70, "s", 2.5, (1, "t")],    # tagged
]
EVERY_KIND_NAMES = [
    "i8", "i16", "i32", "i64", "f64", "str/u8", "str/u16", "bytes/u8",
    "bytes/u16", "dict[2]/u8", "f64/i8", "f64/i16", "f64/i32", "f64/i8",
    "str/u8+head5", "dict[2]/u8+head6", "bytes/u8+head9", "tagged",
]
WIDE_DICT_COLS = [[format(i % 257, "03x") for i in range(3 * 257)]]


class TestRowPicks:
    def test_the_fixture_holds_every_encoding(self):
        names = [name for name, _size in describe_cols(pack_cols(EVERY_KIND_COLS))[1]]
        assert names == EVERY_KIND_NAMES
        assert describe_cols(pack_cols(WIDE_DICT_COLS))[1][0][0] == "dict[257]/u16"

    def test_every_kind_reads_back_type_exactly(self):
        back = unpack_cols(pack_cols(EVERY_KIND_COLS))[0]
        assert [list(map(repr, col)) for col in back] == [
            list(map(repr, col)) for col in EVERY_KIND_COLS
        ]
        assert type(back[-1][-1]) is tuple  # the tagged column's (1, "t")

    @pytest.mark.parametrize("cols", [EVERY_KIND_COLS, WIDE_DICT_COLS])
    def test_picked_rows_equal_the_whole_decode_indexed(self, cols):
        body = pack_cols(cols)
        whole = unpack_cols(body)[0]
        count = len(cols[0])
        with memoryview(body) as view:
            _count, _seq, blocks = open_cols(view)
            for rows in ([], [0], [count - 1], [3, 1, 1, 4], list(range(count))):
                for block, column in zip(blocks, whole):
                    picked = block_values(view, block, count, rows)
                    assert list(map(repr, picked)) == [
                        repr(column[row]) for row in rows
                    ]

    def test_version_1_blocks_pick_rows_the_same_way(self):
        with memoryview(GOLDEN_BODY) as view:
            count, _seq, blocks = open_cols(view)
            picked = [block_values(view, block, count, [1]) for block in blocks]
        assert picked == [[-2], [-0.25], ["bc"]]


class TestHostileTypedBatches:
    """Forged counts, codes, widths and patches.  Truncating a batch of
    every encoding at every byte and overwriting every byte with 0x01 /
    0x80 / 0xFF is a row of tests/test_hostile.py."""

    def test_a_lying_entries_count_is_refused_before_the_table_is_read(self):
        body = bytearray(GOLDEN_DICT_BODY)
        at = body.index(bytes.fromhex("00000002"), _HEAD)
        body[at:at + 4] = b"\xff\xff\xff\xff"
        with pytest.raises(ProtocolError, match="length table"):
            unpack_cols(bytes(body))

    def test_a_code_beyond_the_table_is_refused(self):
        body = bytearray(GOLDEN_DICT_BODY)
        body[-1] = 2  # two entries: codes 0 and 1
        with pytest.raises(ProtocolError, match="code beyond its 2 entries"):
            unpack_cols(bytes(body))

    def test_a_code_width_that_lies_is_refused(self):
        body = bytearray(GOLDEN_DICT_BODY)
        body[_HEAD] = COL_DICT | 1 << 4  # u16 codes over twelve u8 bytes
        with pytest.raises(ProtocolError, match="12 code bytes for 12 rows"):
            unpack_cols(bytes(body))

    def test_a_dictionary_table_must_be_a_str_block(self):
        body = bytearray(GOLDEN_DICT_BODY)
        body[_HEAD + 5 + 4] = COL_BYTES | 2 << 4
        with pytest.raises(ProtocolError, match="table has kind"):
            unpack_cols(bytes(body))

    @pytest.mark.parametrize("head_bytes", [9, 0xFF])
    def test_a_head_past_the_payload_is_refused_before_any_allocation(
        self, head_bytes
    ):
        body = bytearray(GOLDEN_HEAD_BODY)
        body[_HEAD + 5] = head_bytes  # the head's length: 8
        wide = (  # the same lie at u32 lengths: a head of 4 GiB
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_STR | 0x80, 8 + 1)
            + struct.pack("!II", 0xFFFFFFFF, 0) + b"x"
        )
        tracemalloc.start()
        try:
            for forged in (bytes(body), wide):
                for columns in (None, ()):
                    with pytest.raises(ProtocolError, match="does not match"):
                        unpack_cols(forged, columns=columns)
            assert tracemalloc.get_traced_memory()[1] < 1 << 16
        finally:
            tracemalloc.stop()

    def test_a_head_that_splits_a_character_is_refused(self):
        body = pack_cols([["éa", "éb"]])  # head "é" (2 bytes), rests of 1
        at = body.index(bytes((2, 1, 1)))
        forged = body[:at] + bytes((1, 2, 1)) + body[at + 3:]  # head "\xc3"
        with pytest.raises(ProtocolError, match="undecodable str"):
            unpack_cols(forged)
        # Its shape is right: a reader that skips the column accepts it.
        assert unpack_cols(forged, columns=()) == ([["", ""]], None, 2)

    def test_a_headed_dictionary_code_is_not_a_headed_kind(self):
        body = bytearray(GOLDEN_HEAD_DICT_BODY)
        body[_HEAD] |= 0x80  # the head bit belongs to a string block only
        with pytest.raises(ProtocolError, match="unknown column kind 166"):
            unpack_cols(bytes(body))

    @pytest.mark.parametrize("kind", [
        0x41, 0x42, 0x33, 0x14, 0x35, 0x36, 0x17, 0x08, 0x00, 0xF1, 0xB3, 0xC5,
        0xE3,
    ])
    def test_a_shrink_no_kind_has_is_an_unknown_kind(self, kind):
        body = bytearray(GOLDEN_BODY_V2)
        body[_HEAD] = kind
        with pytest.raises(ProtocolError, match=f"unknown column kind {kind}"):
            unpack_cols(bytes(body))

    @pytest.mark.parametrize("patches", [
        [(5, 1.0), (5, 2.0)], [(4, 1.0), (3, 2.0)], [(6, 1.0)],
    ])
    def test_a_patch_out_of_order_or_beyond_the_rows_is_refused(self, patches):
        payload = bytes(6) + b"".join(
            struct.pack("!Id", row, value) for row, value in patches
        )
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 6, 1)
            + struct.pack("!BI", COL_F64 | 3 << 4, len(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match="f64/i8 column: patch row"):
            unpack_cols(body)
        # The shape is right, so a reader that skips the column accepts it.
        assert unpack_cols(body, columns=()) == ([[0.0] * 6], None, 6)

    def test_a_patch_cut_short_is_refused_read_or_not(self):
        body = bytearray(GOLDEN_PATCHED_F64_BODY[:-1])
        body[_HEAD + 1:_HEAD + 5] = struct.pack("!I", 17)
        for columns in (None, ()):
            with pytest.raises(ProtocolError, match="f64/i8 column: 17 bytes"):
                unpack_cols(bytes(body), columns=columns)

    def test_a_narrow_f64_kind_reads_its_ints_as_floats(self):
        # Column 0 is two i8 bytes: as f64/i8 they are two floats, and a
        # wider narrow f64 is refused by its byte count.
        body = bytearray(GOLDEN_BODY_V2)
        body[_HEAD] = COL_F64 | 3 << 4
        (first, *_rest), _seq, _count = unpack_cols(bytes(body))
        assert list(map(float_bits, first)) == [float_bits(7.0), float_bits(-2.0)]
        for kind, name in ((0x22, "f64/i16"), (0x12, "f64/i32")):
            body[_HEAD] = kind
            with pytest.raises(ProtocolError, match=f"{name} column: 2 bytes"):
                unpack_cols(bytes(body))


# -- a reader that names its columns: the rest is shape-checked, not decoded -------


class TestUnreadBlocks:
    """``unpack_cols(body, columns=...)``: a block the reader does not
    name must still have the *shape* of its rows — so truncation, a length
    table that does not sum, a wrong dictionary table kind or code-byte
    count and trailing bytes fail for every column — while its *content*
    (UTF-8, dictionary codes) is never looked at and never materialised."""

    def test_unread_blocks_come_back_as_their_kinds_zero(self):
        body = pack_cols(EVERY_KIND_COLS)
        cols, _seq, count = unpack_cols(body, columns=())
        zeros = [0, 0, 0, 0, 0.0, "", "", b"", b"", "", 0.0, 0.0, 0.0, 0.0,
                 "", "", b""]
        for column, zero in zip(cols, zeros):
            assert column == [zero] * count
            assert type(column) is list and type(column[0]) is type(zero)
        # A tagged block's only shape is its content: always decoded.
        assert repr(cols[-1]) == repr(EVERY_KIND_COLS[-1])

    def test_an_unread_narrow_f64_block_is_float_zeros(self):
        with memoryview(GOLDEN_NARROW_F64_BODY) as view:
            count, _seq, (block,) = open_cols(view)
            zeros = block_zeros(view, block, count)
        assert block[0] == COL_F64 | 2 << 4
        assert zeros == [0.0] * 3
        assert all(type(zero) is float for zero in zeros)

    def test_named_columns_are_decoded_and_no_others(self):
        body = pack_cols(EVERY_KIND_COLS)
        cols = unpack_cols(body, columns={1, 5, 9})[0]
        for index, (column, sent) in enumerate(zip(cols[:-1], EVERY_KIND_COLS)):
            assert (column == sent) == (index in {1, 5, 9})
        assert unpack_cols(body, columns=None)[0][:-1] == EVERY_KIND_COLS[:-1]

    # Damage a full decode accepts, a projected one accepts: a row of
    # tests/test_hostile.py.

    def test_a_lying_shape_is_refused_unread(self):
        def one_block(rows: int, kind: int, payload: bytes) -> bytes:
            return (
                struct.pack("!BQIH", COLS_CODEC_VERSION, 0, rows, 1)
                + struct.pack("!BI", kind, len(payload))
                + payload
            )

        with pytest.raises(ProtocolError, match="i64 column"):
            unpack_cols(one_block(2, COL_I64, struct.pack("!q", 1)), columns=())
        with pytest.raises(ProtocolError, match="does not match"):
            unpack_cols(
                one_block(1, COL_STR, struct.pack("!I", 9) + b"x"), columns=()
            )
        dictionary = bytearray(GOLDEN_DICT_BODY)
        dictionary[_HEAD] = COL_DICT | 1 << 4  # u16 codes over twelve u8 bytes
        with pytest.raises(ProtocolError, match="12 code bytes for 12 rows"):
            unpack_cols(bytes(dictionary), columns=())
        dictionary = bytearray(GOLDEN_DICT_BODY)
        dictionary[_HEAD + 5 + 4] = COL_BYTES | 2 << 4
        with pytest.raises(ProtocolError, match="table has kind"):
            unpack_cols(bytes(dictionary), columns=())
        with pytest.raises(ProtocolError, match="unknown column kind 8"):
            unpack_cols(one_block(0, 8, b""), columns=())

    def test_content_of_an_unread_block_is_never_looked_at(self):
        bad_text = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_STR, 4 + 2)
            + struct.pack("!I", 2)
            + b"\xff\xfe"
        )
        assert unpack_cols(bad_text, columns=()) == ([[""]], None, 1)
        with pytest.raises(ProtocolError, match="undecodable str"):
            unpack_cols(bad_text, columns=(0,))
        bad_code = bytearray(GOLDEN_DICT_BODY)
        bad_code[-1] = 2  # two entries: codes 0 and 1
        assert unpack_cols(bytes(bad_code), columns=()) == ([[""] * 12], None, 12)
        with pytest.raises(ProtocolError, match="code beyond its 2 entries"):
            unpack_cols(bytes(bad_code), columns=(0,))

    def test_an_unread_tagged_block_is_still_decoded(self):
        payload = pack_tree([1])[:-1]
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_TAGGED, len(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match="undecodable tagged"):
            unpack_cols(body, columns=())

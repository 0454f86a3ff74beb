"""Unit tests for the typed column-batch codec (:mod:`repro.core.cols`).

The golden-bytes tests pin the on-wire layout literally: any change to
the header structs, the kind dispatch, or the per-column payloads is a
wire-format break and must bump :data:`COLS_CODEC_VERSION`, not silently
reshuffle bytes under existing peers.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.core.cols import (
    COL_BYTES,
    COL_F64,
    COL_I64,
    COL_STR,
    COL_TAGGED,
    COLS_CODEC_VERSION,
    cols_to_rows,
    describe_cols,
    pack_cols,
    pack_column,
    read_column,
    rows_to_cols,
    unpack_cols,
)
from repro.core.errors import ParameterError, ProtocolError

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


class TestGoldenBytes:
    def test_packed_batch_matches_fixture(self):
        cols = rows_to_cols(GOLDEN_ROWS)
        assert pack_cols(cols, seq=GOLDEN_SEQ) == GOLDEN_BODY

    def test_fixture_unpacks_to_the_source_rows(self):
        cols, seq, count = unpack_cols(GOLDEN_BODY)
        assert seq == GOLDEN_SEQ
        assert count == 2
        assert cols_to_rows(cols) == GOLDEN_ROWS

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


class TestBytesColumn:
    def test_packed_bytes_column_matches_fixture(self):
        assert pack_cols([GOLDEN_BYTES_COLUMN]) == GOLDEN_BYTES_BODY

    def test_fixture_unpacks_to_the_source_buffers(self):
        cols, seq, count = unpack_cols(GOLDEN_BYTES_BODY)
        assert (cols, seq, count) == ([GOLDEN_BYTES_COLUMN], None, 3)
        assert all(type(value) is bytes for value in cols[0])

    def test_describe_reads_kinds_and_sizes_from_the_headers(self):
        assert describe_cols(GOLDEN_BYTES_BODY) == (3, [("bytes", 17)])
        assert GOLDEN_BYTES_BODY[15] == COL_BYTES
        assert describe_cols(GOLDEN_BODY) == (
            2, [("i64", 16), ("f64", 16), ("str", 11)]
        )
        with pytest.raises(ProtocolError, match="truncated"):
            describe_cols(GOLDEN_BODY[:20])

    def test_every_truncation_raises(self):
        for cut in range(len(GOLDEN_BYTES_BODY)):
            with pytest.raises(ProtocolError):
                unpack_cols(GOLDEN_BYTES_BODY[:cut])

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
        assert block == GOLDEN_BYTES_BODY[15:]
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
        assert kinds == [COL_I64, COL_F64, COL_STR, COL_TAGGED]

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
    def test_every_truncation_raises(self):
        # The codec must never silently accept a prefix: chop the golden
        # body at every length and demand a ProtocolError each time.
        for cut in range(len(GOLDEN_BODY)):
            with pytest.raises(ProtocolError):
                unpack_cols(GOLDEN_BODY[:cut])

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
        payload = b'[["int",1]]'
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 2, 1)
            + struct.pack("!BI", COL_TAGGED, len(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match="1 values for 2 rows"):
            unpack_cols(body)

    def test_undecodable_tagged_json_rejected(self):
        payload = b"{not json"
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 1, 1)
            + struct.pack("!BI", COL_TAGGED, len(payload))
            + payload
        )
        with pytest.raises(ProtocolError, match="undecodable tagged"):
            unpack_cols(body)

    def test_fixed_width_column_size_mismatch_rejected(self):
        body = (
            struct.pack("!BQIH", COLS_CODEC_VERSION, 0, 2, 1)
            + struct.pack("!BI", COL_I64, 8)  # 2 rows need 16 bytes
            + struct.pack("!q", 1)
        )
        with pytest.raises(ProtocolError, match="i64 column"):
            unpack_cols(body)

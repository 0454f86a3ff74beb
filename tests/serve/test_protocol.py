"""Unit tests for the wire protocol: framing, decoding, row encodings."""

from __future__ import annotations

import json
import math
import struct

import pytest

from repro.core.errors import ProtocolError
from repro.serve import protocol
from repro.serve.protocol import (
    Frame,
    FrameDecoder,
    RemoteError,
    decode_frame_body,
    decode_result_rows,
    encode_frame,
    encode_result_rows,
    frame_name,
)


class TestFrameEncoding:
    def test_roundtrip(self):
        wire = encode_frame(protocol.SUBSCRIBE, {"row": [1, "a"]})
        (length,) = protocol.HEADER.unpack(wire[:4])
        assert length == len(wire) - 4
        frame = decode_frame_body(wire[4:])
        assert frame.ftype == protocol.SUBSCRIBE
        assert frame.name == "SUBSCRIBE"
        assert frame.payload == {"row": [1, "a"]}

    def test_empty_payload_is_empty_object(self):
        wire = encode_frame(protocol.QUERY)
        frame = decode_frame_body(wire[4:])
        assert frame.payload == {}

    def test_oversized_frame_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="wire limit"):
            encode_frame(
                protocol.SUBSCRIBE,
                {"row": ["x" * 100]},
                max_frame_bytes=64,
            )

    def test_nan_rejected_by_plain_json_encoding(self):
        # Raw payloads are strict JSON; non-finite floats must travel
        # through the tagged result encoding instead.
        with pytest.raises(ValueError):
            encode_frame(protocol.RESULT, {"x": math.nan})

    def test_frame_names(self):
        assert frame_name(protocol.HELLO) == "HELLO"
        assert frame_name(protocol.GOODBYE) == "GOODBYE"
        assert frame_name(99) == "type-99"
        # 3 was the row INSERT: reserved, unnamed, never reassigned
        assert frame_name(3) == "type-3"
        assert not hasattr(protocol, "INSERT")

    def test_frame_is_a_tuple(self):
        frame = Frame(protocol.QUERY, {"a": 1})
        ftype, payload = frame
        assert (ftype, payload) == (protocol.QUERY, {"a": 1})


class TestDecodeFrameBody:
    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError, match="empty frame"):
            decode_frame_body(b"")

    def test_undecodable_utf8_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame_body(bytes([protocol.QUERY]) + b"\xff\xfe{")

    def test_invalid_json_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame_body(bytes([protocol.QUERY]) + b"{nope")

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_frame_body(bytes([protocol.QUERY]) + b"[1,2]")

    def test_type_byte_only_means_empty_payload(self):
        frame = decode_frame_body(bytes([protocol.STATS]))
        assert frame.ftype == protocol.STATS
        assert frame.payload == {}


class TestFrameDecoder:
    def test_single_frame(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(protocol.QUERY))
        frames = list(decoder.frames())
        assert [f.ftype for f in frames] == [protocol.QUERY]

    def test_byte_at_a_time(self):
        wire = encode_frame(protocol.SUBSCRIBE, {"rows": [[1, 2, 3]]})
        decoder = FrameDecoder()
        collected = []
        for i in range(len(wire)):
            decoder.feed(wire[i : i + 1])
            collected.extend(decoder.frames())
        assert len(collected) == 1
        assert collected[0].payload == {"rows": [[1, 2, 3]]}

    def test_multiple_frames_in_one_chunk(self):
        wire = encode_frame(protocol.QUERY) + encode_frame(
            protocol.STATS
        ) + encode_frame(protocol.BYE)
        decoder = FrameDecoder()
        decoder.feed(wire)
        assert [f.ftype for f in decoder.frames()] == [
            protocol.QUERY,
            protocol.STATS,
            protocol.BYE,
        ]

    def test_partial_frame_is_retained(self):
        wire = encode_frame(protocol.QUERY)
        decoder = FrameDecoder()
        decoder.feed(wire[:-1])
        assert list(decoder.frames()) == []
        decoder.feed(wire[-1:])
        assert len(list(decoder.frames())) == 1

    def test_zero_length_frame_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", 0))
        with pytest.raises(ProtocolError, match="empty frame"):
            list(decoder.frames())

    def test_oversized_frame_rejected_before_body_arrives(self):
        decoder = FrameDecoder(max_frame_bytes=1024)
        decoder.feed(struct.pack(">I", 1 << 30))
        with pytest.raises(ProtocolError, match="oversized"):
            list(decoder.frames())


class TestRowEncodings:
    def test_result_rows_roundtrip_exactly(self):
        rows = [
            {"tb": 4, "ip": "10.0.0.1", "c": 7, "s": 2.75},
            {"tb": 4, "ip": "x", "c": 0, "s": math.inf},
            {"tb": 5, "ip": "y", "nested": (1, "k"), "top": [("a", 2.0)]},
        ]
        decoded = decode_result_rows(
            json.loads(json.dumps(encode_result_rows(rows)))
        )
        assert decoded == rows
        # identity-sensitive checks JSON alone would lose
        assert isinstance(decoded[0]["s"], float)
        assert isinstance(decoded[2]["nested"], tuple)
        assert isinstance(decoded[2]["top"], list)
        assert isinstance(decoded[2]["top"][0], tuple)

    def test_result_rows_preserve_alias_order(self):
        rows = [{"z": 1, "a": 2, "m": 3}]
        decoded = decode_result_rows(encode_result_rows(rows))
        assert list(decoded[0]) == ["z", "a", "m"]

    def test_nan_survives_result_encoding(self):
        [row] = decode_result_rows(encode_result_rows([{"v": math.nan}]))
        assert math.isnan(row["v"])

    def test_malformed_result_rows_rejected(self):
        with pytest.raises(ProtocolError, match="malformed RESULT"):
            decode_result_rows([[["alias"]]])


class TestRemoteError:
    def test_carries_code_and_message(self):
        error = RemoteError("bad-rows", "arity mismatch")
        assert error.code == "bad-rows"
        assert "bad-rows" in str(error)
        assert "arity mismatch" in str(error)

    def test_is_a_protocol_error(self):
        assert isinstance(RemoteError("x", "y"), ProtocolError)


#: Three raw blobs (one empty) as a PARTIALS_OK frame; ADOPT carries the
#: same body under its own type byte.
GOLDEN_BLOBS = [b"\x02state-a", b"", b"\x02b"]
GOLDEN_BLOB_BODY = bytes.fromhex(
    "01" "0000000000000000" "00000003" "0001"  # cols v1, no seq, 3 rows, 1 col
    "05" "00000016"                            # bytes column, 22 bytes
    "00000008" "00000000" "00000002"           # byte lengths
    "0273746174652d61" "0262"                  # the blobs, raw
)
GOLDEN_PARTIALS_OK = bytes.fromhex("0000002b" "12") + GOLDEN_BLOB_BODY
GOLDEN_ADOPT = bytes.fromhex("0000002b" "13") + GOLDEN_BLOB_BODY
#: Cols v2: the length table at u8.
GOLDEN_BLOB_BODY_V2 = bytes.fromhex(
    "02" "0000000000000000" "00000003" "0001"  # cols v2, no seq, 3 rows, 1 col
    "25" "0000000d"                            # bytes/u8 column, 13 bytes
    "08" "00" "02"                             # byte lengths
    "0273746174652d61" "0262"                  # the blobs, raw
)
GOLDEN_PARTIALS_OK_V2 = bytes.fromhex("00000022" "12") + GOLDEN_BLOB_BODY_V2
GOLDEN_ADOPT_V2 = bytes.fromhex("00000022" "13") + GOLDEN_BLOB_BODY_V2
#: Cols v3: what the writer emitted before string heads.
GOLDEN_BLOB_BODY_V3 = bytes.fromhex(
    "03" "0000000000000000" "00000003" "0001"  # cols v3, no seq, 3 rows, 1 col
    "25" "0000000d"                            # bytes/u8 column, 13 bytes
    "08" "00" "02"                             # byte lengths
    "0273746174652d61" "0262"                  # the blobs, raw
)
GOLDEN_PARTIALS_OK_V3 = bytes.fromhex("00000022" "12") + GOLDEN_BLOB_BODY_V3
GOLDEN_ADOPT_V3 = bytes.fromhex("00000022" "13") + GOLDEN_BLOB_BODY_V3
#: What the writer emits now (cols v4; no head, as one blob is empty); the
#: fixtures above are what older peers and files hold, and still decode.
GOLDEN_BLOB_BODY_V4 = b"\x04" + GOLDEN_BLOB_BODY_V3[1:]
GOLDEN_PARTIALS_OK_V4 = bytes.fromhex("00000022" "12") + GOLDEN_BLOB_BODY_V4
GOLDEN_ADOPT_V4 = bytes.fromhex("00000022" "13") + GOLDEN_BLOB_BODY_V4
#: Two partial-state blobs share their magic and version: stored once.
GOLDEN_HEAD_BLOBS = [b"FDPS\x06ab", b"FDPS\x06cde"]
GOLDEN_HEAD_BLOB_BODY = bytes.fromhex(
    "04" "0000000000000000" "00000002" "0001"  # cols v4, no seq, 2 rows, 1 col
    "a5" "0000000d"                            # bytes/u8+head5 column, 13 bytes
    "05" "02" "03"                             # the head's length, the rests'
    "4644505306" "6162" "636465"               # b"FDPS\x06", then the rests
)


class TestBlobFrames:
    def test_writer_matches_fixtures(self):
        body = protocol.encode_blobs(GOLDEN_BLOBS)
        assert body == GOLDEN_BLOB_BODY_V4
        assert encode_frame(protocol.PARTIALS_OK, body) == GOLDEN_PARTIALS_OK_V4
        assert encode_frame(protocol.ADOPT, body) == GOLDEN_ADOPT_V4
        assert protocol.encode_blobs(GOLDEN_HEAD_BLOBS) == GOLDEN_HEAD_BLOB_BODY
        assert protocol.decode_blobs(GOLDEN_HEAD_BLOB_BODY) == GOLDEN_HEAD_BLOBS

    @pytest.mark.parametrize(
        "data, ftype",
        [
            (GOLDEN_PARTIALS_OK, protocol.PARTIALS_OK),
            (GOLDEN_ADOPT, protocol.ADOPT),
            (GOLDEN_PARTIALS_OK_V2, protocol.PARTIALS_OK),
            (GOLDEN_ADOPT_V2, protocol.ADOPT),
            (GOLDEN_PARTIALS_OK_V3, protocol.PARTIALS_OK),
            (GOLDEN_ADOPT_V3, protocol.ADOPT),
            (GOLDEN_PARTIALS_OK_V4, protocol.PARTIALS_OK),
            (GOLDEN_ADOPT_V4, protocol.ADOPT),
        ],
    )
    def test_fixtures_decode_to_the_source_blobs(self, data, ftype):
        decoder = FrameDecoder()
        decoder.feed(data)
        (frame,) = decoder.frames()
        assert frame.ftype == ftype
        assert protocol.decode_blobs(frame.payload["body"]) == GOLDEN_BLOBS

    def test_round_trip_and_no_text_expansion(self):
        blobs = [bytes(range(256)) * 4, b"", b"\x00"]
        body = protocol.encode_blobs(blobs)
        assert protocol.decode_blobs(body) == blobs
        assert protocol.decode_blobs(memoryview(body)) == blobs
        assert protocol.decode_blobs(protocol.encode_blobs([])) == []
        # Raw bytes plus a length table (u16: the longest is 1 KiB) — not
        # hex's 2x.
        assert len(body) == sum(map(len, blobs)) + 15 + 5 + 2 * len(blobs)

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            b'{"blobs": "deadbeef"}',
            GOLDEN_BLOB_BODY[:-1],
            GOLDEN_BLOB_BODY + b"\x00",
            protocol.pack_cols([[1, 2]]),  # a column, but not of bytes
            protocol.pack_cols([[b"a"], [b"b"]]),  # two columns
        ],
    )
    def test_malformed_bodies_are_protocol_errors(self, body):
        with pytest.raises(ProtocolError):
            protocol.decode_blobs(body)

    def test_oversized_frame_raises_the_typed_error(self):
        with pytest.raises(protocol.FrameTooLarge, match="PARTIALS_OK frame"):
            encode_frame(
                protocol.PARTIALS_OK, GOLDEN_BLOB_BODY, max_frame_bytes=16
            )
